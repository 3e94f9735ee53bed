#include "core/slimstore.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <set>
#include <unordered_set>

#include "common/hash.h"
#include "common/macros.h"
#include "common/mmap_file.h"
#include "obs/job_context.h"

namespace slim::core {

using format::ContainerId;

namespace {

/// Copies a failed result's message into the job scope so the journal
/// outcome says what went wrong, then passes the result through.
template <typename T>
Result<T> CloseJob(obs::JobScope& job, Result<T> result) {
  if (!result.ok()) job.SetError(result.status().message());
  return result;
}

Status CloseJob(obs::JobScope& job, Status status) {
  if (!status.ok()) job.SetError(status.message());
  return status;
}

}  // namespace

SlimStore::SlimStore(oss::ObjectStore* store, SlimStoreOptions options)
    : store_(store),
      options_(std::move(options)),
      containers_(store, options_.root + "/containers"),
      recipes_(store, options_.root + "/recipes"),
      pending_(store, options_.root + "/state/pending"),
      global_index_(store, options_.root + "/gindex") {
  // Every backup persists its G-node worklist so a crash-restarted
  // L-node can rebuild which versions still owe a G-node pass.
  options_.backup.pending_store = &pending_;
}

SlimStore::GnodeGate::GnodeGate(SlimStore* store) : store_(store) {
  MutexLock lock(store_->gnode_mu_);
  while (store_->gnode_busy_) store_->gnode_cv_.Wait(store_->gnode_mu_);
  store_->gnode_busy_ = true;
}

SlimStore::GnodeGate::~GnodeGate() {
  {
    MutexLock lock(store_->gnode_mu_);
    store_->gnode_busy_ = false;
  }
  store_->gnode_cv_.NotifyOne();
}

void SlimStore::FinishBackup(const lnode::BackupStats& stats) {
  VersionInfo info;
  info.file_id = stats.file_id;
  info.version = stats.version;
  info.logical_bytes = stats.logical_bytes;
  info.new_containers = stats.new_containers;
  info.referenced_containers = stats.referenced_containers;
  info.sparse_containers = stats.sparse_containers;
  catalog_.RecordBackup(std::move(info));

  // Precomputed mark phase (§VI-B, category 1): containers referenced by
  // the previous version but no longer by this one are associated with
  // the previous version as garbage.
  if (stats.version > 0) {
    auto prev = catalog_.Get(stats.file_id, stats.version - 1);
    if (prev.has_value()) {
      std::unordered_set<ContainerId> now(
          stats.referenced_containers.begin(),
          stats.referenced_containers.end());
      std::vector<ContainerId> dropped;
      for (ContainerId cid : prev->referenced_containers) {
        if (now.count(cid) == 0) dropped.push_back(cid);
      }
      catalog_.AddGarbage(stats.file_id, stats.version - 1, dropped);
    }
  }
}

Result<lnode::BackupStats> SlimStore::Backup(const std::string& file_id,
                                             std::string_view data) {
  obs::JobScope job("backup", "backup:" + file_id, options_.tenant);
  auto result = [&]() -> Result<lnode::BackupStats> {
    std::optional<Fingerprint> content;
    if (options_.enable_statcache) {
      content = Sha1::Hash(data);
      auto fast = TryStatCacheFastPath(file_id, data.size(), &*content);
      if (fast.has_value()) return std::move(*fast);
    }
    lnode::BackupPipeline pipeline(&containers_, &recipes_, &similar_files_,
                                   options_.backup);
    uint64_t version = pipeline.AllocateVersion(file_id);
    auto stats = pipeline.Backup(file_id, data, version);
    if (!stats.ok()) return stats.status();
    FinishBackup(stats.value());
    if (content.has_value()) {
      lnode::StatCache::Entry entry;
      entry.size = data.size();
      entry.content = *content;
      entry.version = stats.value().version;
      statcache_.Update(file_id, entry);
    }

    if (options_.auto_gnode) {
      // Opens its own nested job: the cycle's cost journals as a child
      // of this backup.
      auto cycle = RunGNodeCycle();
      if (!cycle.ok()) return cycle.status();
    }
    return stats;
  }();
  if (result.ok()) {
    job.Annotate("version", static_cast<double>(result.value().version));
    job.Annotate("logical_bytes",
                 static_cast<double>(result.value().logical_bytes));
  }
  return CloseJob(job, std::move(result));
}

Result<lnode::BackupStats> SlimStore::BackupStream(
    const std::string& file_id, lnode::ByteSource* source) {
  obs::JobScope job("backup", "backup_stream:" + file_id, options_.tenant);
  auto result = [&]() -> Result<lnode::BackupStats> {
    lnode::BackupPipeline pipeline(&containers_, &recipes_, &similar_files_,
                                   options_.backup);
    uint64_t version = pipeline.AllocateVersion(file_id);
    auto stats = pipeline.BackupStream(file_id, source, version);
    if (!stats.ok()) return stats.status();
    FinishBackup(stats.value());
    return stats;
  }();
  if (result.ok()) {
    job.Annotate("version", static_cast<double>(result.value().version));
    job.Annotate("logical_bytes",
                 static_cast<double>(result.value().logical_bytes));
  }
  return CloseJob(job, std::move(result));
}

Result<lnode::BackupStats> SlimStore::BackupFile(
    const std::string& path, const std::string& file_id) {
  const std::string id = file_id.empty() ? path : file_id;
  uint64_t mtime_ns = 0;
  if (options_.enable_statcache) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec) {
      auto mtime = std::filesystem::last_write_time(path, ec);
      if (!ec) {
        mtime_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                mtime.time_since_epoch())
                .count());
        auto hit = statcache_.Get(id);
        if (hit.has_value() && hit->mtime_ns != 0 &&
            hit->mtime_ns == mtime_ns && hit->size == size) {
          // Unchanged by stat alone: forward the previous recipe
          // without even reading the file's bytes.
          obs::JobScope job("backup", "backup:" + id, options_.tenant);
          auto fast = TryStatCacheFastPath(id, size, nullptr);
          if (fast.has_value()) return CloseJob(job, std::move(*fast));
        }
      }
    }
  }
  auto mapped = MmapFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  auto stats = Backup(id, mapped.value()->data());
  if (stats.ok() && mtime_ns != 0) {
    // Backup() recorded size + content hash; stamp the mtime so the
    // next BackupFile of an untouched file skips the read entirely.
    auto entry = statcache_.Get(id);
    if (entry.has_value() && entry->version == stats.value().version) {
      entry->mtime_ns = mtime_ns;
      statcache_.Update(id, *entry);
    }
  }
  return stats;
}

std::optional<Result<lnode::BackupStats>> SlimStore::TryStatCacheFastPath(
    const std::string& file_id, uint64_t logical_bytes,
    const Fingerprint* content) {
  auto hit = statcache_.Get(file_id);
  if (!hit.has_value() || hit->size != logical_bytes) return std::nullopt;
  if (content != nullptr && !(hit->content == *content)) return std::nullopt;
  // The entry is only a hint: trust it only if the cached version is
  // still this file's live latest version (rebuild revalidation keeps
  // this invariant, but deletes/concurrent writers may not).
  auto latest = similar_files_.LatestVersion(file_id);
  if (!latest.has_value() || *latest != hit->version) return std::nullopt;
  if (!catalog_.Get(file_id, hit->version).has_value()) return std::nullopt;
  auto recipe = recipes_.ReadRecipe(file_id, hit->version);
  if (!recipe.ok()) return std::nullopt;  // Fall back to the full pipeline.

  format::Recipe forwarded = std::move(recipe).value();
  forwarded.version = hit->version + 1;
  Status written =
      recipes_.WriteRecipe(forwarded, options_.backup.sample_ratio);
  if (!written.ok()) {
    return std::optional<Result<lnode::BackupStats>>(std::move(written));
  }

  std::vector<Fingerprint> samples;
  for (const auto& segment : forwarded.segments) {
    for (const auto& record : segment.records) {
      if (format::IsSampleFingerprint(record.fp,
                                      options_.backup.sample_ratio)) {
        samples.push_back(record.fp);
      }
    }
  }
  similar_files_.AddFileVersion(file_id, forwarded.version, samples);

  lnode::BackupStats stats;
  stats.file_id = file_id;
  stats.version = forwarded.version;
  stats.detection = lnode::BaseDetection::kByName;
  stats.logical_bytes = forwarded.LogicalBytes();
  stats.dup_bytes = stats.logical_bytes;
  stats.total_chunks = forwarded.TotalChunks();
  stats.dup_chunks = stats.total_chunks;
  stats.referenced_containers =
      format::CollectReferencedContainers(forwarded);

  // Identical content → identical reference set, no new or sparse
  // containers: the version is born fully G-node-processed (no pending
  // record) and its predecessor gains no garbage.
  VersionInfo info;
  info.file_id = file_id;
  info.version = stats.version;
  info.logical_bytes = stats.logical_bytes;
  info.referenced_containers = stats.referenced_containers;
  info.gnode_pending = false;
  catalog_.RecordBackup(std::move(info));

  lnode::StatCache::Entry entry = *hit;
  entry.version = stats.version;
  statcache_.Update(file_id, entry);
  return std::optional<Result<lnode::BackupStats>>(std::move(stats));
}

Result<std::string> SlimStore::Restore(
    const std::string& file_id, uint64_t version,
    lnode::RestoreStats* stats,
    const lnode::RestoreOptions* override_options) {
  obs::JobScope job("restore",
                    "restore:" + file_id + "@" + std::to_string(version),
                    options_.tenant);
  lnode::RestoreOptions opts =
      override_options != nullptr ? *override_options : options_.restore;
  if (opts.global_index == nullptr) opts.global_index = &global_index_;
  lnode::RestorePipeline pipeline(&containers_, &recipes_, opts);
  auto result = pipeline.Restore(file_id, version, stats);
  if (result.ok()) {
    job.Annotate("restored_bytes",
                 static_cast<double>(result.value().size()));
  }
  return CloseJob(job, std::move(result));
}

Result<GNodeCycleStats> SlimStore::RunGNodeCycle() {
  obs::JobScope job("gnode_cycle", "gnode:cycle", options_.tenant);
  GnodeGate gate(this);
  GNodeCycleStats cycle;

  for (const auto& pending : catalog_.GnodePending()) {
    auto info = catalog_.Get(pending.file_id, pending.version);
    if (!info.has_value()) continue;

    std::string pending_label =
        pending.file_id + "@" + std::to_string(pending.version);
    std::vector<ContainerId> all_new = info->new_containers;

    // Sparse container compaction first: it may emit new containers
    // which reverse dedup then also filters.
    if (options_.enable_scc && !info->sparse_containers.empty()) {
      // Child job: the cycle's per-phase cost splits into one scc /
      // reverse_dedup record per pending backup, causally linked to
      // this cycle via the journal's "parent" field.
      obs::JobScope scc_job("scc", "scc:" + pending_label, options_.tenant);
      gnode::SccOptions scc_options = options_.scc;
      scc_options.container_capacity = options_.backup.container_capacity;
      scc_options.sample_ratio = options_.backup.sample_ratio;
      gnode::SparseContainerCompactor scc(&containers_, &recipes_,
                                          &global_index_, scc_options);
      std::vector<ContainerId> scc_new;
      std::vector<ContainerId> referenced;
      auto scc_stats =
          scc.Compact(pending.file_id, pending.version,
                      info->sparse_containers, &scc_new, &referenced);
      if (!scc_stats.ok()) {
        scc_job.SetError(scc_stats.status().message());
        job.SetError(scc_stats.status().message());
        return scc_stats.status();
      }
      cycle.scc += scc_stats.value();
      if (!scc_new.empty()) {
        catalog_.AddNewContainers(pending.file_id, pending.version, scc_new);
        all_new.insert(all_new.end(), scc_new.begin(), scc_new.end());
      }
      // Refresh the catalog from durable state after EVERY successful
      // compaction call — including a pure no-op retry. An earlier,
      // interrupted cycle may have rewritten the recipe (or done the
      // rewrite and then failed before this refresh), in which case the
      // stats of the convergent retry show no work at all, yet the
      // in-memory referenced set is still pre-SCC. Compact hands back
      // the set of the recipe it read or committed, which is the
      // durable recipe, the authority on what this version references.
      // A failed Compact returned above, so a later retry redoes the
      // refresh.
      catalog_.SetReferenced(pending.file_id, pending.version,
                             std::move(referenced));
      // Compacted sparse containers become garbage associated with
      // this version (§VI-B, category 2). After a successful Compact
      // the recipe no longer points into them. AddGarbage dedupes, so
      // re-adding on a retry is harmless.
      catalog_.AddGarbage(pending.file_id, pending.version,
                          info->sparse_containers);
      scc_job.Annotate("sparse_containers",
                       static_cast<double>(info->sparse_containers.size()));
    }

    if (options_.enable_reverse_dedup) {
      obs::JobScope rd_job("reverse_dedup", "reverse_dedup:" + pending_label,
                           options_.tenant);
      gnode::ReverseDeduplicator reverse(&containers_, &global_index_,
                                         options_.reverse_dedup);
      auto rd_stats = reverse.ProcessNewContainers(all_new);
      if (!rd_stats.ok()) {
        rd_job.SetError(rd_stats.status().message());
        job.SetError(rd_stats.status().message());
        return rd_stats.status();
      }
      cycle.reverse_dedup += rd_stats.value();
      rd_job.Annotate("new_containers", static_cast<double>(all_new.size()));
    }

    // The version's pass is complete: retire the durable worklist
    // record first, then the in-memory flag. A failed delete fails the
    // cycle so a later (idempotent) retry re-runs and re-retires it.
    Status retired = pending_.Delete(pending.file_id, pending.version);
    if (!retired.ok() && !retired.IsNotFound()) {
      job.SetError(retired.message());
      return retired;
    }
    catalog_.MarkGnodeDone(pending.file_id, pending.version);
    ++cycle.backups_processed;
  }
  job.Annotate("backups_processed",
               static_cast<double>(cycle.backups_processed));
  return cycle;
}

Result<gnode::GcStats> SlimStore::DeleteVersion(const std::string& file_id,
                                                uint64_t version,
                                                bool use_precomputed) {
  obs::JobScope job("gc", "delete:" + file_id + "@" + std::to_string(version),
                    options_.tenant);
  GnodeGate gate(this);
  auto info = catalog_.Get(file_id, version);
  if (!info.has_value()) {
    Status status = Status::NotFound("unknown version of " + file_id);
    job.SetError(status.message());
    return status;
  }
  gnode::VersionCollector collector(&containers_, &recipes_, &similar_files_,
                                    &global_index_);
  Result<gnode::GcStats> result =
      use_precomputed
          ? collector.CollectPrecomputed(
                file_id, version,
                [&] {
                  // Candidates: the precomputed garbage list plus this
                  // version's own references (covers last-version
                  // deletion, where nothing newer superseded them).
                  std::vector<ContainerId> c = info->garbage_containers;
                  c.insert(c.end(), info->referenced_containers.begin(),
                           info->referenced_containers.end());
                  std::sort(c.begin(), c.end());
                  c.erase(std::unique(c.begin(), c.end()), c.end());
                  return c;
                }(),
                catalog_.LiveReferencedSetsExcept(file_id, version))
          : collector.CollectMarkSweep(file_id, version,
                                       catalog_.LiveVersions());
  if (!result.ok()) return CloseJob(job, std::move(result));
  catalog_.Erase(file_id, version);
  // An unprocessed version's durable worklist dies with it
  // (best-effort: rebuild treats a leftover as an orphan anyway). A
  // processed version's record was retired by its G-node pass, and
  // Rebuild sets the flag from the durable records.
  if (info->gnode_pending) pending_.Delete(file_id, version).IgnoreError();
  statcache_.Remove(file_id);
  return result;
}

Result<VerifyReport> SlimStore::VerifyRepository() {
  obs::JobScope job("verify", "verify:repository", options_.tenant);
  GnodeGate gate(this);
  RepositoryVerifier verifier(&containers_, &recipes_, &global_index_,
                              &catalog_);
  return CloseJob(job, verifier.Verify());
}

Result<durability::ScrubReport> SlimStore::Scrub(bool repair) {
  obs::JobScope job("scrub", repair ? "scrub:repair" : "scrub:detect",
                    options_.tenant);
  GnodeGate gate(this);
  // The scrubber must see everything the catalog references, including
  // the global index's persisted runs — flush the memtable so a crash
  // after backup cannot hide redirects from loss analysis.
  SLIM_RETURN_IF_ERROR(global_index_.Flush());
  std::vector<durability::ScrubLiveVersion> live;
  for (const auto& fv : catalog_.LiveVersions()) {
    durability::ScrubLiveVersion v;
    v.file_id = fv.file_id;
    v.version = fv.version;
    if (auto info = catalog_.Get(fv.file_id, fv.version); info.has_value()) {
      v.referenced_containers.assign(info->referenced_containers.begin(),
                                     info->referenced_containers.end());
    }
    live.push_back(std::move(v));
  }
  durability::Scrubber scrubber(store_, &containers_, &recipes_,
                                &global_index_,
                                options_.durability.replicated,
                                options_.root, options_.durability.scrub);
  return CloseJob(job, scrubber.RunCycle(live, repair));
}

Status SlimStore::SaveState() {
  obs::JobScope job("state", "state:save", options_.tenant);
  GnodeGate gate(this);
  auto save = [&]() -> Status {
    SLIM_RETURN_IF_ERROR(
        similar_files_.Save(store_, options_.root + "/state/similar-index"));
    SLIM_RETURN_IF_ERROR(
        catalog_.Save(store_, options_.root + "/state/catalog"));
    SLIM_RETURN_IF_ERROR(
        statcache_.Save(store_, options_.root + "/state/statcache"));
    return global_index_.Flush();
  }();
  return CloseJob(job, std::move(save));
}

Status SlimStore::OpenExisting() {
  obs::JobScope job("state", "state:open", options_.tenant);
  GnodeGate gate(this);
  auto open = [&]() -> Status {
    SLIM_RETURN_IF_ERROR(
        similar_files_.Load(store_, options_.root + "/state/similar-index"));
    SLIM_RETURN_IF_ERROR(
        catalog_.Load(store_, options_.root + "/state/catalog"));
    // The statcache is optional (older checkpoints predate it) and
    // strictly a hint: missing means cold, never broken.
    Status sc = statcache_.Load(store_, options_.root + "/state/statcache");
    if (!sc.ok() && !sc.IsNotFound()) return sc;
    SLIM_RETURN_IF_ERROR(global_index_.Open());
    return containers_.RecoverNextId();
  }();
  return CloseJob(job, std::move(open));
}

Status SlimStore::Rebuild() {
  obs::JobScope job("state", "state:rebuild", options_.tenant);
  GnodeGate gate(this);
  auto rebuild = [&]() -> Status {
    // 1. Drop every process-local structure (rebuildable-state
    // contract, common/rebuildable.h). From here on, OSS is the only
    // source of truth.
    recipes_.DropLocalState();
    containers_.DropLocalState();
    similar_files_.DropLocalState();
    catalog_.DropLocalState();
    global_index_.DropLocalState();
    statcache_.DropLocalState();

    // 2. The recipe object is the commit point, so the recipe listing
    // IS the set of live versions. Re-derive the catalog row and the
    // similar-file-index registration of each exactly as the backup
    // pipeline would have.
    auto versions = recipes_.ListAllVersions();
    if (!versions.ok()) return versions.status();
    for (const auto& [file_id, version] : versions.value()) {
      auto recipe = recipes_.ReadRecipe(file_id, version);
      if (!recipe.ok()) return recipe.status();

      VersionInfo info;
      info.file_id = file_id;
      info.version = version;
      info.logical_bytes = recipe.value().LogicalBytes();
      info.referenced_containers =
          format::CollectReferencedContainers(recipe.value());
      // Pending flags are restored from durable pending records below;
      // a version without one has already been G-node-processed (or was
      // born processed via the statcache fast path).
      info.gnode_pending = false;
      catalog_.RecordBackup(std::move(info));

      std::vector<Fingerprint> samples;
      for (const auto& segment : recipe.value().segments) {
        for (const auto& record : segment.records) {
          if (format::IsSampleFingerprint(record.fp,
                                          options_.backup.sample_ratio)) {
            samples.push_back(record.fp);
          }
        }
      }
      similar_files_.AddFileVersion(file_id, version, samples);
    }

    // 3. Restore G-node worklists from durable pending records. A
    // record without a committed recipe is an orphan of a crashed
    // backup: delete it (its containers are swept in step 5).
    auto pendings = pending_.ListAll();
    if (!pendings.ok()) return pendings.status();
    for (const auto& rec : pendings.value()) {
      if (catalog_.Get(rec.file_id, rec.version).has_value()) {
        catalog_.SetGnodeWork(rec.file_id, rec.version, rec.new_containers,
                              rec.sparse_containers);
      } else {
        SLIM_RETURN_IF_ERROR(pending_.Delete(rec.file_id, rec.version));
      }
    }

    // 4. Recompute the precomputed garbage lists (§VI-B category 1)
    // between adjacent live versions: containers referenced by v_i but
    // not v_{i+1} are garbage charged to v_i. Category-2 garbage
    // (sparse containers compacted by already-completed cycles) is not
    // recoverable — mark-and-sweep GC still reclaims those containers.
    std::set<std::string> files;
    for (const auto& [file_id, version] : versions.value()) {
      files.insert(file_id);
    }
    for (const std::string& file_id : files) {
      std::vector<uint64_t> vs = catalog_.VersionsOf(file_id);
      for (size_t i = 0; i + 1 < vs.size(); ++i) {
        auto cur = catalog_.Get(file_id, vs[i]);
        auto next = catalog_.Get(file_id, vs[i + 1]);
        if (!cur.has_value() || !next.has_value()) continue;
        std::unordered_set<ContainerId> now(
            next->referenced_containers.begin(),
            next->referenced_containers.end());
        std::vector<ContainerId> dropped;
        for (ContainerId cid : cur->referenced_containers) {
          if (now.count(cid) == 0) dropped.push_back(cid);
        }
        catalog_.AddGarbage(file_id, vs[i], dropped);
      }
    }

    // 5. Sweep the debris of a crashed backup or SCC pass: containers
    // nothing references whose id is beyond the highest referenced id
    // (or ALL containers when no version committed — nothing can
    // legitimately exist yet). Unreferenced containers at or below the
    // high-water mark are ordinary precomputed garbage awaiting GC and
    // stay. Deleting the tail before recovering the id allocator lets
    // re-driven backups reuse the ids, converging on the exact bytes a
    // never-crashed run produces.
    std::unordered_set<ContainerId> referenced;
    ContainerId max_ref = 0;
    bool any_ref = false;
    for (const auto& fv : catalog_.LiveVersions()) {
      auto info = catalog_.Get(fv.file_id, fv.version);
      if (!info.has_value()) continue;
      for (ContainerId cid : info->referenced_containers) {
        referenced.insert(cid);
        max_ref = std::max(max_ref, cid);
        any_ref = true;
      }
    }
    auto ids = containers_.ListContainerIds();
    if (!ids.ok()) return ids.status();
    for (ContainerId id : ids.value()) {
      if (referenced.count(id) != 0) continue;
      if (any_ref && id <= max_ref) continue;
      SLIM_RETURN_IF_ERROR(containers_.Delete(id));
    }
    SLIM_RETURN_IF_ERROR(containers_.RecoverNextId());

    // 6. Reload the global index's persisted runs. Redirects that died
    // in the (WAL-less) memtable are re-derived when the restored
    // pending cycles re-run — SCC and reverse dedup re-assert their
    // index Puts idempotently.
    SLIM_RETURN_IF_ERROR(global_index_.Open());

    // 7. The statcache checkpoint may predate the crash by any amount:
    // reload it if present and keep only entries that still describe a
    // file's rebuilt latest version.
    Status sc = statcache_.Load(store_, options_.root + "/state/statcache");
    if (!sc.ok() && !sc.IsNotFound()) return sc;
    statcache_.RetainIf(
        [&](const std::string& file_id, const lnode::StatCache::Entry& e) {
          auto latest = similar_files_.LatestVersion(file_id);
          return latest.has_value() && *latest == e.version;
        });

    job.Annotate("versions", static_cast<double>(versions.value().size()));
    return Status::Ok();
  }();
  return CloseJob(job, std::move(rebuild));
}

Result<SpaceReport> SlimStore::GetSpaceReport() const {
  obs::JobScope job("space", "space:report", options_.tenant);
  auto result = [&]() -> Result<SpaceReport> {
    SpaceReport report;
    auto containers = oss::TotalBytesWithPrefix(
        *store_, options_.root + "/containers/data-");
    if (!containers.ok()) return containers.status();
    report.container_bytes = containers.value();

    auto metas = oss::TotalBytesWithPrefix(
        *store_, options_.root + "/containers/meta-");
    if (!metas.ok()) return metas.status();
    report.meta_bytes = metas.value();

    auto recipes =
        oss::TotalBytesWithPrefix(*store_, options_.root + "/recipes/");
    if (!recipes.ok()) return recipes.status();
    report.recipe_bytes = recipes.value();

    auto gindex =
        oss::TotalBytesWithPrefix(*store_, options_.root + "/gindex/");
    if (!gindex.ok()) return gindex.status();
    report.index_bytes = gindex.value();
    return report;
  }();
  return CloseJob(job, std::move(result));
}

std::string SlimStore::GetMetricsReport(obs::ExportFormat format) {
  return obs::RenderRegistry(format);
}

}  // namespace slim::core
