#include "gnode/scc.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace slim::gnode {

using format::ChunkRecord;
using format::ContainerBuilder;
using format::ContainerId;
using format::ContainerMeta;

// Failure-atomicity structure (exercised by the fault-injection sweep):
//
//   1. Copy phase: wanted chunks are copied into fresh containers. No
//      existing object is modified, so on failure the new containers
//      are deleted (best effort) and the repository is exactly as
//      before — the caller can retry from scratch.
//   2. Commit point: the rewritten recipe is Put. Before it lands the
//      old layout is authoritative; after it lands the new one is.
//   3. Roll-forward: tombstoning of the source copies, global-index
//      redirects and physical compaction are all *derived from durable
//      state* (the recipe and the container metas), never from in-core
//      bookkeeping of this run. A retry after a mid-roll-forward
//      failure recomputes the remaining work from what it reads and
//      finishes it, so repeated Compact calls converge to the same
//      final layout as an uninterrupted run.
//
// Each object is read once per call: compaction reuses the payloads the
// copy phase verified (up to kMaxRetainedPayloads) and the metas the
// roll-forward read and wrote. Neither changes in between: the G-node
// gate keeps every other writer of existing containers out.
Result<SccStats> SparseContainerCompactor::Compact(
    const std::string& file_id, uint64_t version,
    const std::vector<ContainerId>& sparse_containers,
    std::vector<ContainerId>* new_container_ids,
    std::vector<ContainerId>* referenced) {
  SccStats stats;
  if (sparse_containers.empty()) return stats;
  obs::Span span("gnode.scc.compact");

  auto recipe = recipes_->ReadRecipe(file_id, version);
  if (!recipe.ok()) return recipe.status();

  // Deterministic iteration order: the caller's order, duplicates
  // dropped. (An unordered_map walk here would make the packing of
  // moved chunks — and thus the injected-fault schedule in tests —
  // depend on hash seeding.)
  std::vector<ContainerId> sources;
  std::unordered_set<ContainerId> sparse;
  for (ContainerId cid : sparse_containers) {
    if (sparse.insert(cid).second) sources.push_back(cid);
  }

  // Which physical chunks of each sparse container does this version
  // use? (Flatten expands logical superchunks into constituents.)
  std::unordered_map<ContainerId, std::vector<Fingerprint>> wanted;
  std::unordered_set<Fingerprint> seen;
  for (const auto& record : recipe.value().Flatten()) {
    if (sparse.count(record.container_id) == 0) continue;
    if (!seen.insert(record.fp).second) continue;
    wanted[record.container_id].push_back(record.fp);
  }

  // --- Copy phase -------------------------------------------------------
  // Move the wanted chunks into fresh, dense containers. Source
  // payloads and metas are NOT touched, so concurrent restores keep
  // working and a failure can be rolled back completely.
  std::unordered_map<Fingerprint, ContainerId> moved;
  std::unordered_map<ContainerId, format::ContainerStore::LoadedContainer>
      payloads;
  std::vector<ContainerId> created;
  std::optional<ContainerBuilder> builder;
  auto flush_builder = [&]() -> Status {
    if (!builder.has_value() || builder->empty()) return Status::Ok();
    ContainerId id = builder->id();
    SLIM_RETURN_IF_ERROR(containers_->Write(std::move(*builder)));
    builder.reset();
    created.push_back(id);
    return Status::Ok();
  };
  // Undoes the copy phase: removes every freshly written container.
  // Cleanup is best-effort — a leftover unreferenced container wastes
  // space but is invisible to reads and will be recopied on retry.
  auto rollback = [&]() {
    for (ContainerId id : created) {
      containers_->Delete(id).IgnoreError();
    }
  };
  auto copy_phase = [&]() -> Status {
    for (ContainerId cid : sources) {
      auto it = wanted.find(cid);
      if (it == wanted.end()) continue;
      auto loaded = containers_->ReadContainer(cid);
      if (!loaded.ok()) return loaded.status();
      for (const Fingerprint& fp : it->second) {
        auto bytes = loaded.value().GetChunk(fp);
        if (!bytes.has_value()) continue;  // Already moved previously.
        if (!builder.has_value()) {
          builder.emplace(containers_->AllocateId(),
                          options_.container_capacity);
        }
        if (!builder->Add(fp, *bytes)) {
          SLIM_RETURN_IF_ERROR(flush_builder());
          builder.emplace(containers_->AllocateId(),
                          options_.container_capacity);
          SLIM_CHECK(builder->Add(fp, *bytes));
        }
        moved[fp] = builder->id();
        ++stats.chunks_moved;
        stats.bytes_moved += bytes->size();
      }
      if (payloads.size() < kMaxRetainedPayloads) {
        payloads.emplace(cid, std::move(loaded).value());
      }
    }
    return flush_builder();
  };
  {
    Status copied = copy_phase();
    if (!copied.ok()) {
      rollback();
      return copied;
    }
  }

  // --- Commit point -----------------------------------------------------
  // Rewrite the recipe so this version's restore sees the dense layout.
  // Superchunk constituents are shared immutable vectors: copy-on-write
  // when any of their records moved.
  format::Recipe updated = std::move(recipe).value();
  if (!moved.empty()) {
    for (auto& segment : updated.segments) {
      for (auto& record : segment.records) {
        auto it = moved.find(record.fp);
        if (it != moved.end()) record.container_id = it->second;
        if (record.is_superchunk && record.constituents != nullptr) {
          bool any_moved = false;
          for (const auto& constituent : *record.constituents) {
            if (moved.count(constituent.fp) > 0) {
              any_moved = true;
              break;
            }
          }
          if (any_moved) {
            auto rewritten =
                std::make_shared<std::vector<format::ChunkRecord>>(
                    *record.constituents);
            for (auto& constituent : *rewritten) {
              auto mit = moved.find(constituent.fp);
              if (mit != moved.end()) constituent.container_id = mit->second;
            }
            record.constituents = std::move(rewritten);
          }
        }
      }
    }
    Status committed = recipes_->WriteRecipe(updated, options_.sample_ratio);
    if (!committed.ok()) {
      rollback();
      return committed;
    }
  }
  // The new containers are durable and referenced: report them.
  if (new_container_ids != nullptr) {
    new_container_ids->insert(new_container_ids->end(), created.begin(),
                              created.end());
  }
  stats.new_containers += created.size();
  if (referenced != nullptr) {
    *referenced = format::CollectReferencedContainers(updated);
  }

  // --- Roll-forward -----------------------------------------------------
  // Where does the (now durable) recipe place each chunk it references?
  // First placement wins, matching Flatten order.
  std::unordered_map<Fingerprint, ContainerId> recipe_loc;
  for (const auto& record : updated.Flatten()) {
    recipe_loc.emplace(record.fp, record.container_id);
  }

  // Tombstone every live source copy the recipe has abandoned and
  // redirect the global index at the surviving copy, so older versions
  // chasing a moved chunk find it. Derived purely from recipe + metas:
  // a retry resumes here even when the copy phase had nothing to do.
  std::vector<ContainerMeta> to_compact;
  for (ContainerId cid : sources) {
    auto meta = containers_->ReadMeta(cid);
    if (!meta.ok()) return meta.status();
    bool changed = false;
    for (format::ChunkLocation& loc : meta.value().chunks) {
      auto it = recipe_loc.find(loc.fp);
      if (it == recipe_loc.end() || it->second == cid) continue;
      // Re-assert the redirect even when the tombstone is already
      // durable: a crash can persist WriteMeta while the index Put dies
      // with the (WAL-less) memtable, and compaction below must never
      // outrun a durable redirect.
      if (global_index_ != nullptr) {
        SLIM_RETURN_IF_ERROR(global_index_->Put(loc.fp, it->second));
      }
      if (!loc.deleted) {
        loc.deleted = true;
        changed = true;
      }
    }
    if (changed) {
      SLIM_RETURN_IF_ERROR(containers_->WriteMeta(meta.value()));
      ++stats.sparse_containers_processed;
    }
    if (meta.value().DeletedCount() > 0) {
      to_compact.push_back(std::move(meta).value());
    }
  }
  if (global_index_ != nullptr) {
    SLIM_RETURN_IF_ERROR(global_index_->Flush());
  }

  // Physically drop the tombstoned bytes. Only now that the new copies,
  // the updated recipe and the index redirects are all durable can a
  // chunk never be observed as both compacted-away and unredirected.
  for (const ContainerMeta& meta : to_compact) {
    auto held = payloads.find(meta.id);
    auto reclaimed = containers_->CompactContainer(
        meta, held == payloads.end() ? nullptr : &held->second);
    if (!reclaimed.ok()) return reclaimed.status();
    stats.bytes_reclaimed += reclaimed.value();
  }

  auto& reg = obs::MetricsRegistry::Get();
  reg.counter("gnode.scc.runs").Inc();
  reg.counter("gnode.scc.sparse_processed")
      .Inc(stats.sparse_containers_processed);
  reg.counter("gnode.scc.chunks_moved").Inc(stats.chunks_moved);
  reg.counter("gnode.scc.bytes_moved").Inc(stats.bytes_moved);
  reg.counter("gnode.scc.new_containers").Inc(stats.new_containers);
  reg.counter("gnode.scc.bytes_reclaimed").Inc(stats.bytes_reclaimed);
  return stats;
}

}  // namespace slim::gnode
