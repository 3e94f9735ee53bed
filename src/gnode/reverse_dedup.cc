#include "gnode/reverse_dedup.h"

#include <unordered_map>

#include "common/macros.h"
#include "obs/trace.h"

namespace slim::gnode {

using format::ContainerId;
using format::ContainerMeta;

Result<ReverseDedupStats> ReverseDeduplicator::ProcessNewContainers(
    const std::vector<ContainerId>& new_containers) {
  ReverseDedupStats stats;
  obs::Span span("gnode.rd.process");

  // Meta cache for tombstoned old containers: exploits the physical
  // locality the paper points out — once one duplicate lands in an old
  // container, its neighbors likely do too.
  std::unordered_map<ContainerId, ContainerMeta> dirty_metas;

  auto get_meta = [&](ContainerId cid) -> Result<ContainerMeta*> {
    auto it = dirty_metas.find(cid);
    if (it != dirty_metas.end()) {
      ++stats.meta_cache_hits;
      return &it->second;
    }
    auto meta = containers_->ReadMeta(cid);
    if (!meta.ok()) return meta.status();
    auto [ins, _] = dirty_metas.emplace(cid, std::move(meta).value());
    return &ins->second;
  };

  for (ContainerId cid : new_containers) {
    auto meta = containers_->ReadMeta(cid);
    if (!meta.ok()) return meta.status();
    for (const format::ChunkLocation& loc : meta.value().chunks) {
      ++stats.chunks_filtered;
      // Fast path: a bloom negative proves the chunk is globally new.
      if (!global_index_->MayContain(loc.fp)) {
        ++stats.bloom_negatives;
        SLIM_RETURN_IF_ERROR(global_index_->Put(loc.fp, cid));
        ++stats.index_inserts;
        continue;
      }
      auto existing = global_index_->Get(loc.fp);
      if (!existing.ok()) {
        if (!existing.status().IsNotFound()) return existing.status();
        // Bloom false positive: genuinely new.
        SLIM_RETURN_IF_ERROR(global_index_->Put(loc.fp, cid));
        ++stats.index_inserts;
        continue;
      }
      ContainerId old_cid = existing.value();
      if (old_cid == cid) continue;  // Re-run of the same batch.
      // Duplicate the online path missed: delete the OLDER copy (lower
      // container id), keep the newer version's layout intact. Choosing
      // deterministically by id matters when both copies are in the
      // current batch (e.g. one stored by the backup, one moved by SCC):
      // it prevents tombstoning both.
      ContainerId keep = std::max(cid, old_cid);
      ContainerId drop = std::min(cid, old_cid);
      auto drop_meta = get_meta(drop);
      if (!drop_meta.ok()) return drop_meta.status();
      for (format::ChunkLocation& drop_loc : (*drop_meta.value()).chunks) {
        if (drop_loc.fp == loc.fp && !drop_loc.deleted) {
          drop_loc.deleted = true;
          ++stats.duplicates_found;
          break;
        }
      }
      SLIM_RETURN_IF_ERROR(global_index_->Put(loc.fp, keep));
    }
  }

  // Write back tombstoned metas; rewrite containers that crossed the
  // deleted-fraction threshold.
  for (auto& [cid, meta] : dirty_metas) {
    SLIM_RETURN_IF_ERROR(containers_->WriteMeta(meta));
    if (meta.DeletedFraction() > options_.rewrite_threshold) {
      auto reclaimed = containers_->CompactContainer(meta);
      if (!reclaimed.ok()) return reclaimed.status();
      stats.bytes_reclaimed += reclaimed.value();
      ++stats.containers_rewritten;
    }
  }

  SLIM_RETURN_IF_ERROR(global_index_->Flush());

  auto& reg = obs::MetricsRegistry::Get();
  reg.counter("gnode.rd.runs").Inc();
  reg.counter("gnode.rd.chunks_filtered").Inc(stats.chunks_filtered);
  reg.counter("gnode.rd.bloom_negatives").Inc(stats.bloom_negatives);
  reg.counter("gnode.rd.duplicates_found").Inc(stats.duplicates_found);
  reg.counter("gnode.rd.index_inserts").Inc(stats.index_inserts);
  reg.counter("gnode.rd.containers_rewritten").Inc(stats.containers_rewritten);
  reg.counter("gnode.rd.bytes_reclaimed").Inc(stats.bytes_reclaimed);
  return stats;
}

}  // namespace slim::gnode
