#ifndef SLIMSTORE_GNODE_SCC_H_
#define SLIMSTORE_GNODE_SCC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "format/container.h"
#include "format/recipe.h"
#include "index/global_index.h"

namespace slim::gnode {

struct SccOptions {
  /// Capacity of the containers SCC packs moved chunks into.
  size_t container_capacity = 1 << 22;
  /// Sampling ratio used when rewriting the recipe's index.
  uint32_t sample_ratio = 32;
};

struct SccStats {
  uint64_t sparse_containers_processed = 0;
  uint64_t chunks_moved = 0;
  uint64_t bytes_moved = 0;
  uint64_t new_containers = 0;
  uint64_t bytes_reclaimed = 0;  // Freed in the compacted sparse sources.

  SccStats& operator+=(const SccStats& rhs) {
    sparse_containers_processed += rhs.sparse_containers_processed;
    chunks_moved += rhs.chunks_moved;
    bytes_moved += rhs.bytes_moved;
    new_containers += rhs.new_containers;
    bytes_reclaimed += rhs.bytes_reclaimed;
    return *this;
  }
};

/// Sparse container compaction (paper §V-B), run by G-node right after a
/// backup finishes. For the just-written version, the chunks it
/// references inside sparse containers (utilization below threshold, as
/// identified by the backup job) are copied together into fresh, dense
/// containers; the version's recipe is updated to point at them; the
/// source copies are deleted and the sparse containers compacted.
///
/// Unlike HAR, the benefit applies to the *current* version immediately,
/// and because the moved bytes are removed from the old containers, the
/// storage attributable to old versions shrinks over time (Fig 9b).
class SparseContainerCompactor {
 public:
  /// Source payloads the copy phase keeps for compaction (64 MiB at the
  /// default 4 MiB capacity). Compaction reads any further source again.
  static constexpr size_t kMaxRetainedPayloads = 16;

  SparseContainerCompactor(format::ContainerStore* containers,
                           format::RecipeStore* recipes,
                           index::GlobalIndex* global_index,
                           SccOptions options = {})
      : containers_(containers),
        recipes_(recipes),
        global_index_(global_index),
        options_(options) {}

  /// Compacts `sparse_containers` (from BackupStats::sparse_containers)
  /// for the given version. Appends ids of freshly written containers to
  /// `new_container_ids` if non-null (they join the version's container
  /// set). Unless `sparse_containers` is empty, sets `referenced` (if
  /// non-null) to the containers the version's durable recipe — the one
  /// read, or the one committed — references.
  Result<SccStats> Compact(
      const std::string& file_id, uint64_t version,
      const std::vector<format::ContainerId>& sparse_containers,
      std::vector<format::ContainerId>* new_container_ids = nullptr,
      std::vector<format::ContainerId>* referenced = nullptr);

 private:
  format::ContainerStore* containers_;
  format::RecipeStore* recipes_;
  index::GlobalIndex* global_index_;
  SccOptions options_;
};

}  // namespace slim::gnode

#endif  // SLIMSTORE_GNODE_SCC_H_
