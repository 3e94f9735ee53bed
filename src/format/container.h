#ifndef SLIMSTORE_FORMAT_CONTAINER_H_
#define SLIMSTORE_FORMAT_CONTAINER_H_

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/status.h"
#include "format/chunk.h"
#include "oss/object_store.h"

namespace slim::format {

/// Location of one chunk inside a container's payload.
struct ChunkLocation {
  Fingerprint fp;
  uint32_t offset = 0;
  uint32_t size = 0;
  /// Tombstone set by G-node reverse deduplication. The bytes remain in
  /// the payload until the container is compacted.
  bool deleted = false;
};

/// Per-container metadata kept as a separate (small) OSS object so
/// G-node can tombstone chunks and track utilization without rewriting
/// the container payload (paper §VI-A).
struct ContainerMeta {
  ContainerId id = kInvalidContainerId;
  std::vector<ChunkLocation> chunks;
  uint64_t data_size = 0;
  /// FNV-1a of the payload; verified on read to detect corruption.
  uint64_t payload_checksum = 0;

  size_t DeletedCount() const {
    size_t n = 0;
    for (const auto& c : chunks) n += c.deleted ? 1 : 0;
    return n;
  }
  /// Fraction of chunks tombstoned by reverse dedup ("stale chunks").
  double DeletedFraction() const {
    return chunks.empty()
               ? 0.0
               : static_cast<double>(DeletedCount()) /
                     static_cast<double>(chunks.size());
  }

  const ChunkLocation* Find(const Fingerprint& fp) const {
    for (const auto& c : chunks) {
      if (c.fp == fp) return &c;
    }
    return nullptr;
  }

  std::string Encode() const;
  static Status Decode(std::string_view data, ContainerMeta* out);
};

/// Accumulates unique chunks until the container reaches capacity. The
/// basic storage/access unit of backup data (paper §III-B): whole
/// containers are what restore fetches from OSS, giving rise to the
/// physical locality every cache policy exploits.
class ContainerBuilder {
 public:
  ContainerBuilder(ContainerId id, size_t capacity_bytes)
      : capacity_(capacity_bytes) {
    meta_.id = id;
  }

  /// Appends a chunk if it fits. Returns false (and leaves the builder
  /// unchanged) when adding would exceed capacity and the container
  /// already holds at least one chunk.
  bool Add(const Fingerprint& fp, std::string_view data);

  bool empty() const { return meta_.chunks.empty(); }
  size_t payload_size() const { return payload_.size(); }
  size_t chunk_count() const { return meta_.chunks.size(); }
  ContainerId id() const { return meta_.id; }

  /// Finalizes checksum and releases the payload + meta pair.
  void Finish(std::string* payload, ContainerMeta* meta);

 private:
  size_t capacity_;
  std::string payload_;
  ContainerMeta meta_;
};

/// Container store over OSS. Each container is two objects:
/// "<prefix>/data-<id>" (self-describing payload: directory + bytes) and
/// "<prefix>/meta-<id>" (the mutable ContainerMeta).
class ContainerStore {
 public:
  /// `store` must outlive this object.
  ContainerStore(oss::ObjectStore* store, std::string prefix);

  /// Reserves a fresh container id (process-unique, monotonically
  /// increasing; ids order containers by creation time, which the
  /// new-version/old-version distinction of SCC and reverse dedup uses).
  ContainerId AllocateId();

  /// Scans existing containers and advances the id allocator past them
  /// (reopening an existing store).
  Status RecoverNextId();

  /// Persists a finished builder (payload + meta objects).
  Status Write(ContainerBuilder&& builder);
  Status WritePayloadAndMeta(std::string payload, const ContainerMeta& meta);

  /// Fetches the full payload object *including* its directory header,
  /// verifies the checksum, and returns the parsed directory plus the
  /// raw chunk bytes area. One OSS GET.
  struct LoadedContainer {
    ContainerMeta directory;
    std::string payload;  // Chunk bytes only (header stripped).

    /// Bytes of the chunk with this fingerprint, or nullopt if absent
    /// (e.g. compacted away).
    std::optional<std::string_view> GetChunk(const Fingerprint& fp) const;
  };
  Result<LoadedContainer> ReadContainer(ContainerId id) const;

  /// Checksum-footer fast path shared by the verifier and the
  /// durability scrubber: one OSS GET, CRC32C footer verification over
  /// the whole object, directory decoded in place — the payload is
  /// never copied out. Proves the object byte-intact and returns its
  /// directory.
  Result<ContainerMeta> ReadVerifiedDirectory(ContainerId id) const;

  /// Reads only the (small) mutable meta object.
  Result<ContainerMeta> ReadMeta(ContainerId id) const;
  /// Overwrites the meta object (tombstone updates).
  Status WriteMeta(const ContainerMeta& meta);

  /// Rewrites container `meta.id` without the chunks `meta` tombstones;
  /// offsets are recomputed and both objects replaced. `meta` must be
  /// the durable meta object, typically the one the caller just wrote.
  /// `loaded` is the container's verified payload when the caller
  /// already holds it; without it the payload is read here. Returns the
  /// reclaimed bytes.
  Result<uint64_t> CompactContainer(const ContainerMeta& meta,
                                    const LoadedContainer* loaded = nullptr);

  /// Total chunk count of a container, served from an in-memory cache
  /// when possible (populated on writes and reads). Sparse-container
  /// detection calls this once per referenced container per backup, so
  /// avoiding an OSS meta read each time matters.
  Result<size_t> ChunkCount(ContainerId id) const;

  Status Delete(ContainerId id);
  Result<bool> Exists(ContainerId id) const;

  Result<std::vector<ContainerId>> ListContainerIds() const;
  /// Total payload-object bytes currently stored (space accounting).
  Result<uint64_t> TotalStoredBytes() const;

  /// Rebuildable-state contract: reset the chunk-count cache and the id
  /// allocator. Follow with RecoverNextId() once the durable container
  /// set is settled.
  void DropLocalState();

  oss::ObjectStore* object_store() const { return store_; }
  const std::string& prefix() const { return prefix_; }

  /// Object keys (exposed for the durability scrubber's work list).
  std::string DataObjectKey(ContainerId id) const { return DataKey(id); }
  std::string MetaObjectKey(ContainerId id) const { return MetaKey(id); }

 private:
  std::string DataKey(ContainerId id) const;
  std::string MetaKey(ContainerId id) const;

  // Not SLIM_PT_GUARDED_BY(count_mu_): the store locks for itself and
  // container I/O runs concurrently; count_mu_ only covers the
  // chunk-count cache below.
  oss::ObjectStore* store_;
  std::string prefix_;
  std::atomic<ContainerId> next_id_{0};

  mutable Mutex count_mu_{"format.container_count"};
  mutable std::unordered_map<ContainerId, size_t> chunk_counts_
      SLIM_GUARDED_BY(count_mu_);
};

/// Serializes a self-describing payload object (directory + bytes).
std::string EncodeContainerPayload(const ContainerMeta& meta,
                                   std::string_view payload);
/// Parses a payload object produced by EncodeContainerPayload.
Status DecodeContainerPayload(std::string_view object, ContainerMeta* meta,
                              std::string* payload);

}  // namespace slim::format

#endif  // SLIMSTORE_FORMAT_CONTAINER_H_
