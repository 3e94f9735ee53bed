#include "format/container.h"

#include <cinttypes>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::format {

namespace {
constexpr uint32_t kMetaMagic = 0x534c4d31;     // "SLM1"
constexpr uint32_t kPayloadMagic = 0x534c4432;  // "SLD2"
constexpr uint32_t kDeletedFlag = 1;
// Encoded ChunkLocation: fingerprint, offset, size, flags.
constexpr size_t kChunkLocationBytes = Fingerprint::kSize + 12;
}  // namespace

// ---------------------------------------------------------------------------
// ContainerMeta
// ---------------------------------------------------------------------------

std::string ContainerMeta::Encode() const {
  std::string out;
  PutFixed32(&out, kMetaMagic);
  PutFixed64(&out, id);
  PutFixed64(&out, data_size);
  PutFixed64(&out, payload_checksum);
  PutVarint64(&out, chunks.size());
  for (const auto& c : chunks) {
    PutFingerprint(&out, c.fp);
    PutFixed32(&out, c.offset);
    PutFixed32(&out, c.size);
    PutFixed32(&out, c.deleted ? kDeletedFlag : 0);
  }
  return out;
}

Status ContainerMeta::Decode(std::string_view data, ContainerMeta* out) {
  Decoder dec(data);
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kMetaMagic) {
    return Status::Corruption("container meta: bad magic");
  }
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&out->id));
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&out->data_size));
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&out->payload_checksum));
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, kChunkLocationBytes));
  out->chunks.clear();
  out->chunks.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ChunkLocation loc;
    uint32_t flags = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadFingerprint(&loc.fp));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&loc.offset));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&loc.size));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&flags));
    loc.deleted = (flags & kDeletedFlag) != 0;
    out->chunks.push_back(loc);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ContainerBuilder
// ---------------------------------------------------------------------------

bool ContainerBuilder::Add(const Fingerprint& fp, std::string_view data) {
  if (!meta_.chunks.empty() && payload_.size() + data.size() > capacity_) {
    return false;
  }
  ChunkLocation loc;
  loc.fp = fp;
  loc.offset = static_cast<uint32_t>(payload_.size());
  loc.size = static_cast<uint32_t>(data.size());
  meta_.chunks.push_back(loc);
  payload_.append(data.data(), data.size());
  return true;
}

void ContainerBuilder::Finish(std::string* payload, ContainerMeta* meta) {
  meta_.data_size = payload_.size();
  meta_.payload_checksum = Fnv1a64(payload_);
  *payload = std::move(payload_);
  *meta = std::move(meta_);
}

// ---------------------------------------------------------------------------
// Payload object (self-describing: directory + bytes)
// ---------------------------------------------------------------------------

std::string EncodeContainerPayload(const ContainerMeta& meta,
                                   std::string_view payload) {
  std::string out;
  PutFixed32(&out, kPayloadMagic);
  std::string dir = meta.Encode();
  PutLengthPrefixed(&out, dir);
  out.append(payload.data(), payload.size());
  return out;
}

namespace {
/// Parses the payload object structure without copying the chunk bytes
/// area (shared by the copying decode and the verified-directory fast
/// path).
Status DecodeContainerPayloadView(std::string_view object,
                                  ContainerMeta* meta,
                                  std::string_view* bytes) {
  Decoder dec(object);
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kPayloadMagic) {
    return Status::Corruption("container payload: bad magic");
  }
  std::string_view dir;
  SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&dir));
  SLIM_RETURN_IF_ERROR(ContainerMeta::Decode(dir, meta));
  SLIM_RETURN_IF_ERROR(dec.ReadBytes(dec.remaining(), bytes));
  if (bytes->size() != meta->data_size) {
    return Status::Corruption("container payload: truncated data area");
  }
  return Status::Ok();
}
}  // namespace

Status DecodeContainerPayload(std::string_view object, ContainerMeta* meta,
                              std::string* payload) {
  std::string_view bytes;
  SLIM_RETURN_IF_ERROR(DecodeContainerPayloadView(object, meta, &bytes));
  if (Fnv1a64(bytes) != meta->payload_checksum) {
    return Status::Corruption("container payload: checksum mismatch");
  }
  payload->assign(bytes.data(), bytes.size());
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ContainerStore
// ---------------------------------------------------------------------------

ContainerStore::ContainerStore(oss::ObjectStore* store, std::string prefix)
    : store_(store), prefix_(std::move(prefix)) {}

std::string ContainerStore::DataKey(ContainerId id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, id);
  return prefix_ + "/data-" + buf;
}

std::string ContainerStore::MetaKey(ContainerId id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, id);
  return prefix_ + "/meta-" + buf;
}

ContainerId ContainerStore::AllocateId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

Status ContainerStore::RecoverNextId() {
  auto ids = ListContainerIds();
  if (!ids.ok()) return ids.status();
  ContainerId next = 0;
  for (ContainerId id : ids.value()) next = std::max(next, id + 1);
  ContainerId current = next_id_.load(std::memory_order_relaxed);
  while (current < next && !next_id_.compare_exchange_weak(
                               current, next, std::memory_order_relaxed)) {
  }
  return Status::Ok();
}

Status ContainerStore::Write(ContainerBuilder&& builder) {
  std::string payload;
  ContainerMeta meta;
  builder.Finish(&payload, &meta);
  return WritePayloadAndMeta(std::move(payload), meta);
}

Status ContainerStore::WritePayloadAndMeta(std::string payload,
                                           const ContainerMeta& meta) {
  SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
      *store_, DataKey(meta.id), EncodeContainerPayload(meta, payload),
      durability::Component::kContainerData));
  Status meta_status =
      durability::PutWithFooter(*store_, MetaKey(meta.id), meta.Encode(),
                                durability::Component::kContainerMeta);
  if (!meta_status.ok()) {
    // A data object without its meta is invisible to every reader but
    // still occupies space; reclaim it best-effort so a failed write
    // leaves no trace.
    store_->Delete(DataKey(meta.id)).IgnoreError();
    return meta_status;
  }
  {
    MutexLock lock(count_mu_);
    chunk_counts_[meta.id] = meta.chunks.size();
  }
  return Status::Ok();
}

Result<size_t> ContainerStore::ChunkCount(ContainerId id) const {
  {
    MutexLock lock(count_mu_);
    auto it = chunk_counts_.find(id);
    if (it != chunk_counts_.end()) return it->second;
  }
  auto meta = ReadMeta(id);
  if (!meta.ok()) return meta.status();
  size_t count = meta.value().chunks.size();
  MutexLock lock(count_mu_);
  chunk_counts_[id] = count;
  return count;
}

std::optional<std::string_view> ContainerStore::LoadedContainer::GetChunk(
    const Fingerprint& fp) const {
  const ChunkLocation* loc = directory.Find(fp);
  if (loc == nullptr) return std::nullopt;
  if (loc->offset + loc->size > payload.size()) return std::nullopt;
  return std::string_view(payload).substr(loc->offset, loc->size);
}

Result<ContainerStore::LoadedContainer> ContainerStore::ReadContainer(
    ContainerId id) const {
  auto object = durability::GetVerified(
      *store_, DataKey(id), durability::Component::kContainerData);
  if (!object.ok()) return object.status();
  LoadedContainer loaded;
  SLIM_RETURN_IF_ERROR(DecodeContainerPayload(object.value(),
                                              &loaded.directory,
                                              &loaded.payload));
  return loaded;
}

Result<ContainerMeta> ContainerStore::ReadVerifiedDirectory(
    ContainerId id) const {
  auto object = durability::GetVerified(
      *store_, DataKey(id), durability::Component::kContainerData);
  if (!object.ok()) return object.status();
  ContainerMeta meta;
  std::string_view bytes;
  SLIM_RETURN_IF_ERROR(
      DecodeContainerPayloadView(object.value(), &meta, &bytes));
  // The CRC32C footer already covered every payload byte, so the
  // (weaker) FNV self-checksum pass is skipped and nothing is copied.
  return meta;
}

Result<ContainerMeta> ContainerStore::ReadMeta(ContainerId id) const {
  auto object = durability::GetVerified(
      *store_, MetaKey(id), durability::Component::kContainerMeta);
  if (!object.ok()) return object.status();
  ContainerMeta meta;
  SLIM_RETURN_IF_ERROR(ContainerMeta::Decode(object.value(), &meta));
  return meta;
}

Status ContainerStore::WriteMeta(const ContainerMeta& meta) {
  return durability::PutWithFooter(*store_, MetaKey(meta.id), meta.Encode(),
                                   durability::Component::kContainerMeta);
}

Result<uint64_t> ContainerStore::CompactContainer(
    const ContainerMeta& meta, const LoadedContainer* loaded) {
  std::optional<LoadedContainer> fetched;
  if (loaded == nullptr) {
    auto read = ReadContainer(meta.id);
    if (!read.ok()) return read.status();
    loaded = &fetched.emplace(std::move(read).value());
  }

  uint64_t before = loaded->payload.size();
  ContainerMeta compacted;
  compacted.id = meta.id;
  std::string payload;
  for (const ChunkLocation& loc : meta.chunks) {
    if (loc.deleted) continue;
    auto bytes = loaded->GetChunk(loc.fp);
    if (!bytes.has_value()) {
      return Status::Corruption("compaction: chunk missing from payload");
    }
    ChunkLocation out = loc;
    out.offset = static_cast<uint32_t>(payload.size());
    payload.append(bytes->data(), bytes->size());
    compacted.chunks.push_back(out);
  }
  compacted.data_size = payload.size();
  compacted.payload_checksum = Fnv1a64(payload);
  SLIM_RETURN_IF_ERROR(
      WritePayloadAndMeta(std::move(payload), compacted));
  return before - compacted.data_size;
}

Status ContainerStore::Delete(ContainerId id) {
  SLIM_RETURN_IF_ERROR(store_->Delete(DataKey(id)));
  SLIM_RETURN_IF_ERROR(store_->Delete(MetaKey(id)));
  MutexLock lock(count_mu_);
  chunk_counts_.erase(id);
  return Status::Ok();
}

Result<bool> ContainerStore::Exists(ContainerId id) const {
  return store_->Exists(DataKey(id));
}

Result<std::vector<ContainerId>> ContainerStore::ListContainerIds() const {
  auto keys = store_->List(prefix_ + "/data-");
  if (!keys.ok()) return keys.status();
  std::vector<ContainerId> ids;
  ids.reserve(keys.value().size());
  for (const auto& key : keys.value()) {
    ids.push_back(std::stoull(key.substr(key.rfind('-') + 1)));
  }
  return ids;
}

Result<uint64_t> ContainerStore::TotalStoredBytes() const {
  return oss::TotalBytesWithPrefix(*store_, prefix_ + "/data-");
}

void ContainerStore::DropLocalState() {
  next_id_.store(0, std::memory_order_relaxed);
  MutexLock lock(count_mu_);
  chunk_counts_.clear();
}

}  // namespace slim::format
