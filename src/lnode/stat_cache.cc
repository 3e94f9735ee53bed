#include "lnode/stat_cache.h"

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::lnode {

namespace {
constexpr uint32_t kStatCacheMagic = 0x534c5331;  // "SLS1"
}  // namespace

void StatCache::Update(const std::string& file_id, const Entry& entry) {
  MutexLock lock(mu_);
  entries_[file_id] = entry;
}

std::optional<StatCache::Entry> StatCache::Get(
    const std::string& file_id) const {
  MutexLock lock(mu_);
  auto it = entries_.find(file_id);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void StatCache::Remove(const std::string& file_id) {
  MutexLock lock(mu_);
  entries_.erase(file_id);
}

void StatCache::RetainIf(
    const std::function<bool(const std::string&, const Entry&)>& pred) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (pred(it->first, it->second)) {
      ++it;
    } else {
      it = entries_.erase(it);
    }
  }
}

size_t StatCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

Status StatCache::Save(oss::ObjectStore* store,
                       const std::string& key) const {
  std::string out;
  {
    MutexLock lock(mu_);
    PutFixed32(&out, kStatCacheMagic);
    PutVarint64(&out, entries_.size());
    for (const auto& [file_id, entry] : entries_) {
      PutLengthPrefixed(&out, file_id);
      PutFixed64(&out, entry.size);
      PutFixed64(&out, entry.mtime_ns);
      PutFingerprint(&out, entry.content);
      PutFixed64(&out, entry.version);
    }
  }
  return durability::PutWithFooter(*store, key, std::move(out),
                                   durability::Component::kState);
}

Status StatCache::Load(oss::ObjectStore* store, const std::string& key) {
  auto object =
      durability::GetVerified(*store, key, durability::Component::kState);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kStatCacheMagic) {
    return Status::Corruption("statcache: bad magic");
  }
  uint64_t count = 0;
  // Smallest entry: an empty file id's length byte, size, mtime, content
  // fingerprint and version.
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, 1 + 24 + Fingerprint::kSize));
  decltype(entries_) loaded;
  loaded.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view file_id;
    Entry entry;
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&file_id));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&entry.size));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&entry.mtime_ns));
    SLIM_RETURN_IF_ERROR(dec.ReadFingerprint(&entry.content));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&entry.version));
    loaded.emplace(std::string(file_id), entry);
  }
  MutexLock lock(mu_);
  entries_ = std::move(loaded);
  return Status::Ok();
}

void StatCache::DropLocalState() {
  MutexLock lock(mu_);
  entries_.clear();
}

}  // namespace slim::lnode
