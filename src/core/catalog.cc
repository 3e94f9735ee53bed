#include "core/catalog.h"

#include <algorithm>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::core {

namespace {

void EncodeIds(std::string* out,
               const std::vector<format::ContainerId>& ids) {
  PutVarint64(out, ids.size());
  for (format::ContainerId id : ids) PutFixed64(out, id);
}

Status DecodeIds(Decoder* dec, std::vector<format::ContainerId>* ids) {
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec->ReadCount(&count, sizeof(uint64_t)));
  ids->clear();
  ids->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    SLIM_RETURN_IF_ERROR(dec->ReadFixed64(&id));
    ids->push_back(id);
  }
  return Status::Ok();
}

}  // namespace

void Catalog::RecordBackup(VersionInfo info) {
  MutexLock lock(mu_);
  Key key{info.file_id, info.version};
  versions_[key] = std::move(info);
}

void Catalog::AddNewContainers(const std::string& file_id, uint64_t version,
                               const std::vector<format::ContainerId>& ids) {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it == versions_.end()) return;
  it->second.new_containers.insert(it->second.new_containers.end(),
                                   ids.begin(), ids.end());
}

void Catalog::AddGarbage(const std::string& file_id, uint64_t version,
                         const std::vector<format::ContainerId>& ids) {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it == versions_.end()) return;
  auto& garbage = it->second.garbage_containers;
  garbage.insert(garbage.end(), ids.begin(), ids.end());
  // Idempotent under G-node retries: an interrupted cycle may re-add
  // the same sparse containers when it is re-run.
  std::sort(garbage.begin(), garbage.end());
  garbage.erase(std::unique(garbage.begin(), garbage.end()), garbage.end());
}

void Catalog::SetReferenced(const std::string& file_id, uint64_t version,
                            std::vector<format::ContainerId> ids) {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it == versions_.end()) return;
  it->second.referenced_containers = std::move(ids);
}

void Catalog::MarkGnodeDone(const std::string& file_id, uint64_t version) {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it != versions_.end()) it->second.gnode_pending = false;
}

void Catalog::Erase(const std::string& file_id, uint64_t version) {
  MutexLock lock(mu_);
  versions_.erase({file_id, version});
}

void Catalog::SetGnodeWork(
    const std::string& file_id, uint64_t version,
    std::vector<format::ContainerId> new_containers,
    std::vector<format::ContainerId> sparse_containers) {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it == versions_.end()) return;
  it->second.new_containers = std::move(new_containers);
  it->second.sparse_containers = std::move(sparse_containers);
  it->second.gnode_pending = true;
}

void Catalog::DropLocalState() {
  MutexLock lock(mu_);
  versions_.clear();
}

std::optional<VersionInfo> Catalog::Get(const std::string& file_id,
                                        uint64_t version) const {
  MutexLock lock(mu_);
  auto it = versions_.find({file_id, version});
  if (it == versions_.end()) return std::nullopt;
  return it->second;
}

std::vector<index::FileVersion> Catalog::LiveVersions() const {
  MutexLock lock(mu_);
  std::vector<index::FileVersion> out;
  out.reserve(versions_.size());
  for (const auto& [key, info] : versions_) {
    out.push_back(index::FileVersion{key.first, key.second});
  }
  return out;
}

std::vector<std::vector<format::ContainerId>>
Catalog::LiveReferencedSetsExcept(const std::string& file_id,
                                  uint64_t version) const {
  MutexLock lock(mu_);
  std::vector<std::vector<format::ContainerId>> out;
  for (const auto& [key, info] : versions_) {
    if (key.first == file_id && key.second == version) continue;
    out.push_back(info.referenced_containers);
  }
  return out;
}

std::vector<index::FileVersion> Catalog::GnodePending() const {
  MutexLock lock(mu_);
  std::vector<index::FileVersion> out;
  for (const auto& [key, info] : versions_) {
    if (info.gnode_pending) {
      out.push_back(index::FileVersion{key.first, key.second});
    }
  }
  return out;
}

std::vector<uint64_t> Catalog::VersionsOf(const std::string& file_id) const {
  MutexLock lock(mu_);
  std::vector<uint64_t> out;
  for (const auto& [key, info] : versions_) {
    if (key.first == file_id) out.push_back(key.second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Catalog::Save(oss::ObjectStore* store, const std::string& key) const {
  std::string out;
  {
    MutexLock lock(mu_);
    PutVarint64(&out, versions_.size());
    for (const auto& [k, info] : versions_) {
      PutLengthPrefixed(&out, info.file_id);
      PutFixed64(&out, info.version);
      PutFixed64(&out, info.logical_bytes);
      PutFixed32(&out, info.gnode_pending ? 1 : 0);
      EncodeIds(&out, info.new_containers);
      EncodeIds(&out, info.referenced_containers);
      EncodeIds(&out, info.garbage_containers);
      EncodeIds(&out, info.sparse_containers);
    }
  }
  return durability::PutWithFooter(*store, key, std::move(out),
                                   durability::Component::kState);
}

Status Catalog::Load(oss::ObjectStore* store, const std::string& key) {
  auto object =
      durability::GetVerified(*store, key, durability::Component::kState);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadVarint64(&count));
  std::map<Key, VersionInfo> loaded;
  for (uint64_t i = 0; i < count; ++i) {
    VersionInfo info;
    std::string_view file_id;
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&file_id));
    info.file_id = std::string(file_id);
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&info.version));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&info.logical_bytes));
    uint32_t pending = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&pending));
    info.gnode_pending = pending != 0;
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &info.new_containers));
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &info.referenced_containers));
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &info.garbage_containers));
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &info.sparse_containers));
    Key k{info.file_id, info.version};
    loaded.emplace(std::move(k), std::move(info));
  }
  MutexLock lock(mu_);
  versions_ = std::move(loaded);
  return Status::Ok();
}

}  // namespace slim::core
