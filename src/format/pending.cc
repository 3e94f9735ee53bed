#include "format/pending.h"

#include <cinttypes>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"
#include "format/recipe.h"

namespace slim::format {

namespace {

constexpr uint32_t kPendingMagic = 0x534c5031;  // "SLP1"

void EncodeIds(std::string* out, const std::vector<ContainerId>& ids) {
  PutVarint64(out, ids.size());
  for (ContainerId id : ids) PutFixed64(out, id);
}

Status DecodeIds(Decoder* dec, std::vector<ContainerId>* ids) {
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

PendingStore::PendingStore(oss::ObjectStore* store, std::string prefix)
    : store_(store), prefix_(std::move(prefix)) {}

std::string PendingStore::KeyOf(const std::string& file_id,
                                uint64_t version) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012" PRIu64, version);
  return prefix_ + "/" + EscapeFileId(file_id) + "/" + buf;
}

Status PendingStore::Write(const PendingRecord& record) {
  std::string out;
  PutFixed32(&out, kPendingMagic);
  PutLengthPrefixed(&out, record.file_id);
  PutFixed64(&out, record.version);
  EncodeIds(&out, record.new_containers);
  EncodeIds(&out, record.sparse_containers);
  return durability::PutWithFooter(*store_,
                                   KeyOf(record.file_id, record.version),
                                   std::move(out),
                                   durability::Component::kState);
}

Result<PendingRecord> PendingStore::Read(const std::string& file_id,
                                         uint64_t version) const {
  auto object = durability::GetVerified(*store_, KeyOf(file_id, version),
                                        durability::Component::kState);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kPendingMagic) {
    return Status::Corruption("pending record: bad magic");
  }
  PendingRecord record;
  std::string_view id;
  SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&id));
  record.file_id = std::string(id);
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&record.version));
  SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &record.new_containers));
  SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &record.sparse_containers));
  return record;
}

Status PendingStore::Delete(const std::string& file_id, uint64_t version) {
  return store_->Delete(KeyOf(file_id, version));
}

Result<bool> PendingStore::Exists(const std::string& file_id,
                                  uint64_t version) const {
  return store_->Exists(KeyOf(file_id, version));
}

Result<std::vector<PendingRecord>> PendingStore::ListAll() const {
  auto keys = store_->List(prefix_ + "/");
  if (!keys.ok()) return keys.status();
  std::vector<PendingRecord> out;
  out.reserve(keys.value().size());
  for (const auto& key : keys.value()) {
    auto object = durability::GetVerified(*store_, key,
                                          durability::Component::kState);
    if (!object.ok()) return object.status();
    Decoder dec(object.value());
    uint32_t magic = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
    if (magic != kPendingMagic) {
      return Status::Corruption("pending record: bad magic");
    }
    PendingRecord record;
    std::string_view id;
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&id));
    record.file_id = std::string(id);
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&record.version));
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &record.new_containers));
    SLIM_RETURN_IF_ERROR(DecodeIds(&dec, &record.sparse_containers));
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace slim::format
