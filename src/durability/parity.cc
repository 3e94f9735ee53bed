#include "durability/parity.h"

#include <algorithm>
#include <cinttypes>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::durability {

namespace {
constexpr uint32_t kParityMagic = 0x534c5047;  // "GPLS" LE ("SLPG").

void XorInto(std::string* acc, std::string_view bytes) {
  if (acc->size() < bytes.size()) acc->resize(bytes.size(), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    (*acc)[i] = static_cast<char>(static_cast<uint8_t>((*acc)[i]) ^
                                  static_cast<uint8_t>(bytes[i]));
  }
}
}  // namespace

ParityManager::ParityManager(oss::ObjectStore* store, std::string prefix,
                             uint32_t group_size)
    : store_(store),
      prefix_(std::move(prefix)),
      group_size_(std::max<uint32_t>(group_size, 2)) {}

std::string ParityManager::KeyFor(uint64_t group) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020" PRIu64, group);
  return prefix_ + "/parity-" + buf;
}

Status ParityManager::BuildGroup(uint64_t group,
                                 const std::vector<std::string>& member_keys) {
  ParityGroup pg;
  pg.group = group;
  std::string parity;
  for (const std::string& key : member_keys) {
    // Raw member bytes (their own footer included): reconstruction must
    // reproduce the object verbatim. Integrity is pinned by the
    // manifest CRC below, not by a footer on the slice.
    auto object = store_->Get(key);  // lint:allow-unverified-read
    if (!object.ok()) return object.status();
    if (!HasValidFooter(object.value())) {
      return Status::FailedPrecondition(
          "parity build over corrupt member: " + key);
    }
    ParityMember member;
    member.key = key;
    member.length = object.value().size();
    member.crc = Crc32c(object.value());
    pg.members.push_back(std::move(member));
    XorInto(&parity, object.value());
  }

  std::string out;
  PutFixed32(&out, kParityMagic);
  PutFixed64(&out, group);
  PutVarint64(&out, pg.members.size());
  for (const ParityMember& member : pg.members) {
    PutLengthPrefixed(&out, member.key);
    PutFixed64(&out, member.length);
    PutFixed32(&out, member.crc);
  }
  PutFixed64(&out, parity.size());
  out += parity;
  return PutWithFooter(*store_, KeyFor(group), std::move(out),
                       Component::kParity);
}

Result<ParityGroup> ParityManager::ReadGroup(uint64_t group) const {
  auto object = GetVerified(*store_, KeyFor(group), Component::kParity);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kParityMagic) return Status::Corruption("parity group magic");
  ParityGroup pg;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&pg.group));
  uint64_t count = 0;
  // Smallest member: an empty key's length byte, length and CRC.
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, 1 + 8 + 4));
  pg.members.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ParityMember member;
    std::string_view key;
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&key));
    member.key = std::string(key);
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&member.length));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&member.crc));
    pg.members.push_back(std::move(member));
  }
  uint64_t parity_len = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&parity_len));
  std::string_view parity;
  SLIM_RETURN_IF_ERROR(dec.ReadBytes(parity_len, &parity));
  pg.parity.assign(parity.data(), parity.size());
  return pg;
}

Result<std::string> ParityManager::Reconstruct(uint64_t group,
                                               const std::string& lost_key) {
  auto pg = ReadGroup(group);
  if (!pg.ok()) return pg.status();

  const ParityMember* lost = nullptr;
  for (const ParityMember& member : pg.value().members) {
    if (member.key == lost_key) lost = &member;
  }
  if (lost == nullptr) {
    return Status::NotFound("parity group " + std::to_string(group) +
                            " has no member " + lost_key);
  }

  std::string bytes = std::move(pg.value().parity);
  for (const ParityMember& member : pg.value().members) {
    if (member.key == lost_key) continue;
    // Raw sibling bytes; verified against the manifest CRC right below.
    auto sibling = store_->Get(member.key);  // lint:allow-unverified-read
    if (!sibling.ok()) {
      return Status::FailedPrecondition(
          "parity reconstruction needs sibling " + member.key + ": " +
          sibling.status().ToString());
    }
    if (sibling.value().size() != member.length ||
        Crc32c(sibling.value()) != member.crc) {
      return Status::FailedPrecondition(
          "parity group stale: sibling changed since build: " + member.key);
    }
    XorInto(&bytes, sibling.value());
  }
  if (bytes.size() < lost->length) {
    return Status::Corruption("parity shorter than lost member");
  }
  bytes.resize(lost->length);
  if (Crc32c(bytes) != lost->crc) {
    return Status::Corruption(
        "parity reconstruction failed CRC for " + lost_key);
  }
  return bytes;
}

Result<bool> ParityManager::IsFresh(
    uint64_t group, const std::vector<std::string>& member_keys) const {
  auto pg = ReadGroup(group);
  if (!pg.ok()) {
    // Absent or corrupt parity is simply "not fresh" (rebuild it); only
    // infrastructure errors propagate.
    if (pg.status().code() == StatusCode::kNotFound ||
        pg.status().code() == StatusCode::kCorruption) {
      return false;
    }
    return pg.status();
  }
  if (pg.value().members.size() != member_keys.size()) return false;
  for (size_t i = 0; i < member_keys.size(); ++i) {
    const ParityMember& member = pg.value().members[i];
    if (member.key != member_keys[i]) return false;
    auto object = store_->Get(member.key);  // lint:allow-unverified-read
    if (!object.ok()) {
      if (object.status().code() == StatusCode::kNotFound) return false;
      return object.status();
    }
    if (object.value().size() != member.length ||
        Crc32c(object.value()) != member.crc) {
      return false;
    }
  }
  return true;
}

Status ParityManager::DeleteGroup(uint64_t group) {
  return store_->Delete(KeyFor(group));
}

}  // namespace slim::durability
