#ifndef SLIMSTORE_COMMON_CODING_H_
#define SLIMSTORE_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/status.h"

namespace slim {

/// Little-endian binary encoding helpers used by every on-OSS format
/// (containers, recipes, index blocks, RocksOss runs). Appending writers
/// plus a cursor-based reader that fails with Status::Corruption instead
/// of reading out of bounds.

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

/// Length-prefixed byte string.
inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

inline void PutFingerprint(std::string* dst, const Fingerprint& fp) {
  dst->append(reinterpret_cast<const char*>(fp.data()), Fingerprint::kSize);
}

/// Sequential decoder over a byte string. All Read* methods return
/// Corruption once the input is exhausted or malformed; subsequent reads
/// keep failing (sticky error).
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }

  Status ReadFixed32(uint32_t* v) {
    if (remaining() < 4) return Corrupt("fixed32");
    std::memcpy(v, data_.data() + pos_, 4);
    pos_ += 4;
    return Status::Ok();
  }

  Status ReadFixed64(uint64_t* v) {
    if (remaining() < 8) return Corrupt("fixed64");
    std::memcpy(v, data_.data() + pos_, 8);
    pos_ += 8;
    return Status::Ok();
  }

  Status ReadVarint64(uint64_t* v) {
    uint64_t result = 0;
    int shift = 0;
    while (pos_ < data_.size() && shift <= 63) {
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return Status::Ok();
      }
      shift += 7;
    }
    return Corrupt("varint64");
  }

  /// Reads a varint entry count and rejects one that the bytes left
  /// cannot hold at `min_entry_bytes` (> 0) per entry, so a corrupt
  /// count fails here instead of in reserve().
  Status ReadCount(uint64_t* n, size_t min_entry_bytes) {
    Status s = ReadVarint64(n);
    if (!s.ok()) return s;
    if (*n > remaining() / min_entry_bytes) return Corrupt("entry count");
    return Status::Ok();
  }

  Status ReadLengthPrefixed(std::string_view* out) {
    uint64_t len = 0;
    Status s = ReadVarint64(&len);
    if (!s.ok()) return s;
    if (remaining() < len) return Corrupt("length-prefixed body");
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  Status ReadFingerprint(Fingerprint* fp) {
    if (remaining() < Fingerprint::kSize) return Corrupt("fingerprint");
    std::memcpy(fp->data(), data_.data() + pos_, Fingerprint::kSize);
    pos_ += Fingerprint::kSize;
    return Status::Ok();
  }

  Status ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return Corrupt("raw bytes");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::Ok();
  }

 private:
  Status Corrupt(const char* what) {
    pos_ = data_.size();  // Sticky failure.
    return Status::Corruption(std::string("decode underflow: ") + what);
  }

  std::string_view data_;
  size_t pos_;
};

}  // namespace slim

#endif  // SLIMSTORE_COMMON_CODING_H_
