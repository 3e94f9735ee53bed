#ifndef SLIMSTORE_COMMON_HASH_H_
#define SLIMSTORE_COMMON_HASH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

namespace slim {

/// A 20-byte SHA-1 digest identifying a chunk's content. Two chunks with
/// equal fingerprints are treated as duplicates (collision probability is
/// negligible for a cryptographic hash, matching the paper and all
/// production dedup systems).
class Fingerprint {
 public:
  static constexpr size_t kSize = 20;

  Fingerprint() { bytes_.fill(0); }
  explicit Fingerprint(const std::array<uint8_t, kSize>& bytes)
      : bytes_(bytes) {}

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  /// First 8 bytes interpreted little-endian; usable as a pre-mixed hash
  /// value (SHA-1 output is uniformly distributed).
  uint64_t Prefix64() const {
    uint64_t v;
    std::memcpy(&v, bytes_.data(), sizeof(v));
    return v;
  }

  /// Bytes 8..15 as a second independent 64-bit value (double hashing).
  uint64_t Second64() const {
    uint64_t v;
    std::memcpy(&v, bytes_.data() + 8, sizeof(v));
    return v;
  }

  bool IsZero() const {
    for (uint8_t b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  /// Lowercase hex, 40 characters.
  std::string ToHex() const;

  /// Parses 40 hex chars; returns a zero fingerprint on malformed input.
  static Fingerprint FromHex(std::string_view hex);

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.bytes_ == b.bytes_;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    return a.bytes_ < b.bytes_;
  }

 private:
  std::array<uint8_t, kSize> bytes_;
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& fp) const {
    return static_cast<size_t>(fp.Prefix64());
  }
};

/// Incremental SHA-1 (FIPS 180-1). Used for chunk fingerprinting like the
/// paper. Not for new security designs; dedup only needs collision
/// resistance against accidental collisions.
class Sha1 {
 public:
  /// Folds `nblocks` consecutive 64-byte blocks into the five-word state.
  using Compress = void (*)(uint32_t* state, const uint8_t* blocks,
                            size_t nblocks);

  /// Compresses with SHA-NI when CPUID reports it, else with the portable
  /// code; both give the same digest (common/sha1_kernels.h).
  Sha1();

  void Reset();
  void Update(const void* data, size_t len);
  /// Finalizes and returns the digest. The object must be Reset() before
  /// further Update() calls.
  Fingerprint Finish();

  /// One-shot convenience.
  static Fingerprint Hash(const void* data, size_t len);
  static Fingerprint Hash(std::string_view data) {
    return Hash(data.data(), data.size());
  }

 protected:
  explicit Sha1(Compress compress) : compress_(compress) { Reset(); }

 private:
  Compress compress_;
  uint32_t h_[5];
  uint64_t total_len_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

/// FNV-1a 64-bit: fast non-cryptographic hash for container ids, bloom
/// filter derivation, and sampling decisions.
inline uint64_t Fnv1a64(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline uint64_t Fnv1a64(std::string_view s) {
  return Fnv1a64(s.data(), s.size());
}

/// 64-bit finalizer (splitmix64): turns a correlated value into a
/// well-mixed one.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace slim

namespace std {
template <>
struct hash<slim::Fingerprint> {
  size_t operator()(const slim::Fingerprint& fp) const {
    return static_cast<size_t>(fp.Prefix64());
  }
};
}  // namespace std

#endif  // SLIMSTORE_COMMON_HASH_H_
