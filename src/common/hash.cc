#include "common/hash.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/sha1_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace slim {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

inline uint32_t RotL32(uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline uint32_t LoadBe32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
         (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

}  // namespace

std::string Fingerprint::ToHex() const {
  std::string out(kSize * 2, '0');
  for (size_t i = 0; i < kSize; ++i) {
    out[2 * i] = kHexDigits[bytes_[i] >> 4];
    out[2 * i + 1] = kHexDigits[bytes_[i] & 0xf];
  }
  return out;
}

Fingerprint Fingerprint::FromHex(std::string_view hex) {
  Fingerprint fp;
  if (hex.size() != kSize * 2) return fp;
  for (size_t i = 0; i < kSize; ++i) {
    int hi = HexValue(hex[2 * i]);
    int lo = HexValue(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return Fingerprint();
    fp.bytes_[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return fp;
}

// ---------------------------------------------------------------------------
// SHA-1
// ---------------------------------------------------------------------------

namespace sha1_kernels {
namespace {

void PortableBlock(uint32_t* state, const uint8_t* block) {
  // Unrolled with a 16-word circular schedule (classic fast software
  // SHA-1).
  uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = LoadBe32(block + 4 * i);

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
           e = state[4];

#define SLIM_SHA1_W(t)                                                  \
  (w[(t)&15] = RotL32(w[((t)-3) & 15] ^ w[((t)-8) & 15] ^               \
                          w[((t)-14) & 15] ^ w[(t)&15],                 \
                      1))

#define SLIM_SHA1_ROUND(a, b, c, d, e, f, k, x)       \
  do {                                                \
    (e) += RotL32((a), 5) + (f) + (k) + (x);          \
    (b) = RotL32((b), 30);                            \
  } while (0)

#define SLIM_F1(b, c, d) (((b) & (c)) | ((~(b)) & (d)))
#define SLIM_F2(b, c, d) ((b) ^ (c) ^ (d))
#define SLIM_F3(b, c, d) (((b) & (c)) | ((b) & (d)) | ((c) & (d)))

#define SLIM_R0(a, b, c, d, e, t) \
  SLIM_SHA1_ROUND(a, b, c, d, e, SLIM_F1(b, c, d), 0x5A827999, w[(t)&15])
#define SLIM_R1(a, b, c, d, e, t) \
  SLIM_SHA1_ROUND(a, b, c, d, e, SLIM_F1(b, c, d), 0x5A827999, SLIM_SHA1_W(t))
#define SLIM_R2(a, b, c, d, e, t) \
  SLIM_SHA1_ROUND(a, b, c, d, e, SLIM_F2(b, c, d), 0x6ED9EBA1, SLIM_SHA1_W(t))
#define SLIM_R3(a, b, c, d, e, t) \
  SLIM_SHA1_ROUND(a, b, c, d, e, SLIM_F3(b, c, d), 0x8F1BBCDC, SLIM_SHA1_W(t))
#define SLIM_R4(a, b, c, d, e, t) \
  SLIM_SHA1_ROUND(a, b, c, d, e, SLIM_F2(b, c, d), 0xCA62C1D6, SLIM_SHA1_W(t))

  SLIM_R0(a, b, c, d, e, 0);  SLIM_R0(e, a, b, c, d, 1);
  SLIM_R0(d, e, a, b, c, 2);  SLIM_R0(c, d, e, a, b, 3);
  SLIM_R0(b, c, d, e, a, 4);  SLIM_R0(a, b, c, d, e, 5);
  SLIM_R0(e, a, b, c, d, 6);  SLIM_R0(d, e, a, b, c, 7);
  SLIM_R0(c, d, e, a, b, 8);  SLIM_R0(b, c, d, e, a, 9);
  SLIM_R0(a, b, c, d, e, 10); SLIM_R0(e, a, b, c, d, 11);
  SLIM_R0(d, e, a, b, c, 12); SLIM_R0(c, d, e, a, b, 13);
  SLIM_R0(b, c, d, e, a, 14); SLIM_R0(a, b, c, d, e, 15);
  SLIM_R1(e, a, b, c, d, 16); SLIM_R1(d, e, a, b, c, 17);
  SLIM_R1(c, d, e, a, b, 18); SLIM_R1(b, c, d, e, a, 19);

  SLIM_R2(a, b, c, d, e, 20); SLIM_R2(e, a, b, c, d, 21);
  SLIM_R2(d, e, a, b, c, 22); SLIM_R2(c, d, e, a, b, 23);
  SLIM_R2(b, c, d, e, a, 24); SLIM_R2(a, b, c, d, e, 25);
  SLIM_R2(e, a, b, c, d, 26); SLIM_R2(d, e, a, b, c, 27);
  SLIM_R2(c, d, e, a, b, 28); SLIM_R2(b, c, d, e, a, 29);
  SLIM_R2(a, b, c, d, e, 30); SLIM_R2(e, a, b, c, d, 31);
  SLIM_R2(d, e, a, b, c, 32); SLIM_R2(c, d, e, a, b, 33);
  SLIM_R2(b, c, d, e, a, 34); SLIM_R2(a, b, c, d, e, 35);
  SLIM_R2(e, a, b, c, d, 36); SLIM_R2(d, e, a, b, c, 37);
  SLIM_R2(c, d, e, a, b, 38); SLIM_R2(b, c, d, e, a, 39);

  SLIM_R3(a, b, c, d, e, 40); SLIM_R3(e, a, b, c, d, 41);
  SLIM_R3(d, e, a, b, c, 42); SLIM_R3(c, d, e, a, b, 43);
  SLIM_R3(b, c, d, e, a, 44); SLIM_R3(a, b, c, d, e, 45);
  SLIM_R3(e, a, b, c, d, 46); SLIM_R3(d, e, a, b, c, 47);
  SLIM_R3(c, d, e, a, b, 48); SLIM_R3(b, c, d, e, a, 49);
  SLIM_R3(a, b, c, d, e, 50); SLIM_R3(e, a, b, c, d, 51);
  SLIM_R3(d, e, a, b, c, 52); SLIM_R3(c, d, e, a, b, 53);
  SLIM_R3(b, c, d, e, a, 54); SLIM_R3(a, b, c, d, e, 55);
  SLIM_R3(e, a, b, c, d, 56); SLIM_R3(d, e, a, b, c, 57);
  SLIM_R3(c, d, e, a, b, 58); SLIM_R3(b, c, d, e, a, 59);

  SLIM_R4(a, b, c, d, e, 60); SLIM_R4(e, a, b, c, d, 61);
  SLIM_R4(d, e, a, b, c, 62); SLIM_R4(c, d, e, a, b, 63);
  SLIM_R4(b, c, d, e, a, 64); SLIM_R4(a, b, c, d, e, 65);
  SLIM_R4(e, a, b, c, d, 66); SLIM_R4(d, e, a, b, c, 67);
  SLIM_R4(c, d, e, a, b, 68); SLIM_R4(b, c, d, e, a, 69);
  SLIM_R4(a, b, c, d, e, 70); SLIM_R4(e, a, b, c, d, 71);
  SLIM_R4(d, e, a, b, c, 72); SLIM_R4(c, d, e, a, b, 73);
  SLIM_R4(b, c, d, e, a, 74); SLIM_R4(a, b, c, d, e, 75);
  SLIM_R4(e, a, b, c, d, 76); SLIM_R4(d, e, a, b, c, 77);
  SLIM_R4(c, d, e, a, b, 78); SLIM_R4(b, c, d, e, a, 79);

#undef SLIM_SHA1_W
#undef SLIM_SHA1_ROUND
#undef SLIM_F1
#undef SLIM_F2
#undef SLIM_F3
#undef SLIM_R0
#undef SLIM_R1
#undef SLIM_R2
#undef SLIM_R3
#undef SLIM_R4

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

#if defined(__x86_64__)

// Rounds 4k..4k+3 on SHA-NI. m[] holds the rolling 16-word message
// schedule; e[k & 1] carries the E term into this step while
// e[(k + 1) & 1] saves ABCD for the next one.
template <int k>
__attribute__((target("sha,sse4.1"))) inline void ShaNiStep(
    __m128i& abcd, __m128i (&m)[4], __m128i (&e)[2]) {
  if constexpr (k == 0) {
    e[0] = _mm_add_epi32(e[0], m[0]);
  } else {
    e[k & 1] = _mm_sha1nexte_epu32(e[k & 1], m[k % 4]);
  }
  e[(k + 1) & 1] = abcd;
  if constexpr (k >= 3 && k <= 18) {
    m[(k + 1) % 4] = _mm_sha1msg2_epu32(m[(k + 1) % 4], m[k % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[k & 1], k / 5);
  if constexpr (k >= 1 && k <= 16) {
    m[(k + 3) % 4] = _mm_sha1msg1_epu32(m[(k + 3) % 4], m[k % 4]);
  }
  if constexpr (k >= 2 && k <= 17) {
    m[(k + 2) % 4] = _mm_xor_si128(m[(k + 2) % 4], m[k % 4]);
  }
}

template <int... k>
__attribute__((target("sha,sse4.1"))) inline void ShaNiRounds(
    __m128i& abcd, __m128i (&m)[4], __m128i (&e)[2],
    std::integer_sequence<int, k...>) {
  (ShaNiStep<k>(abcd, m, e), ...);
}

__attribute__((target("sha,sse4.1"))) void ShaNi(uint32_t* state,
                                                 const uint8_t* blocks,
                                                 size_t nblocks) {
  // Reverses the bytes of a 16-byte load: SHA-1 words are big-endian.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e0;
    __m128i m[4];
    for (size_t i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          byte_swap);
    }
    __m128i e[2] = {e0, e0};
    ShaNiRounds(abcd, m, e, std::make_integer_sequence<int, 20>());
    e0 = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // __x86_64__

Sha1::Compress Picked() {
  static const Sha1::Compress picked = [] {
    Sha1::Compress hardware = Hardware();
    return hardware != nullptr ? hardware : Portable;
  }();
  return picked;
}

}  // namespace

void Portable(uint32_t* state, const uint8_t* blocks, size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) PortableBlock(state, blocks);
}

Sha1::Compress Hardware() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
    return nullptr;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0 ||
      (ebx & bit_SHA) == 0) {
    return nullptr;
  }
  return ShaNi;
#else
  return nullptr;
#endif
}

}  // namespace sha1_kernels

Sha1::Sha1() : Sha1(sha1_kernels::Picked()) {}

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      compress_(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    compress_(h_, p, len / 64);
    p += len & ~size_t{63};
    len &= 63;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Fingerprint Sha1::Finish() {
  // One Update pads to 56 mod 64 (0x80, then zeros) and appends the
  // message length in bits, big-endian.
  const uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72] = {0x80};
  const size_t pad_len = 1 + (119 - buffer_len_) % 64;
  for (size_t i = 0; i < 8; ++i) {
    pad[pad_len + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Update(pad, pad_len + 8);

  Fingerprint fp;
  for (int i = 0; i < 5; ++i) StoreBe32(fp.data() + 4 * i, h_[i]);
  return fp;
}

Fingerprint Sha1::Hash(const void* data, size_t len) {
  Sha1 h;
  h.Update(data, len);
  return h.Finish();
}

}  // namespace slim
