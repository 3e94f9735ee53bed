#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/sha1_kernels.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace slim {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IoError("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  SLIM_ASSIGN_OR_RETURN(int half, Half(x));
  *out = half;
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(UseAssignOrReturn(7, &out).ok());
}

// ---------------------------------------------------------------------------
// SHA-1 known-answer tests (FIPS 180-1 vectors)
// ---------------------------------------------------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(Sha1::Hash("", 0).ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1::Hash("abc").ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, LongerVector) {
  EXPECT_EQ(
      Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string a(1000000, 'a');
  EXPECT_EQ(Sha1::Hash(a).ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string data(100000, 0);
  Rng rng(3);
  rng.FillBytes(&data, 100000);
  Sha1 h;
  size_t pos = 0;
  size_t step = 1;
  while (pos < data.size()) {
    size_t n = std::min(step, data.size() - pos);
    h.Update(data.data() + pos, n);
    pos += n;
    step = step * 3 + 1;
  }
  EXPECT_EQ(h.Finish(), Sha1::Hash(data));
}

// ---------------------------------------------------------------------------
// The SHA-NI kernel against the portable reference
// ---------------------------------------------------------------------------

class Sha1KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hardware_ = sha1_kernels::Hardware();
    if (hardware_ == nullptr) GTEST_SKIP() << "CPU lacks SHA-NI";
    data_ = Rng(31).RandomBytes((1 << 20) + 16);
  }

  Fingerprint Hash(Sha1::Compress compress, size_t offset, size_t len) {
    sha1_kernels::Sha1With h(compress);
    h.Update(data_.data() + offset, len);
    return h.Finish();
  }

  Sha1::Compress hardware_ = nullptr;
  std::string data_;
};

TEST_F(Sha1KernelTest, EveryLengthTo4096) {
  for (size_t len = 0; len <= 4096; ++len) {
    ASSERT_EQ(Hash(hardware_, 0, len), Hash(sha1_kernels::Portable, 0, len))
        << "length " << len;
  }
}

TEST_F(Sha1KernelTest, RandomLengthsTo1MiB) {
  Rng rng(32);
  for (int i = 0; i < 32; ++i) {
    const size_t len = rng.Uniform((1 << 20) + 1);
    ASSERT_EQ(Hash(hardware_, 0, len), Hash(sha1_kernels::Portable, 0, len))
        << "length " << len;
  }
}

TEST_F(Sha1KernelTest, StartOffsets0To15) {
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Hash(hardware_, offset, len),
                Hash(sha1_kernels::Portable, offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(Sha1KernelTest, EverySplitOfTwoUpdates) {
  constexpr size_t kLen = 1031;
  const Fingerprint want = Hash(sha1_kernels::Portable, 0, kLen);
  for (size_t split = 0; split <= kLen; ++split) {
    sha1_kernels::Sha1With h(hardware_);
    h.Update(data_.data(), split);
    h.Update(data_.data() + split, kLen - split);
    ASSERT_EQ(h.Finish(), want) << "split " << split;
  }
}

TEST(FingerprintTest, HexRoundTrip) {
  Fingerprint fp = Sha1::Hash("roundtrip");
  EXPECT_EQ(Fingerprint::FromHex(fp.ToHex()), fp);
}

TEST(FingerprintTest, FromHexRejectsMalformed) {
  EXPECT_TRUE(Fingerprint::FromHex("xyz").IsZero());
  EXPECT_TRUE(Fingerprint::FromHex(std::string(40, 'g')).IsZero());
}

TEST(FingerprintTest, ZeroDetection) {
  Fingerprint fp;
  EXPECT_TRUE(fp.IsZero());
  fp = Sha1::Hash("x");
  EXPECT_FALSE(fp.IsZero());
}

TEST(FingerprintTest, OrderingAndEquality) {
  Fingerprint a = Sha1::Hash("a");
  Fingerprint b = Sha1::Hash("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_EQ(a, Sha1::Hash("a"));
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint32_t v32 = 0;
  uint64_t v64 = 0;
  ASSERT_TRUE(dec.ReadFixed32(&v32).ok());
  ASSERT_TRUE(dec.ReadFixed64(&v64).ok());
  EXPECT_EQ(v32, 0xdeadbeef);
  EXPECT_EQ(v64, 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0,    1,    127,  128,   16383, 16384,
                                  1u << 30, ~0ull, 42};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.ReadVarint64(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder dec(buf);
  std::string_view s;
  ASSERT_TRUE(dec.ReadLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.ReadLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.ReadLengthPrefixed(&s).ok());
  EXPECT_EQ(s.size(), 1000u);
}

TEST(CodingTest, UnderflowIsCorruptionAndSticky) {
  std::string buf;
  PutFixed32(&buf, 7);
  Decoder dec(buf);
  uint64_t v64 = 0;
  EXPECT_TRUE(dec.ReadFixed64(&v64).IsCorruption());
  uint32_t v32 = 0;
  // After a decode failure the decoder stays failed.
  EXPECT_FALSE(dec.ReadFixed32(&v32).ok());
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf = "\xff";  // Continuation bit set, no next byte.
  Decoder dec(buf);
  uint64_t v = 0;
  EXPECT_TRUE(dec.ReadVarint64(&v).IsCorruption());
}

TEST(CodingTest, ReadCountRejectsCountsTheBytesCannotHold) {
  std::string buf;
  PutVarint64(&buf, 3);
  buf.append(12, 'x');  // Room for 3 entries of 4 bytes, not of 5.
  uint64_t n = 0;
  Decoder fits(buf);
  ASSERT_TRUE(fits.ReadCount(&n, 4).ok());
  EXPECT_EQ(n, 3u);
  Decoder too_many(buf);
  EXPECT_TRUE(too_many.ReadCount(&n, 5).IsCorruption());
}

TEST(CodingTest, FingerprintRoundTrip) {
  Fingerprint fp = Sha1::Hash("fp");
  std::string buf;
  PutFingerprint(&buf, fp);
  Decoder dec(buf);
  Fingerprint out;
  ASSERT_TRUE(dec.ReadFingerprint(&out).ok());
  EXPECT_EQ(out, fp);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, RandomBytesLengthAndVariety) {
  Rng rng(5);
  std::string s = rng.RandomBytes(1000);
  EXPECT_EQ(s.size(), 1000u);
  std::set<char> distinct(s.begin(), s.end());
  EXPECT_GT(distinct.size(), 100u);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(count.load(), 20);
}

// ---------------------------------------------------------------------------
// Hash mixers
// ---------------------------------------------------------------------------

TEST(HashTest, Fnv1a64KnownValues) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
}

TEST(HashTest, Mix64Bijectivityish) {
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(w.ElapsedNanos(), 5 * 1000 * 1000ull);
}

TEST(PhaseTimerTest, Accumulates) {
  PhaseTimer t;
  {
    ScopedPhase p(&t);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    ScopedPhase p(&t);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(t.total_nanos(), 2 * 1000 * 1000ull);
}

}  // namespace
}  // namespace slim
