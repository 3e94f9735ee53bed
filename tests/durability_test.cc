// Unit tests for the durability primitives: CRC32C and the object
// footer, key classification and placement, the checksumming and
// replicating store decorators, and XOR parity groups. The end-to-end
// scrub-and-repair sweeps live in scrub_repair_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "durability/checksum.h"
#include "durability/checksumming_object_store.h"
#include "durability/crc32c_kernels.h"
#include "durability/parity.h"
#include "durability/placement.h"
#include "durability/replicating_object_store.h"
#include "oss/memory_object_store.h"

namespace slim::durability {
namespace {

// ---------------------------------------------------------------------------
// CRC32C + footer
// ---------------------------------------------------------------------------

TEST(Crc32cTest, PublishedTestVector) {
  // The canonical CRC-32C check value (e.g. RFC 3720 appendix).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) { EXPECT_EQ(Crc32c(""), 0u); }

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data)) << "split at " << split;
  }
}

// The SSE4.2 kernel against the portable reference.
class Crc32cKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hardware_ = crc32c_kernels::Hardware();
    if (hardware_ == nullptr) GTEST_SKIP() << "CPU lacks SSE4.2";
    data_ = Rng(41).RandomBytes((1 << 20) + 16);
  }

  crc32c_kernels::Extend hardware_ = nullptr;
  std::string data_;
};

TEST_F(Crc32cKernelTest, EveryLengthTo4096) {
  for (size_t len = 0; len <= 4096; ++len) {
    ASSERT_EQ(hardware_(0, data_.data(), len),
              crc32c_kernels::Portable(0, data_.data(), len))
        << "length " << len;
  }
}

TEST_F(Crc32cKernelTest, RandomLengthsTo1MiB) {
  Rng rng(42);
  for (int i = 0; i < 32; ++i) {
    const size_t len = rng.Uniform((1 << 20) + 1);
    ASSERT_EQ(hardware_(0, data_.data(), len),
              crc32c_kernels::Portable(0, data_.data(), len))
        << "length " << len;
  }
}

TEST_F(Crc32cKernelTest, StartOffsets0To15) {
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* p = data_.data() + offset;
      ASSERT_EQ(hardware_(0x9e3779b9u, p, len),
                crc32c_kernels::Portable(0x9e3779b9u, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(Crc32cKernelTest, EverySplitOfTwoCalls) {
  constexpr size_t kLen = 1031;
  const uint32_t want = crc32c_kernels::Portable(0, data_.data(), kLen);
  for (size_t split = 0; split <= kLen; ++split) {
    const uint32_t head = hardware_(0, data_.data(), split);
    ASSERT_EQ(hardware_(head, data_.data() + split, kLen - split), want)
        << "split " << split;
  }
}

TEST(FooterTest, RoundTrip) {
  std::string object = "payload bytes";
  AppendFooter(&object);
  EXPECT_EQ(object.size(), 13 + kFooterSize);
  EXPECT_TRUE(HasValidFooter(object));
  auto payload = VerifyFooter(object, Component::kOther);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value(), "payload bytes");
}

TEST(FooterTest, EmptyPayloadRoundTrips) {
  std::string object;
  AppendFooter(&object);
  EXPECT_EQ(object.size(), kFooterSize);
  EXPECT_TRUE(HasValidFooter(object));
  EXPECT_EQ(VerifyFooter(object, Component::kOther).value(), "");
}

TEST(FooterTest, EverySingleByteFlipIsDetected) {
  std::string object = "sensitive";
  AppendFooter(&object);
  for (size_t i = 0; i < object.size(); ++i) {
    std::string bad = object;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_FALSE(HasValidFooter(bad)) << "flip at " << i;
    EXPECT_TRUE(VerifyFooter(bad, Component::kOther).status().IsCorruption());
  }
}

TEST(FooterTest, TruncatedObjectIsCorruption) {
  std::string object = "abc";
  AppendFooter(&object);
  for (size_t len = 0; len < kFooterSize; ++len) {
    EXPECT_FALSE(HasValidFooter(object.substr(0, len)));
    EXPECT_TRUE(VerifyFooter(object.substr(0, len), Component::kOther)
                    .status()
                    .IsCorruption());
  }
}

TEST(FooterTest, VerifyAndStripInPlace) {
  std::string object = "hello";
  AppendFooter(&object);
  ASSERT_TRUE(VerifyAndStripFooter(&object, Component::kOther).ok());
  EXPECT_EQ(object, "hello");
  // A second strip must fail: the footer is gone.
  EXPECT_TRUE(
      VerifyAndStripFooter(&object, Component::kOther).IsCorruption());
}

TEST(FooterTest, VerifiedStoreRoundTrip) {
  oss::MemoryObjectStore store;
  ASSERT_TRUE(
      PutWithFooter(store, "k", "value", Component::kState).ok());
  // The stored object carries the footer...
  EXPECT_EQ(store.Size("k").value(), 5 + kFooterSize);
  // ...and the verified read strips it.
  auto got = GetVerified(store, "k", Component::kState);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "value");
  EXPECT_TRUE(
      GetVerified(store, "ghost", Component::kState).status().IsNotFound());

  // Bit rot in the stored bytes surfaces as Corruption, never as data.
  std::string raw = store.Get("k").value();
  raw[1] = static_cast<char>(raw[1] ^ 1);
  ASSERT_TRUE(store.Put("k", raw).ok());
  EXPECT_TRUE(
      GetVerified(store, "k", Component::kState).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Key classification + placement
// ---------------------------------------------------------------------------

TEST(PlacementTest, ClassifyKey) {
  EXPECT_EQ(ClassifyKey("slim/containers/data-00000000000000000042"),
            KeyClass::kContainerData);
  EXPECT_EQ(ClassifyKey("slim/containers/meta-00000000000000000042"),
            KeyClass::kContainerMeta);
  EXPECT_EQ(ClassifyKey("slim/recipes/recipe/f.bin/000000000007"),
            KeyClass::kRecipe);
  EXPECT_EQ(ClassifyKey("slim/recipes/toc/f.bin/000000000007"),
            KeyClass::kRecipeToc);
  EXPECT_EQ(ClassifyKey("slim/recipes/index/f.bin/000000000007"),
            KeyClass::kRecipeIndex);
  EXPECT_EQ(ClassifyKey("slim/gindex/run-000001"), KeyClass::kIndexRun);
  EXPECT_EQ(ClassifyKey("slim/state/catalog"), KeyClass::kState);
  EXPECT_EQ(ClassifyKey("slim/durability/scrub-cursor"), KeyClass::kState);
  EXPECT_EQ(ClassifyKey("unrelated"), KeyClass::kOther);
  // A backed-up file whose *name* is "index" or "toc" must classify by
  // position, not by substring.
  EXPECT_EQ(ClassifyKey("slim/recipes/recipe/index/000000000001"),
            KeyClass::kRecipe);
  EXPECT_EQ(ClassifyKey("slim/recipes/recipe/toc/000000000001"),
            KeyClass::kRecipe);
}

TEST(PlacementTest, DeterministicAndDistinct) {
  PlacementPolicy policy = PlacementPolicy::Uniform(2);
  for (const std::string key :
       {"slim/containers/data-1", "slim/containers/data-2", "a", "b"}) {
    auto first = policy.PlacementFor(key, 5);
    auto again = policy.PlacementFor(key, 5);
    EXPECT_EQ(first, again);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_NE(first[0], first[1]);
    for (uint32_t idx : first) EXPECT_LT(idx, 5u);
  }
}

TEST(PlacementTest, ReplicaCountClampedToStoreCount) {
  PlacementPolicy policy = PlacementPolicy::Uniform(4);
  EXPECT_EQ(policy.PlacementFor("some-key", 3).size(), 3u);
  EXPECT_EQ(policy.PlacementFor("some-key", 1).size(), 1u);
}

TEST(PlacementTest, MetadataClassesGetFullReplication) {
  // Default policy: tiny metadata objects go everywhere, bulk container
  // data gets 2 copies.
  PlacementPolicy policy;
  EXPECT_EQ(policy.PlacementFor("slim/recipes/recipe/f/0", 3).size(), 3u);
  EXPECT_EQ(policy.PlacementFor("slim/state/catalog", 3).size(), 3u);
  EXPECT_EQ(policy.PlacementFor("slim/containers/meta-7", 3).size(), 3u);
  EXPECT_EQ(policy.PlacementFor("slim/containers/data-7", 3).size(), 2u);
}

// ---------------------------------------------------------------------------
// ChecksummingObjectStore
// ---------------------------------------------------------------------------

TEST(ChecksummingStoreTest, InnerObjectCarriesFooterOutsideDoesNot) {
  oss::MemoryObjectStore inner;
  ChecksummingObjectStore store(&inner);
  ASSERT_TRUE(store.Put("k", "0123456789").ok());
  EXPECT_EQ(inner.Size("k").value(), 10 + kFooterSize);
  EXPECT_TRUE(HasValidFooter(inner.Get("k").value()));
  EXPECT_EQ(store.Size("k").value(), 10u);
  EXPECT_EQ(store.Get("k").value(), "0123456789");
  EXPECT_EQ(store.GetRange("k", 7, 100).value(), "789");
}

TEST(ChecksummingStoreTest, InnerCorruptionSurfacesAsCorruption) {
  oss::MemoryObjectStore inner;
  ChecksummingObjectStore store(&inner);
  ASSERT_TRUE(store.Put("k", "0123456789").ok());
  std::string raw = inner.Get("k").value();
  raw[3] = static_cast<char>(raw[3] ^ 0x80);
  ASSERT_TRUE(inner.Put("k", raw).ok());
  EXPECT_TRUE(store.Get("k").status().IsCorruption());
  // An object too short to even hold a footer is corrupt, not a range
  // error.
  ASSERT_TRUE(inner.Put("tiny", "abc").ok());
  EXPECT_TRUE(store.Get("tiny").status().IsCorruption());
  EXPECT_TRUE(store.GetRange("tiny", 0, 1).status().IsCorruption());
  EXPECT_TRUE(store.Size("tiny").status().IsCorruption());
}

// ---------------------------------------------------------------------------
// ReplicatingObjectStore
// ---------------------------------------------------------------------------

struct ReplicatedFixture {
  std::vector<std::unique_ptr<oss::MemoryObjectStore>> backing;
  std::unique_ptr<ReplicatingObjectStore> store;

  explicit ReplicatedFixture(uint32_t n, uint32_t k,
                             ReplicatingObjectStore::Validator validator = {}) {
    std::vector<oss::ObjectStore*> replicas;
    for (uint32_t i = 0; i < n; ++i) {
      backing.push_back(std::make_unique<oss::MemoryObjectStore>());
      replicas.push_back(backing.back().get());
    }
    store = std::make_unique<ReplicatingObjectStore>(
        std::move(replicas), PlacementPolicy::Uniform(k),
        std::move(validator));
  }

  oss::MemoryObjectStore* replica(uint32_t i) { return backing[i].get(); }
};

TEST(ReplicatingStoreTest, PutWritesExactlyThePlacedReplicas) {
  ReplicatedFixture fx(3, 2);
  ASSERT_TRUE(fx.store->Put("k", "v").ok());
  auto placed = fx.store->PlacementFor("k");
  ASSERT_EQ(placed.size(), 2u);
  for (uint32_t i = 0; i < 3; ++i) {
    bool is_placed =
        std::find(placed.begin(), placed.end(), i) != placed.end();
    EXPECT_EQ(fx.replica(i)->Exists("k").value(), is_placed) << i;
  }
}

TEST(ReplicatingStoreTest, GetFailsOverAndReadRepairsMissingReplica) {
  ReplicatedFixture fx(3, 2);
  ASSERT_TRUE(fx.store->Put("k", "precious").ok());
  auto placed = fx.store->PlacementFor("k");
  // Destroy the preferred copy: the read must transparently fail over.
  ASSERT_TRUE(fx.replica(placed[0])->Delete("k").ok());
  EXPECT_EQ(fx.store->Get("k").value(), "precious");
  // ...and read repair restored the destroyed copy.
  EXPECT_EQ(fx.replica(placed[0])->Get("k").value(), "precious");
}

TEST(ReplicatingStoreTest, ValidatorRejectsCorruptReplica) {
  ReplicatedFixture fx(3, 2, [](std::string_view object) {
    return HasValidFooter(object);
  });
  std::string value = "guarded payload";
  AppendFooter(&value);
  ASSERT_TRUE(fx.store->Put("k", value).ok());
  auto placed = fx.store->PlacementFor("k");
  // Bit-rot the preferred copy (still a well-formed object!). Without
  // the validator this garbage would be served verbatim.
  std::string rotten = value;
  rotten[0] = static_cast<char>(rotten[0] ^ 1);
  ASSERT_TRUE(fx.replica(placed[0])->Put("k", rotten).ok());
  EXPECT_EQ(fx.store->Get("k").value(), value);
  // Read repair overwrote the rotten copy with the good bytes.
  EXPECT_EQ(fx.replica(placed[0])->Get("k").value(), value);
}

TEST(ReplicatingStoreTest, AllReplicasLostIsNotFound) {
  ReplicatedFixture fx(3, 2);
  ASSERT_TRUE(fx.store->Put("k", "v").ok());
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.replica(i)->Delete("k").ok());
  }
  EXPECT_TRUE(fx.store->Get("k").status().IsNotFound());
}

TEST(ReplicatingStoreTest, DeleteRemovesEveryReplica) {
  ReplicatedFixture fx(3, 3);
  ASSERT_TRUE(fx.store->Put("k", "v").ok());
  ASSERT_TRUE(fx.store->Delete("k").ok());
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(fx.replica(i)->Exists("k").value()) << i;
  }
  EXPECT_TRUE(fx.store->Get("k").status().IsNotFound());
}

TEST(ReplicatingStoreTest, ListIsTheSortedUnion) {
  ReplicatedFixture fx(3, 2);
  for (const std::string key : {"p/c", "p/a", "p/b", "q/x"}) {
    ASSERT_TRUE(fx.store->Put(key, "v").ok());
  }
  auto keys = fx.store->List("p/");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys.value(),
            (std::vector<std::string>{"p/a", "p/b", "p/c"}));
}

TEST(ReplicatingStoreTest, ScrubKeyDetectsAndRepairsMissingReplica) {
  ReplicatedFixture fx(3, 2, [](std::string_view object) {
    return HasValidFooter(object);
  });
  std::string value = "payload";
  AppendFooter(&value);
  ASSERT_TRUE(fx.store->Put("k", value).ok());
  auto placed = fx.store->PlacementFor("k");
  ASSERT_TRUE(fx.replica(placed[1])->Delete("k").ok());

  auto audit = fx.store->ScrubKey("k", /*repair=*/false);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit.value().any_bad());
  EXPECT_TRUE(audit.value().recoverable);
  EXPECT_EQ(audit.value().states[1], ReplicaState::kMissing);
  EXPECT_EQ(audit.value().repaired, 0u);
  // Detection did not write anything.
  EXPECT_FALSE(fx.replica(placed[1])->Exists("k").value());

  auto fixed = fx.store->ScrubKey("k", /*repair=*/true);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value().repaired, 1u);
  EXPECT_EQ(fx.replica(placed[1])->Get("k").value(), value);

  auto clean = fx.store->ScrubKey("k", /*repair=*/false);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean.value().any_bad());
}

TEST(ReplicatingStoreTest, ScrubKeyArbitratesDivergenceByMajority) {
  ReplicatedFixture fx(3, 3);
  ASSERT_TRUE(fx.store->Put("k", "majority").ok());
  // One replica diverges (e.g. a torn overwrite): two good copies win.
  // states[] is parallel to the placement vector, so find the damaged
  // replica's position in it.
  auto placed = fx.store->PlacementFor("k");
  size_t pos = static_cast<size_t>(
      std::find(placed.begin(), placed.end(), 1u) - placed.begin());
  ASSERT_LT(pos, placed.size());
  ASSERT_TRUE(fx.replica(1)->Put("k", "minority").ok());
  auto fixed = fx.store->ScrubKey("k", /*repair=*/true);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value().states[pos], ReplicaState::kDiverged);
  EXPECT_EQ(fixed.value().repaired, 1u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fx.replica(i)->Get("k").value(), "majority") << i;
  }
}

TEST(ReplicatingStoreTest, ScrubKeyAllLostIsUnrecoverable) {
  ReplicatedFixture fx(3, 2);
  ASSERT_TRUE(fx.store->Put("k", "v").ok());
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.replica(i)->Delete("k").ok());
  }
  auto audit = fx.store->ScrubKey("k", /*repair=*/true);
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit.value().any_bad());
  EXPECT_FALSE(audit.value().recoverable);
  EXPECT_EQ(audit.value().repaired, 0u);
}

// ---------------------------------------------------------------------------
// Parity groups
// ---------------------------------------------------------------------------

class ParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = {"c/data-0", "c/data-1", "c/data-2"};
    std::vector<std::string> values = {"short", "a rather longer member",
                                       "mid-sized"};
    for (size_t i = 0; i < keys_.size(); ++i) {
      ASSERT_TRUE(PutWithFooter(store_, keys_[i], values[i],
                                Component::kContainerData)
                      .ok());
      raw_.push_back(store_.Get(keys_[i]).value());
    }
  }

  oss::MemoryObjectStore store_;
  ParityManager parity_{&store_, "slim/durability", 3};
  std::vector<std::string> keys_;
  std::vector<std::string> raw_;  // Raw stored bytes incl. footer.
};

TEST_F(ParityTest, ReconstructsAnySingleLostMember) {
  ASSERT_TRUE(parity_.BuildGroup(0, keys_).ok());
  EXPECT_TRUE(parity_.IsFresh(0, keys_).value());
  for (size_t lost = 0; lost < keys_.size(); ++lost) {
    ASSERT_TRUE(store_.Delete(keys_[lost]).ok());
    auto bytes = parity_.Reconstruct(0, keys_[lost]);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    EXPECT_EQ(bytes.value(), raw_[lost]);
    // The reconstructed object is byte-identical, so its footer still
    // verifies.
    EXPECT_TRUE(HasValidFooter(bytes.value()));
    ASSERT_TRUE(store_.Put(keys_[lost], bytes.value()).ok());
  }
}

TEST_F(ParityTest, StaleParityNeverFabricatesBytes) {
  ASSERT_TRUE(parity_.BuildGroup(0, keys_).ok());
  // A member is rewritten after the parity was built (G-node churn)...
  ASSERT_TRUE(PutWithFooter(store_, keys_[1], "rewritten content",
                            Component::kContainerData)
                  .ok());
  EXPECT_FALSE(parity_.IsFresh(0, keys_).value());
  // ...and another member is lost before the group was refreshed: the
  // stale parity must refuse, not hand back garbage.
  ASSERT_TRUE(store_.Delete(keys_[0]).ok());
  EXPECT_EQ(parity_.Reconstruct(0, keys_[0]).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ParityTest, FreshnessTracksMemberSet) {
  ASSERT_TRUE(parity_.BuildGroup(0, keys_).ok());
  EXPECT_TRUE(parity_.IsFresh(0, keys_).value());
  // Missing parity object → not fresh.
  EXPECT_FALSE(parity_.IsFresh(1, keys_).value());
  // Different member set → not fresh.
  std::vector<std::string> fewer(keys_.begin(), keys_.end() - 1);
  EXPECT_FALSE(parity_.IsFresh(0, fewer).value());
  // Rebuild over the new set → fresh again.
  ASSERT_TRUE(parity_.BuildGroup(0, fewer).ok());
  EXPECT_TRUE(parity_.IsFresh(0, fewer).value());
}

TEST_F(ParityTest, BuildRequiresFooterValidMembers) {
  std::string raw = store_.Get(keys_[2]).value();
  raw[0] = static_cast<char>(raw[0] ^ 1);
  ASSERT_TRUE(store_.Put(keys_[2], raw).ok());
  EXPECT_EQ(parity_.BuildGroup(0, keys_).code(),
            StatusCode::kFailedPrecondition);
  // Nothing was written on failure.
  EXPECT_FALSE(store_.Exists(parity_.KeyFor(0)).value());
}

}  // namespace
}  // namespace slim::durability
