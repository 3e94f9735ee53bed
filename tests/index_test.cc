#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "index/bloom.h"
#include "index/dedup_cache.h"
#include "index/global_index.h"
#include "index/similar_file_index.h"
#include "oss/memory_object_store.h"

namespace slim::index {
namespace {

Fingerprint FpOf(const std::string& s) { return Sha1::Hash(s); }

// ---------------------------------------------------------------------------
// BloomFilter
// ---------------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bloom(1000);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 1000; ++i) {
    fps.push_back(FpOf("item-" + std::to_string(i)));
    bloom.Add(fps.back());
  }
  for (const auto& fp : fps) EXPECT_TRUE(bloom.MayContain(fp));
}

TEST(BloomFilterTest, FalsePositiveRateBounded) {
  BloomFilter bloom(10000, 10);
  for (int i = 0; i < 10000; ++i) {
    bloom.Add(FpOf("present-" + std::to_string(i)));
  }
  int fp_count = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (bloom.MayContain(FpOf("absent-" + std::to_string(i)))) ++fp_count;
  }
  // 10 bits/key gives ~1%; allow 3%.
  EXPECT_LT(fp_count, probes * 3 / 100);
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter bloom(10);
  bloom.Add(FpOf("x"));
  ASSERT_TRUE(bloom.MayContain(FpOf("x")));
  bloom.Clear();
  EXPECT_FALSE(bloom.MayContain(FpOf("x")));
  EXPECT_EQ(bloom.added_count(), 0u);
}

// ---------------------------------------------------------------------------
// CountingBloomFilter
// ---------------------------------------------------------------------------

TEST(CountingBloomTest, CountsReferencesUpAndDown) {
  CountingBloomFilter cbf(1000);
  Fingerprint fp = FpOf("chunk");
  cbf.Add(fp);
  cbf.Add(fp);
  cbf.Add(fp);
  EXPECT_GE(cbf.CountEstimate(fp), 3u);
  cbf.Remove(fp);
  cbf.Remove(fp);
  EXPECT_GE(cbf.CountEstimate(fp), 1u);
  cbf.Remove(fp);
  EXPECT_EQ(cbf.CountEstimate(fp), 0u);
  EXPECT_FALSE(cbf.MayContain(fp));
}

TEST(CountingBloomTest, NeverUndercounts) {
  // The min-counter estimate must be >= the true remaining count for
  // every element (collisions only inflate).
  CountingBloomFilter cbf(500);
  std::vector<Fingerprint> fps;
  Rng rng(4);
  std::vector<int> truth(200, 0);
  for (int i = 0; i < 200; ++i) {
    fps.push_back(FpOf("c" + std::to_string(i)));
  }
  for (int step = 0; step < 2000; ++step) {
    int i = static_cast<int>(rng.Uniform(200));
    if (rng.Bernoulli(0.6)) {
      cbf.Add(fps[i]);
      ++truth[i];
    } else if (truth[i] > 0) {
      cbf.Remove(fps[i]);
      --truth[i];
    }
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(cbf.CountEstimate(fps[i]), static_cast<uint32_t>(truth[i]));
  }
}

TEST(CountingBloomTest, RemoveAtZeroIsNoop) {
  CountingBloomFilter cbf(100);
  Fingerprint fp = FpOf("z");
  cbf.Remove(fp);  // Must not underflow.
  EXPECT_EQ(cbf.CountEstimate(fp), 0u);
  cbf.Add(fp);
  EXPECT_GE(cbf.CountEstimate(fp), 1u);
}

// ---------------------------------------------------------------------------
// SimilarFileIndex
// ---------------------------------------------------------------------------

std::vector<Fingerprint> Samples(const std::string& prefix, int n) {
  std::vector<Fingerprint> out;
  for (int i = 0; i < n; ++i) out.push_back(FpOf(prefix + std::to_string(i)));
  return out;
}

TEST(SimilarFileIndexTest, LatestVersionByName) {
  SimilarFileIndex index;
  index.AddFileVersion("a.db", 0, Samples("a0-", 3));
  index.AddFileVersion("a.db", 1, Samples("a1-", 3));
  EXPECT_EQ(index.LatestVersion("a.db").value(), 1u);
  EXPECT_FALSE(index.LatestVersion("b.db").has_value());
}

TEST(SimilarFileIndexTest, FindSimilarPicksMostShared) {
  SimilarFileIndex index;
  index.AddFileVersion("x", 0, Samples("shared-", 5));
  index.AddFileVersion("y", 0, Samples("other-", 5));
  // Query shares 3 samples with x, 1 with y.
  std::vector<Fingerprint> query = {FpOf("shared-0"), FpOf("shared-1"),
                                    FpOf("shared-2"), FpOf("other-0")};
  auto found = index.FindSimilar(query);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->file_id, "x");
}

TEST(SimilarFileIndexTest, MinSharedThreshold) {
  SimilarFileIndex index;
  index.AddFileVersion("x", 0, Samples("s-", 5));
  std::vector<Fingerprint> query = {FpOf("s-0")};
  EXPECT_TRUE(index.FindSimilar(query, 1).has_value());
  EXPECT_FALSE(index.FindSimilar(query, 2).has_value());
}

TEST(SimilarFileIndexTest, PrefersNewerVersionOnTie) {
  SimilarFileIndex index;
  index.AddFileVersion("x", 0, Samples("s-", 3));
  index.AddFileVersion("x", 1, Samples("s-", 3));
  auto found = index.FindSimilar(Samples("s-", 3));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->version, 1u);
}

TEST(SimilarFileIndexTest, RemoveVersionUpdatesLatest) {
  SimilarFileIndex index;
  index.AddFileVersion("x", 0, Samples("v0-", 3));
  index.AddFileVersion("x", 1, Samples("v1-", 3));
  index.RemoveFileVersion("x", 1);
  EXPECT_EQ(index.LatestVersion("x").value(), 0u);
  EXPECT_FALSE(index.FindSimilar(Samples("v1-", 3)).has_value());
  index.RemoveFileVersion("x", 0);
  EXPECT_FALSE(index.LatestVersion("x").has_value());
}

TEST(SimilarFileIndexTest, SaveLoadRoundTrip) {
  oss::MemoryObjectStore store;
  SimilarFileIndex index;
  index.AddFileVersion("f1", 0, Samples("f1-", 4));
  index.AddFileVersion("f2", 7, Samples("f2-", 2));
  ASSERT_TRUE(index.Save(&store, "sfi").ok());

  SimilarFileIndex loaded;
  ASSERT_TRUE(loaded.Load(&store, "sfi").ok());
  EXPECT_EQ(loaded.LatestVersion("f2").value(), 7u);
  auto found = loaded.FindSimilar(Samples("f1-", 4));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->file_id, "f1");
  EXPECT_EQ(loaded.sample_count(), index.sample_count());
}

// ---------------------------------------------------------------------------
// GlobalIndex
// ---------------------------------------------------------------------------

TEST(GlobalIndexTest, PutGetDelete) {
  oss::MemoryObjectStore store;
  GlobalIndex gindex(&store, "g");
  Fingerprint fp = FpOf("chunk");
  ASSERT_TRUE(gindex.Put(fp, 12).ok());
  EXPECT_EQ(gindex.Get(fp).value(), 12u);
  ASSERT_TRUE(gindex.Put(fp, 99).ok());  // Re-point.
  EXPECT_EQ(gindex.Get(fp).value(), 99u);
  ASSERT_TRUE(gindex.Delete(fp).ok());
  EXPECT_TRUE(gindex.Get(fp).status().IsNotFound());
}

TEST(GlobalIndexTest, NotFoundNamesTheFingerprintInHex) {
  oss::MemoryObjectStore store;
  GlobalIndex gindex(&store, "g");
  Fingerprint fp = FpOf("deleted");
  ASSERT_TRUE(gindex.Put(fp, 7).ok());
  ASSERT_TRUE(gindex.Delete(fp).ok());
  // The tombstone in the memtable, then in a flushed run.
  EXPECT_NE(gindex.Get(fp).status().message().find(fp.ToHex()),
            std::string::npos);
  ASSERT_TRUE(gindex.Flush().ok());
  EXPECT_NE(gindex.Get(fp).status().message().find(fp.ToHex()),
            std::string::npos);
  Fingerprint absent = FpOf("absent");
  EXPECT_NE(gindex.Get(absent).status().message().find(absent.ToHex()),
            std::string::npos);
}

TEST(GlobalIndexTest, BloomPrefilter) {
  oss::MemoryObjectStore store;
  GlobalIndex gindex(&store, "g");
  ASSERT_TRUE(gindex.Put(FpOf("present"), 1).ok());
  EXPECT_TRUE(gindex.MayContain(FpOf("present")));
  int false_positives = 0;
  for (int i = 0; i < 1000; ++i) {
    if (gindex.MayContain(FpOf("absent-" + std::to_string(i)))) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, 50);
}

TEST(GlobalIndexTest, ReopenRebuildsBloom) {
  oss::MemoryObjectStore store;
  {
    GlobalIndex gindex(&store, "g");
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(gindex.Put(FpOf("k" + std::to_string(i)), i).ok());
    }
    ASSERT_TRUE(gindex.Flush().ok());
  }
  GlobalIndex reopened(&store, "g");
  ASSERT_TRUE(reopened.Open().ok());
  for (int i = 0; i < 100; ++i) {
    Fingerprint fp = FpOf("k" + std::to_string(i));
    EXPECT_TRUE(reopened.MayContain(fp));
    EXPECT_EQ(reopened.Get(fp).value(), static_cast<uint64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// DedupCache
// ---------------------------------------------------------------------------

format::SegmentRecipe MakeSegment(const std::string& prefix, int n,
                                  format::ContainerId cid = 0) {
  format::SegmentRecipe seg;
  for (int i = 0; i < n; ++i) {
    format::ChunkRecord r;
    r.fp = FpOf(prefix + std::to_string(i));
    r.container_id = cid;
    r.size = 100;
    seg.records.push_back(r);
  }
  return seg;
}

TEST(DedupCacheTest, LookupHitAndMiss) {
  DedupCache cache(4);
  cache.AddSegment(MakeSegment("s-", 5));
  auto h = cache.Lookup(FpOf("s-2"));
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(cache.Record(*h).fp, FpOf("s-2"));
  EXPECT_FALSE(cache.Lookup(FpOf("nope")).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(DedupCacheTest, NextWalksSegmentInOrder) {
  DedupCache cache(4);
  cache.AddSegment(MakeSegment("s-", 3));
  auto h = cache.Lookup(FpOf("s-0"));
  ASSERT_TRUE(h.has_value());
  auto n1 = cache.Next(*h);
  ASSERT_TRUE(n1.has_value());
  EXPECT_EQ(cache.Record(*n1).fp, FpOf("s-1"));
  auto n2 = cache.Next(*n1);
  ASSERT_TRUE(n2.has_value());
  EXPECT_FALSE(cache.Next(*n2).has_value());  // End of segment.
}

TEST(DedupCacheTest, EvictsLruSegment) {
  DedupCache cache(2);
  cache.AddSegment(MakeSegment("a-", 2));
  cache.AddSegment(MakeSegment("b-", 2));
  // Touch segment a so b becomes LRU.
  ASSERT_TRUE(cache.Lookup(FpOf("a-0")).has_value());
  cache.AddSegment(MakeSegment("c-", 2));
  EXPECT_EQ(cache.segment_count(), 2u);
  EXPECT_TRUE(cache.Lookup(FpOf("a-0")).has_value());
  EXPECT_FALSE(cache.Lookup(FpOf("b-0")).has_value());
  EXPECT_TRUE(cache.Lookup(FpOf("c-1")).has_value());
}

TEST(DedupCacheTest, TryRecordOnStaleHandle) {
  DedupCache cache(1);
  cache.AddSegment(MakeSegment("a-", 2));
  auto h = cache.Lookup(FpOf("a-0"));
  ASSERT_TRUE(h.has_value());
  cache.AddSegment(MakeSegment("b-", 2));  // Evicts a.
  EXPECT_EQ(cache.TryRecord(*h), nullptr);
  EXPECT_FALSE(cache.Next(*h).has_value());
}

TEST(DedupCacheTest, ClearEmptiesEverything) {
  DedupCache cache(4);
  cache.AddSegment(MakeSegment("a-", 3));
  cache.Clear();
  EXPECT_EQ(cache.segment_count(), 0u);
  EXPECT_FALSE(cache.Lookup(FpOf("a-0")).has_value());
}

TEST(DedupCacheTest, FirstOccurrenceWinsForDuplicateFps) {
  DedupCache cache(4);
  format::SegmentRecipe seg;
  format::ChunkRecord r1;
  r1.fp = FpOf("dup");
  r1.container_id = 1;
  r1.size = 10;
  format::ChunkRecord r2 = r1;
  r2.container_id = 2;
  seg.records.push_back(r1);
  seg.records.push_back(r2);
  cache.AddSegment(seg);
  auto h = cache.Lookup(FpOf("dup"));
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(cache.Record(*h).container_id, 1u);
}

}  // namespace
}  // namespace slim::index
