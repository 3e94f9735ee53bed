#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "format/chunk.h"
#include "format/container.h"
#include "format/recipe.h"
#include "oss/memory_object_store.h"

namespace slim::format {
namespace {

Fingerprint FpOf(const std::string& s) { return Sha1::Hash(s); }

ChunkRecord MakeRecord(const std::string& content, ContainerId cid,
                       uint32_t dup_times = 0) {
  ChunkRecord r;
  r.fp = FpOf(content);
  r.container_id = cid;
  r.size = static_cast<uint32_t>(content.size());
  r.duplicate_times = dup_times;
  return r;
}

// ---------------------------------------------------------------------------
// ChunkRecord / SegmentRecipe encoding
// ---------------------------------------------------------------------------

TEST(ChunkRecordTest, RoundTrip) {
  ChunkRecord in = MakeRecord("hello", 7, 3);
  std::string buf;
  EncodeChunkRecord(&buf, in);
  Decoder dec(buf);
  ChunkRecord out;
  ASSERT_TRUE(DecodeChunkRecord(&dec, &out).ok());
  EXPECT_EQ(in, out);
}

TEST(ChunkRecordTest, SuperchunkRoundTrip) {
  ChunkRecord in = MakeRecord("super", 9, 5);
  in.is_superchunk = true;
  in.first_chunk_fp = FpOf("first");
  std::string buf;
  EncodeChunkRecord(&buf, in);
  Decoder dec(buf);
  ChunkRecord out;
  ASSERT_TRUE(DecodeChunkRecord(&dec, &out).ok());
  EXPECT_EQ(in, out);
  EXPECT_TRUE(out.is_superchunk);
  EXPECT_EQ(out.first_chunk_fp, FpOf("first"));
}

TEST(SegmentRecipeTest, RoundTripAndLogicalBytes) {
  SegmentRecipe seg;
  seg.records.push_back(MakeRecord("aaa", 1));
  seg.records.push_back(MakeRecord("bbbbb", 2));
  std::string buf;
  seg.Encode(&buf);
  SegmentRecipe out;
  ASSERT_TRUE(SegmentRecipe::Decode(buf, &out).ok());
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0], seg.records[0]);
  EXPECT_EQ(out.LogicalBytes(), 8u);
}

TEST(SegmentRecipeTest, DecodeRejectsTruncation) {
  SegmentRecipe seg;
  seg.records.push_back(MakeRecord("data", 1));
  std::string buf;
  seg.Encode(&buf);
  SegmentRecipe out;
  EXPECT_TRUE(
      SegmentRecipe::Decode(buf.substr(0, buf.size() - 3), &out)
          .IsCorruption());
}

// A count of 2^58 claims far more entries than the bytes that follow
// hold: decoding reports Corruption instead of reserving for them.
constexpr uint64_t kHugeCount = uint64_t{1} << 58;

TEST(DecodeCountTest, SegmentRecipeRejectsHugeCount) {
  std::string buf;
  PutVarint64(&buf, kHugeCount);
  EncodeChunkRecord(&buf, MakeRecord("data", 1));
  SegmentRecipe out;
  EXPECT_TRUE(SegmentRecipe::Decode(buf, &out).IsCorruption());
}

TEST(DecodeCountTest, SuperchunkRejectsHugeConstituentCount) {
  ChunkRecord sc = MakeRecord("span", kInvalidContainerId);
  sc.is_superchunk = true;
  SegmentRecipe seg;
  seg.records.push_back(sc);
  std::string buf;
  seg.Encode(&buf);
  buf.pop_back();  // The zero constituent count, the last field.
  PutVarint64(&buf, kHugeCount);
  SegmentRecipe out;
  EXPECT_TRUE(SegmentRecipe::Decode(buf, &out).IsCorruption());
}

TEST(DecodeCountTest, ContainerMetaRejectsHugeCount) {
  ContainerMeta meta;
  meta.id = 1;
  std::string buf = meta.Encode();
  buf.pop_back();  // The zero chunk count, the last field.
  PutVarint64(&buf, kHugeCount);
  ContainerMeta out;
  EXPECT_TRUE(ContainerMeta::Decode(buf, &out).IsCorruption());
}

TEST(DecodeCountTest, RecipeIndexRejectsHugeCount) {
  RecipeIndex index;
  index.file_id = "f";
  std::string buf = index.Encode();
  buf.pop_back();  // The zero sample count, the last field.
  PutVarint64(&buf, kHugeCount);
  RecipeIndex out;
  EXPECT_TRUE(RecipeIndex::Decode(buf, &out).IsCorruption());
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

TEST(ContainerBuilderTest, AddAndFinish) {
  ContainerBuilder builder(5, 1024);
  EXPECT_TRUE(builder.empty());
  ASSERT_TRUE(builder.Add(FpOf("x"), "xxxx"));
  ASSERT_TRUE(builder.Add(FpOf("y"), "yyyyyy"));
  EXPECT_EQ(builder.chunk_count(), 2u);
  EXPECT_EQ(builder.payload_size(), 10u);

  std::string payload;
  ContainerMeta meta;
  builder.Finish(&payload, &meta);
  EXPECT_EQ(meta.id, 5u);
  EXPECT_EQ(meta.data_size, 10u);
  ASSERT_EQ(meta.chunks.size(), 2u);
  EXPECT_EQ(meta.chunks[0].offset, 0u);
  EXPECT_EQ(meta.chunks[1].offset, 4u);
  EXPECT_EQ(payload, "xxxxyyyyyy");
}

TEST(ContainerBuilderTest, CapacityRejectsWhenFull) {
  ContainerBuilder builder(1, 10);
  ASSERT_TRUE(builder.Add(FpOf("a"), "123456"));
  EXPECT_FALSE(builder.Add(FpOf("b"), "123456"));  // Would exceed 10.
  // First chunk is always accepted even if larger than capacity.
  ContainerBuilder big(2, 4);
  EXPECT_TRUE(big.Add(FpOf("c"), "12345678"));
}

TEST(ContainerMetaTest, RoundTripWithDeletedFlags) {
  ContainerMeta meta;
  meta.id = 42;
  meta.data_size = 100;
  meta.payload_checksum = 0xabc;
  meta.chunks.push_back({FpOf("a"), 0, 50, false});
  meta.chunks.push_back({FpOf("b"), 50, 50, true});
  ContainerMeta out;
  ASSERT_TRUE(ContainerMeta::Decode(meta.Encode(), &out).ok());
  EXPECT_EQ(out.id, 42u);
  ASSERT_EQ(out.chunks.size(), 2u);
  EXPECT_FALSE(out.chunks[0].deleted);
  EXPECT_TRUE(out.chunks[1].deleted);
  EXPECT_DOUBLE_EQ(out.DeletedFraction(), 0.5);
}

TEST(ContainerMetaTest, FindByFingerprint) {
  ContainerMeta meta;
  meta.chunks.push_back({FpOf("a"), 0, 3, false});
  EXPECT_NE(meta.Find(FpOf("a")), nullptr);
  EXPECT_EQ(meta.Find(FpOf("zz")), nullptr);
}

class ContainerStoreTest : public ::testing::Test {
 protected:
  ContainerStoreTest() : store_(&oss_, "c") {}

  ContainerId WriteContainer(const std::vector<std::string>& chunks) {
    ContainerBuilder builder(store_.AllocateId(), 1 << 20);
    for (const auto& c : chunks) {
      EXPECT_TRUE(builder.Add(FpOf(c), c));
    }
    ContainerId id = builder.id();
    EXPECT_TRUE(store_.Write(std::move(builder)).ok());
    return id;
  }

  oss::MemoryObjectStore oss_;
  ContainerStore store_;
};

TEST_F(ContainerStoreTest, WriteReadRoundTrip) {
  ContainerId id = WriteContainer({"alpha", "beta", "gamma"});
  auto loaded = store_.ReadContainer(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().directory.chunks.size(), 3u);
  auto chunk = loaded.value().GetChunk(FpOf("beta"));
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(*chunk, "beta");
  EXPECT_FALSE(loaded.value().GetChunk(FpOf("nope")).has_value());
}

TEST_F(ContainerStoreTest, MetaReadWrite) {
  ContainerId id = WriteContainer({"one", "two"});
  auto meta = store_.ReadMeta(id);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().chunks.size(), 2u);
  meta.value().chunks[0].deleted = true;
  ASSERT_TRUE(store_.WriteMeta(meta.value()).ok());
  auto reread = store_.ReadMeta(id);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread.value().chunks[0].deleted);
}

TEST_F(ContainerStoreTest, CompactDropsDeletedChunks) {
  ContainerId id = WriteContainer({"keepme", "dropme", "keeptoo"});
  auto meta = store_.ReadMeta(id);
  ASSERT_TRUE(meta.ok());
  for (auto& c : meta.value().chunks) {
    if (c.fp == FpOf("dropme")) c.deleted = true;
  }
  ASSERT_TRUE(store_.WriteMeta(meta.value()).ok());
  auto reclaimed = store_.CompactContainer(meta.value());
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 6u);  // strlen("dropme")

  auto loaded = store_.ReadContainer(id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().directory.chunks.size(), 2u);
  EXPECT_FALSE(loaded.value().GetChunk(FpOf("dropme")).has_value());
  EXPECT_EQ(*loaded.value().GetChunk(FpOf("keepme")), "keepme");
  EXPECT_EQ(*loaded.value().GetChunk(FpOf("keeptoo")), "keeptoo");
}

TEST_F(ContainerStoreTest, DeleteRemovesBothObjects) {
  ContainerId id = WriteContainer({"gone"});
  ASSERT_TRUE(store_.Delete(id).ok());
  EXPECT_FALSE(store_.Exists(id).value());
  EXPECT_TRUE(store_.ReadMeta(id).status().IsNotFound());
}

TEST_F(ContainerStoreTest, ListAndTotalBytes) {
  WriteContainer({"aa"});
  WriteContainer({"bbbb"});
  auto ids = store_.ListContainerIds();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 2u);
  auto total = store_.TotalStoredBytes();
  ASSERT_TRUE(total.ok());
  EXPECT_GT(total.value(), 6u);  // Payload plus directory headers.
}

TEST_F(ContainerStoreTest, CorruptPayloadDetected) {
  ContainerId id = WriteContainer({"payload-bytes"});
  // Flip a byte in the stored object.
  std::string key = "c/data-00000000000000000000";
  auto object = oss_.Get(key);
  ASSERT_TRUE(object.ok());
  std::string mutated = object.value();
  mutated[mutated.size() - 2] =
      static_cast<char>(mutated[mutated.size() - 2] ^ 0xff);
  ASSERT_TRUE(oss_.Put(key, mutated).ok());
  EXPECT_TRUE(store_.ReadContainer(id).status().IsCorruption());
}

TEST_F(ContainerStoreTest, AllocateIdsAreUnique) {
  std::set<ContainerId> ids;
  for (int i = 0; i < 100; ++i) ids.insert(store_.AllocateId());
  EXPECT_EQ(ids.size(), 100u);
}

// ---------------------------------------------------------------------------
// Recipe store
// ---------------------------------------------------------------------------

Recipe MakeRecipe(const std::string& file_id, uint64_t version,
                  size_t num_segments, size_t records_per_segment) {
  Recipe recipe;
  recipe.file_id = file_id;
  recipe.version = version;
  for (size_t s = 0; s < num_segments; ++s) {
    SegmentRecipe seg;
    for (size_t r = 0; r < records_per_segment; ++r) {
      seg.records.push_back(MakeRecord(
          "chunk-" + std::to_string(s) + "-" + std::to_string(r), s, 0));
    }
    recipe.segments.push_back(std::move(seg));
  }
  return recipe;
}

class RecipeStoreTest : public ::testing::Test {
 protected:
  RecipeStoreTest() : store_(&oss_, "r") {}
  oss::MemoryObjectStore oss_;
  RecipeStore store_;
};

TEST_F(RecipeStoreTest, WriteReadRoundTrip) {
  Recipe recipe = MakeRecipe("db/users.db", 3, 4, 10);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 4).ok());
  auto out = store_.ReadRecipe("db/users.db", 3);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().file_id, "db/users.db");
  EXPECT_EQ(out.value().version, 3u);
  ASSERT_EQ(out.value().segments.size(), 4u);
  EXPECT_EQ(out.value().segments[2].records, recipe.segments[2].records);
}

TEST_F(RecipeStoreTest, ReadSegmentFetchesExactSegment) {
  Recipe recipe = MakeRecipe("f", 0, 5, 7);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 4).ok());
  for (uint32_t s = 0; s < 5; ++s) {
    auto seg = store_.ReadSegment("f", 0, s);
    ASSERT_TRUE(seg.ok());
    EXPECT_EQ(seg.value().records, recipe.segments[s].records);
  }
  EXPECT_FALSE(store_.ReadSegment("f", 0, 5).ok());
}

TEST_F(RecipeStoreTest, IndexContainsSamplesAndAllSegments) {
  Recipe recipe = MakeRecipe("f", 0, 6, 20);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 4).ok());
  auto index = store_.ReadIndex("f", 0);
  ASSERT_TRUE(index.ok());
  // Every segment must be discoverable through at least one sample.
  std::set<uint32_t> segments;
  for (const auto& [fp, ordinal] : index.value().sample_to_segment) {
    segments.insert(ordinal);
  }
  EXPECT_EQ(segments.size(), 6u);
}

TEST_F(RecipeStoreTest, SuperchunkFirstFingerprintIndexed) {
  Recipe recipe;
  recipe.file_id = "f";
  recipe.version = 0;
  SegmentRecipe seg;
  ChunkRecord sc = MakeRecord("superchunk-data", 0);
  sc.is_superchunk = true;
  sc.first_chunk_fp = FpOf("the-first-chunk");
  seg.records.push_back(sc);
  recipe.segments.push_back(seg);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 1u << 30).ok());
  auto index = store_.ReadIndex("f", 0);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value().sample_to_segment.count(FpOf("the-first-chunk")) >
              0);
}

TEST_F(RecipeStoreTest, ListVersionsSorted) {
  for (uint64_t v : {2u, 0u, 1u}) {
    ASSERT_TRUE(store_.WriteRecipe(MakeRecipe("f", v, 1, 1), 4).ok());
  }
  auto versions = store_.ListVersions("f");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions.value(), (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(RecipeStoreTest, DeleteVersionRemovesAllObjects) {
  ASSERT_TRUE(store_.WriteRecipe(MakeRecipe("f", 0, 2, 2), 4).ok());
  ASSERT_TRUE(store_.DeleteVersion("f", 0).ok());
  EXPECT_TRUE(store_.ReadRecipe("f", 0).status().IsNotFound());
  EXPECT_TRUE(store_.ReadIndex("f", 0).status().IsNotFound());
  EXPECT_TRUE(store_.ListVersions("f").value().empty());
}

TEST_F(RecipeStoreTest, FileIdsWithSlashesAreEscaped) {
  Recipe recipe = MakeRecipe("dir/sub/file%.db", 1, 1, 1);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 4).ok());
  auto out = store_.ReadRecipe("dir/sub/file%.db", 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().file_id, "dir/sub/file%.db");
  // A different file with a name that would collide unescaped stays
  // separate.
  EXPECT_TRUE(store_.ReadRecipe("dir/sub/file%", 1).status().IsNotFound());
}

TEST_F(RecipeStoreTest, RecipeRewriteInvalidatesTocCache) {
  Recipe recipe = MakeRecipe("f", 0, 2, 3);
  ASSERT_TRUE(store_.WriteRecipe(recipe, 4).ok());
  ASSERT_TRUE(store_.ReadSegment("f", 0, 0).ok());  // Populates toc cache.
  // Rewrite with different segmentation (SCC-style recipe update).
  Recipe updated = MakeRecipe("f", 0, 3, 5);
  ASSERT_TRUE(store_.WriteRecipe(updated, 4).ok());
  auto seg = store_.ReadSegment("f", 0, 2);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg.value().records, updated.segments[2].records);
}

TEST(RecipeTest, FlattenPreservesOrder) {
  Recipe recipe = MakeRecipe("f", 0, 3, 2);
  auto flat = recipe.Flatten();
  ASSERT_EQ(flat.size(), 6u);
  EXPECT_EQ(flat[0], recipe.segments[0].records[0]);
  EXPECT_EQ(flat[5], recipe.segments[2].records[1]);
  EXPECT_EQ(recipe.TotalChunks(), 6u);
}

TEST(EscapeFileIdTest, EscapesSlashAndPercent) {
  EXPECT_EQ(EscapeFileId("a/b"), "a%2fb");
  EXPECT_EQ(EscapeFileId("a%b"), "a%25b");
  EXPECT_EQ(EscapeFileId("plain"), "plain");
}

}  // namespace
}  // namespace slim::format
