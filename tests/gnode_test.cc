#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/slimstore.h"
#include "gnode/reverse_dedup.h"
#include "gnode/scc.h"
#include "gnode/version_collector.h"
#include "index/global_index.h"
#include "oss/memory_object_store.h"
#include "workload/generator.h"

namespace slim::gnode {
namespace {

using format::ChunkRecord;
using format::ContainerBuilder;
using format::ContainerId;
using format::ContainerStore;
using format::Recipe;
using format::RecipeStore;
using format::SegmentRecipe;

Fingerprint FpOf(const std::string& s) { return Sha1::Hash(s); }

/// Fixture with raw stores (no SlimStore facade) for precise G-node
/// unit tests.
class GNodeUnitTest : public ::testing::Test {
 protected:
  GNodeUnitTest()
      : containers_(&oss_, "c"), recipes_(&oss_, "r"), gindex_(&oss_, "g") {}

  /// Writes a container holding the given chunk contents; returns id.
  ContainerId WriteContainer(const std::vector<std::string>& chunks) {
    ContainerBuilder builder(containers_.AllocateId(), 1 << 20);
    for (const auto& c : chunks) EXPECT_TRUE(builder.Add(FpOf(c), c));
    ContainerId id = builder.id();
    EXPECT_TRUE(containers_.Write(std::move(builder)).ok());
    return id;
  }

  /// Registers chunks of a container in the global index.
  void IndexContainer(ContainerId id,
                      const std::vector<std::string>& chunks) {
    for (const auto& c : chunks) {
      ASSERT_TRUE(gindex_.Put(FpOf(c), id).ok());
    }
  }

  Recipe MakeRecipe(const std::string& file, uint64_t version,
                    const std::vector<std::pair<std::string, ContainerId>>&
                        chunks) {
    Recipe recipe;
    recipe.file_id = file;
    recipe.version = version;
    SegmentRecipe seg;
    for (const auto& [content, cid] : chunks) {
      ChunkRecord r;
      r.fp = FpOf(content);
      r.container_id = cid;
      r.size = static_cast<uint32_t>(content.size());
      seg.records.push_back(r);
    }
    recipe.segments.push_back(seg);
    return recipe;
  }

  oss::MemoryObjectStore oss_;
  ContainerStore containers_;
  RecipeStore recipes_;
  index::GlobalIndex gindex_;
};

// ---------------------------------------------------------------------------
// ReverseDeduplicator
// ---------------------------------------------------------------------------

TEST_F(GNodeUnitTest, ReverseDedupRegistersNewChunks) {
  ContainerId id = WriteContainer({"aaa", "bbb"});
  ReverseDeduplicator rd(&containers_, &gindex_);
  auto stats = rd.ProcessNewContainers({id});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks_filtered, 2u);
  EXPECT_EQ(stats.value().index_inserts, 2u);
  EXPECT_EQ(stats.value().duplicates_found, 0u);
  EXPECT_EQ(gindex_.Get(FpOf("aaa")).value(), id);
}

TEST_F(GNodeUnitTest, ReverseDedupBloomSkipsUniqueChunks) {
  ContainerId id = WriteContainer({"u1", "u2", "u3"});
  ReverseDeduplicator rd(&containers_, &gindex_);
  auto stats = rd.ProcessNewContainers({id});
  ASSERT_TRUE(stats.ok());
  // All chunks were globally new: the bloom pre-filter should have
  // short-circuited (almost) all of them.
  EXPECT_GE(stats.value().bloom_negatives, 2u);
}

TEST_F(GNodeUnitTest, ReverseDedupTombstonesOldCopy) {
  ContainerId old_id = WriteContainer({"shared", "only-old"});
  IndexContainer(old_id, {"shared", "only-old"});
  ContainerId new_id = WriteContainer({"shared", "only-new"});

  ReverseDeduplicator rd(&containers_, &gindex_);
  auto stats = rd.ProcessNewContainers({new_id});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().duplicates_found, 1u);
  // Index re-pointed to the new (kept) copy.
  EXPECT_EQ(gindex_.Get(FpOf("shared")).value(), new_id);
  // Old copy tombstoned but data intact (below rewrite threshold? 1/2
  // = 50% > 20%, so it should have been compacted away).
  auto loaded = containers_.ReadContainer(old_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().GetChunk(FpOf("shared")).has_value());
  EXPECT_TRUE(loaded.value().GetChunk(FpOf("only-old")).has_value());
}

TEST_F(GNodeUnitTest, ReverseDedupRespectsRewriteThreshold) {
  // 1 duplicate among 6 chunks (16% < 20%): tombstone only, no rewrite.
  ContainerId old_id =
      WriteContainer({"dup", "k1", "k2", "k3", "k4", "k5"});
  IndexContainer(old_id, {"dup", "k1", "k2", "k3", "k4", "k5"});
  ContainerId new_id = WriteContainer({"dup"});

  ReverseDedupOptions options;
  options.rewrite_threshold = 0.20;
  ReverseDeduplicator rd(&containers_, &gindex_, options);
  auto stats = rd.ProcessNewContainers({new_id});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().duplicates_found, 1u);
  EXPECT_EQ(stats.value().containers_rewritten, 0u);
  // Data still present (only meta tombstoned).
  auto loaded = containers_.ReadContainer(old_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().GetChunk(FpOf("dup")).has_value());
  auto meta = containers_.ReadMeta(old_id);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().DeletedCount(), 1u);
}

TEST_F(GNodeUnitTest, ReverseDedupIdempotentOnRerun) {
  ContainerId old_id = WriteContainer({"x"});
  IndexContainer(old_id, {"x"});
  ContainerId new_id = WriteContainer({"x"});
  ReverseDeduplicator rd(&containers_, &gindex_);
  ASSERT_TRUE(rd.ProcessNewContainers({new_id}).ok());
  auto second = rd.ProcessNewContainers({new_id});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().duplicates_found, 0u);
  EXPECT_EQ(gindex_.Get(FpOf("x")).value(), new_id);
}

TEST_F(GNodeUnitTest, ReverseDedupKeepsNewerWhenBothInBatch) {
  // Both copies in the same batch (backup + SCC scenario): the copy in
  // the higher-numbered container must win, the other be tombstoned.
  ContainerId first = WriteContainer({"pp"});
  ContainerId second = WriteContainer({"pp"});
  ReverseDeduplicator rd(&containers_, &gindex_);
  auto stats = rd.ProcessNewContainers({first, second});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().duplicates_found, 1u);
  EXPECT_EQ(gindex_.Get(FpOf("pp")).value(), second);
  // The newer copy is alive.
  auto meta = containers_.ReadMeta(second);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().DeletedCount(), 0u);
}

// ---------------------------------------------------------------------------
// SparseContainerCompactor
// ---------------------------------------------------------------------------

TEST_F(GNodeUnitTest, SccMovesReferencedChunksAndUpdatesRecipe) {
  ContainerId sparse_id =
      WriteContainer({"wanted-1", "wanted-2", "junk-1", "junk-2",
                      "junk-3", "junk-4"});
  IndexContainer(sparse_id, {"wanted-1", "wanted-2"});
  Recipe recipe = MakeRecipe("f", 3, {{"wanted-1", sparse_id},
                                      {"wanted-2", sparse_id}});
  ASSERT_TRUE(recipes_.WriteRecipe(recipe, 4).ok());

  SparseContainerCompactor scc(&containers_, &recipes_, &gindex_);
  std::vector<ContainerId> new_ids;
  auto stats = scc.Compact("f", 3, {sparse_id}, &new_ids);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().chunks_moved, 2u);
  EXPECT_EQ(stats.value().new_containers, 1u);
  EXPECT_GT(stats.value().bytes_reclaimed, 0u);
  ASSERT_EQ(new_ids.size(), 1u);

  // Recipe now points at the dense container.
  auto updated = recipes_.ReadRecipe("f", 3);
  ASSERT_TRUE(updated.ok());
  for (const auto& rec : updated.value().Flatten()) {
    EXPECT_EQ(rec.container_id, new_ids[0]);
  }
  // Global index redirected.
  EXPECT_EQ(gindex_.Get(FpOf("wanted-1")).value(), new_ids[0]);
  // Source compacted: moved chunks gone, junk retained.
  auto loaded = containers_.ReadContainer(sparse_id);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().GetChunk(FpOf("wanted-1")).has_value());
  EXPECT_TRUE(loaded.value().GetChunk(FpOf("junk-1")).has_value());
}

TEST_F(GNodeUnitTest, SccNoopWithoutSparseContainers) {
  Recipe recipe = MakeRecipe("f", 0, {});
  ASSERT_TRUE(recipes_.WriteRecipe(recipe, 4).ok());
  SparseContainerCompactor scc(&containers_, &recipes_, &gindex_);
  auto stats = scc.Compact("f", 0, {}, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks_moved, 0u);
}

TEST_F(GNodeUnitTest, SccIgnoresSparseContainersNotReferenced) {
  ContainerId unrelated = WriteContainer({"zzz"});
  Recipe recipe = MakeRecipe("f", 1, {});
  ASSERT_TRUE(recipes_.WriteRecipe(recipe, 4).ok());
  SparseContainerCompactor scc(&containers_, &recipes_, &gindex_);
  auto stats = scc.Compact("f", 1, {unrelated}, nullptr);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks_moved, 0u);
  // Unrelated container untouched.
  EXPECT_TRUE(
      containers_.ReadContainer(unrelated).value().GetChunk(FpOf("zzz"))
          .has_value());
}

TEST_F(GNodeUnitTest, SccUpdatesSuperchunkConstituents) {
  ContainerId sparse_id = WriteContainer({"c1", "c2", "f0", "f1", "f2",
                                          "f3", "f4", "f5"});
  // A recipe whose superchunk constituents live in the sparse container.
  Recipe recipe;
  recipe.file_id = "f";
  recipe.version = 9;
  SegmentRecipe seg;
  ChunkRecord sc;
  sc.fp = FpOf("span");
  sc.container_id = format::kInvalidContainerId;
  sc.size = 4;
  sc.is_superchunk = true;
  sc.first_chunk_fp = FpOf("c1");
  auto constituents = std::make_shared<std::vector<ChunkRecord>>();
  for (const char* c : {"c1", "c2"}) {
    ChunkRecord r;
    r.fp = FpOf(c);
    r.container_id = sparse_id;
    r.size = 2;
    constituents->push_back(r);
  }
  sc.constituents = constituents;
  seg.records.push_back(sc);
  recipe.segments.push_back(seg);
  ASSERT_TRUE(recipes_.WriteRecipe(recipe, 4).ok());

  SparseContainerCompactor scc(&containers_, &recipes_, &gindex_);
  std::vector<ContainerId> new_ids;
  auto stats = scc.Compact("f", 9, {sparse_id}, &new_ids);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().chunks_moved, 2u);
  ASSERT_EQ(new_ids.size(), 1u);

  auto updated = recipes_.ReadRecipe("f", 9);
  ASSERT_TRUE(updated.ok());
  const auto& record = updated.value().segments[0].records[0];
  ASSERT_TRUE(record.is_superchunk);
  ASSERT_NE(record.constituents, nullptr);
  for (const auto& constituent : *record.constituents) {
    EXPECT_EQ(constituent.container_id, new_ids[0]);
  }
}

// ---------------------------------------------------------------------------
// VersionCollector
// ---------------------------------------------------------------------------

TEST_F(GNodeUnitTest, MarkSweepReclaimsUnreferencedContainers) {
  ContainerId only_v0 = WriteContainer({"v0-only"});
  ContainerId shared = WriteContainer({"shared"});
  IndexContainer(only_v0, {"v0-only"});
  IndexContainer(shared, {"shared"});
  ASSERT_TRUE(recipes_
                  .WriteRecipe(MakeRecipe("f", 0, {{"v0-only", only_v0},
                                                   {"shared", shared}}),
                               4)
                  .ok());
  ASSERT_TRUE(
      recipes_.WriteRecipe(MakeRecipe("f", 1, {{"shared", shared}}), 4)
          .ok());

  index::SimilarFileIndex sfi;
  VersionCollector collector(&containers_, &recipes_, &sfi, &gindex_);
  auto stats = collector.CollectMarkSweep(
      "f", 0, {{"f", 0}, {"f", 1}});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().containers_deleted, 1u);
  EXPECT_FALSE(containers_.Exists(only_v0).value());
  EXPECT_TRUE(containers_.Exists(shared).value());
  // The recipe is gone; the reclaimed chunk's index entry scrubbed.
  EXPECT_TRUE(recipes_.ReadRecipe("f", 0).status().IsNotFound());
  EXPECT_TRUE(gindex_.Get(FpOf("v0-only")).status().IsNotFound());
  EXPECT_TRUE(gindex_.Get(FpOf("shared")).ok());
}

TEST_F(GNodeUnitTest, PrecomputedSweepHonorsLiveSets) {
  ContainerId candidate = WriteContainer({"maybe"});
  ASSERT_TRUE(
      recipes_.WriteRecipe(MakeRecipe("f", 0, {{"maybe", candidate}}), 4)
          .ok());
  index::SimilarFileIndex sfi;
  VersionCollector collector(&containers_, &recipes_, &sfi, &gindex_);
  // Another live version still references the candidate: not reclaimed.
  auto stats = collector.CollectPrecomputed("f", 0, {candidate},
                                            {{candidate}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().containers_deleted, 0u);
  EXPECT_TRUE(containers_.Exists(candidate).value());
}

TEST_F(GNodeUnitTest, PrecomputedSweepReclaimsWhenNothingReferences) {
  ContainerId candidate = WriteContainer({"gone"});
  IndexContainer(candidate, {"gone"});
  ASSERT_TRUE(
      recipes_.WriteRecipe(MakeRecipe("f", 0, {{"gone", candidate}}), 4)
          .ok());
  index::SimilarFileIndex sfi;
  VersionCollector collector(&containers_, &recipes_, &sfi, &gindex_);
  auto stats = collector.CollectPrecomputed("f", 0, {candidate}, {});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().containers_deleted, 1u);
  EXPECT_GT(stats.value().bytes_reclaimed, 0u);
  EXPECT_FALSE(containers_.Exists(candidate).value());
}

TEST_F(GNodeUnitTest, SweepSkipsAlreadyReclaimedContainers) {
  ContainerId candidate = WriteContainer({"dup-listed"});
  ASSERT_TRUE(
      recipes_.WriteRecipe(MakeRecipe("f", 0, {{"dup-listed", candidate}}),
                           4)
          .ok());
  ASSERT_TRUE(containers_.Delete(candidate).ok());  // Reclaimed earlier.
  index::SimilarFileIndex sfi;
  VersionCollector collector(&containers_, &recipes_, &sfi, &gindex_);
  auto stats = collector.CollectPrecomputed("f", 0, {candidate}, {});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().containers_deleted, 0u);
}

TEST_F(GNodeUnitTest, MarkSweepHonorsSuperchunkConstituents) {
  // A live version references a container ONLY through superchunk
  // constituents; GC of an older version must not reclaim it.
  ContainerId via_constituent = WriteContainer({"cc"});
  ASSERT_TRUE(recipes_
                  .WriteRecipe(
                      MakeRecipe("f", 0, {{"cc", via_constituent}}), 4)
                  .ok());
  Recipe live;
  live.file_id = "f";
  live.version = 1;
  SegmentRecipe seg;
  ChunkRecord sc;
  sc.fp = FpOf("span");
  sc.container_id = format::kInvalidContainerId;
  sc.is_superchunk = true;
  sc.size = 2;
  sc.first_chunk_fp = FpOf("cc");
  auto constituents = std::make_shared<std::vector<ChunkRecord>>();
  ChunkRecord c;
  c.fp = FpOf("cc");
  c.container_id = via_constituent;
  c.size = 2;
  constituents->push_back(c);
  sc.constituents = constituents;
  seg.records.push_back(sc);
  live.segments.push_back(seg);
  ASSERT_TRUE(recipes_.WriteRecipe(live, 4).ok());

  index::SimilarFileIndex sfi;
  VersionCollector collector(&containers_, &recipes_, &sfi, &gindex_);
  auto stats = collector.CollectMarkSweep("f", 0, {{"f", 0}, {"f", 1}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().containers_deleted, 0u);
  EXPECT_TRUE(containers_.Exists(via_constituent).value());
}

// ---------------------------------------------------------------------------
// OSS traffic of a whole G-node cycle
// ---------------------------------------------------------------------------

/// Forwards every operation, and logs its kind and key between Record()
/// and Stop().
class RecordingObjectStore : public oss::ObjectStore {
 public:
  struct Op {
    std::string kind;
    std::string key;
  };

  explicit RecordingObjectStore(oss::ObjectStore* inner) : inner_(inner) {}

  Status Put(const std::string& key, std::string value) override {
    Log("put", key);
    return inner_->Put(key, std::move(value));
  }
  Result<std::string> Get(const std::string& key) override {
    Log("get", key);
    return inner_->Get(key);
  }
  Result<std::string> GetRange(const std::string& key, uint64_t offset,
                               uint64_t len) override {
    Log("getrange", key);
    return inner_->GetRange(key, offset, len);
  }
  Status Delete(const std::string& key) override {
    Log("delete", key);
    return inner_->Delete(key);
  }
  Result<bool> Exists(const std::string& key) override {
    Log("exists", key);
    return inner_->Exists(key);
  }
  Result<uint64_t> Size(const std::string& key) override {
    Log("size", key);
    return inner_->Size(key);
  }
  Result<std::vector<std::string>> List(const std::string& prefix) override {
    Log("list", prefix);
    return inner_->List(prefix);
  }

  /// Starts a fresh log.
  void Record() {
    std::lock_guard<std::mutex> lock(mu_);
    ops_.clear();
    recording_ = true;
  }
  /// Stops logging and returns the log.
  std::vector<Op> Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = false;
    return ops_;
  }

 private:
  void Log(std::string_view kind, const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (recording_) ops_.push_back({std::string(kind), key});
  }

  oss::ObjectStore* inner_;
  std::mutex mu_;
  bool recording_ = false;
  std::vector<Op> ops_;
};

size_t CountOps(const std::vector<RecordingObjectStore::Op>& ops,
                std::string_view kind, std::string_view key_part) {
  return static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(), [&](const auto& op) {
        return op.kind == kind && op.key.find(key_part) != std::string::npos;
      }));
}

/// SlimStore with the crash-sweep options (8 KiB containers, sparse
/// threshold 0.9), so a small file spans many containers and SCC has
/// several sources. Reverse dedup is off: it reads and writes metas of
/// its own, and these tests pin SCC's traffic.
class GNodeCycleOssTest : public ::testing::Test {
 protected:
  GNodeCycleOssTest() : oss_(&mem_), slim_(&oss_, Options()) {}

  static core::SlimStoreOptions Options() {
    core::SlimStoreOptions options;
    options.backup.container_capacity = 8 << 10;
    options.backup.sparse_utilization_threshold = 0.9;
    options.enable_reverse_dedup = false;
    return options;
  }

  /// Backs up version 0 of "f" and runs its G-node pass, then backs up
  /// version 1, whose pass is left pending. Version 1 changes one byte
  /// every 12 KiB: that changes about one chunk in three, so version 0's
  /// containers that hold several chunks turn sparse. Returns both
  /// versions.
  std::vector<std::string> BackUpTwoVersions(size_t size) {
    workload::GeneratorOptions gopts;
    gopts.base_size = size;
    workload::VersionedFileGenerator gen(gopts);
    std::vector<std::string> versions{gen.data(), gen.data()};
    for (size_t pos = 6 << 10; pos < size; pos += 12 << 10) {
      versions[1][pos] = static_cast<char>(versions[1][pos] ^ 0x5a);
    }
    EXPECT_TRUE(slim_.Backup("f", versions[0]).ok());
    EXPECT_TRUE(slim_.RunGNodeCycle().ok());
    EXPECT_TRUE(slim_.Backup("f", versions[1]).ok());
    return versions;
  }

  /// Runs the G-node cycle over version 1 and checks its traffic: the
  /// recipe and every source meta are read once, a source payload is
  /// read once unless the copy phase read it past the retention cap, and
  /// the PUTs keep SCC's write order. Returns the number of sources the
  /// copy phase read.
  size_t RunCycleAndCheckTraffic() {
    auto info = slim_.catalog()->Get("f", 1);
    EXPECT_TRUE(info.has_value());
    if (!info.has_value()) return 0;
    const std::vector<ContainerId> sources = info->sparse_containers;
    EXPECT_GE(sources.size(), 2u);
    const format::ContainerStore& cs = *slim_.container_store();
    std::map<std::string, ContainerId> source_of;
    for (ContainerId cid : sources) {
      source_of[cs.DataObjectKey(cid)] = cid;
      source_of[cs.MetaObjectKey(cid)] = cid;
    }

    oss_.Record();
    auto cycle = slim_.RunGNodeCycle();
    const auto ops = oss_.Stop();
    EXPECT_TRUE(cycle.ok()) << cycle.status();
    if (!cycle.ok()) return 0;
    EXPECT_GT(cycle.value().scc.chunks_moved, 0u);

    EXPECT_EQ(CountOps(ops, "get", "/recipes/recipe/"), 1u);
    // The copy phase is everything before the recipe commit.
    auto commit = std::find_if(ops.begin(), ops.end(), [](const auto& op) {
      return op.kind == "put" &&
             op.key.find("/recipes/") != std::string::npos;
    });
    EXPECT_NE(commit, ops.end());
    std::vector<ContainerId> copy_reads;
    for (auto it = ops.begin(); it != commit; ++it) {
      if (it->kind == "get" && source_of.count(it->key) != 0 &&
          it->key == cs.DataObjectKey(source_of.at(it->key))) {
        copy_reads.push_back(source_of.at(it->key));
      }
    }
    for (ContainerId cid : sources) {
      EXPECT_EQ(CountOps(ops, "get", cs.MetaObjectKey(cid)), 1u)
          << "meta of source " << cid;
      auto pos = std::find(copy_reads.begin(), copy_reads.end(), cid);
      bool past_cap =
          pos != copy_reads.end() &&
          static_cast<size_t>(pos - copy_reads.begin()) >=
              SparseContainerCompactor::kMaxRetainedPayloads;
      EXPECT_EQ(CountOps(ops, "get", cs.DataObjectKey(cid)),
                past_cap ? 2u : 1u)
          << "payload of source " << cid;
    }

    // Stage of each PUT, in the order SCC must write: 0 new container,
    // 1 recipe objects (toc, index, recipe), 2 source tombstones, 3 the
    // global index run, 4 compacted sources.
    std::vector<int> stages;
    std::map<ContainerId, bool> compacted;
    for (const auto& op : ops) {
      if (op.kind != "put") continue;
      int stage = -1;
      auto src = source_of.find(op.key);
      if (src != source_of.end()) {
        if (op.key == cs.DataObjectKey(src->second)) {
          compacted[src->second] = true;
        }
        stage = compacted[src->second] ? 4 : 2;
      } else if (op.key.find("/recipes/") != std::string::npos) {
        stage = 1;
      } else if (op.key.find("/gindex/") != std::string::npos) {
        stage = 3;
      } else if (op.key.find("/containers/") != std::string::npos) {
        stage = 0;
      }
      EXPECT_NE(stage, -1) << "unexpected PUT " << op.key;
      stages.push_back(stage);
    }
    EXPECT_TRUE(std::is_sorted(stages.begin(), stages.end()));
    for (int stage = 0; stage <= 4; ++stage) {
      EXPECT_NE(std::count(stages.begin(), stages.end(), stage), 0)
          << "no PUT of stage " << stage;
    }
    return copy_reads.size();
  }

  void ExpectRestores(const std::vector<std::string>& versions) {
    auto report = slim_.VerifyRepository();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report.value().ok())
        << (report.value().problems.empty() ? ""
                                            : report.value().problems[0]);
    for (uint64_t v = 0; v < versions.size(); ++v) {
      auto data = slim_.Restore("f", v);
      ASSERT_TRUE(data.ok()) << data.status();
      EXPECT_EQ(data.value(), versions[v]) << "version " << v;
    }
  }

  oss::MemoryObjectStore mem_;
  RecordingObjectStore oss_;
  core::SlimStore slim_;
};

TEST_F(GNodeCycleOssTest, SccReadsEachObjectOnceAndKeepsWriteOrder) {
  auto versions = BackUpTwoVersions(512 << 10);
  size_t copy_reads = RunCycleAndCheckTraffic();
  EXPECT_GE(copy_reads, 2u);
  EXPECT_LE(copy_reads, SparseContainerCompactor::kMaxRetainedPayloads);
  ExpectRestores(versions);
}

TEST_F(GNodeCycleOssTest, SccRereadsOnlySourcesPastTheRetentionCap) {
  auto versions = BackUpTwoVersions(2 << 20);
  const std::vector<ContainerId> sources =
      slim_.catalog()->Get("f", 1)->sparse_containers;
  size_t copy_reads = RunCycleAndCheckTraffic();
  EXPECT_GT(copy_reads, SparseContainerCompactor::kMaxRetainedPayloads);
  ExpectRestores(versions);
  // Converged: every source, held or read again, is compacted.
  for (ContainerId cid : sources) {
    auto meta = slim_.container_store()->ReadMeta(cid);
    ASSERT_TRUE(meta.ok()) << meta.status();
    EXPECT_EQ(meta.value().DeletedCount(), 0u) << "source " << cid;
  }
}

TEST_F(GNodeCycleOssTest, DeleteVersionRetiresPendingRecordOnlyIfUnprocessed) {
  BackUpTwoVersions(512 << 10);
  // Rebuild derives the pending flags from the durable records.
  ASSERT_TRUE(slim_.Rebuild().ok());
  ASSERT_TRUE(slim_.pending_store()->Exists("f", 1).value());

  oss_.Record();
  ASSERT_TRUE(slim_.DeleteVersion("f", 1).ok());
  auto ops = oss_.Stop();
  EXPECT_EQ(CountOps(ops, "delete", "/state/pending/"), 1u);
  EXPECT_FALSE(slim_.pending_store()->Exists("f", 1).value());

  // Version 0's pass already retired its record.
  oss_.Record();
  ASSERT_TRUE(slim_.DeleteVersion("f", 0).ok());
  ops = oss_.Stop();
  EXPECT_EQ(CountOps(ops, "delete", "/state/pending/"), 0u);
}

}  // namespace
}  // namespace slim::gnode
