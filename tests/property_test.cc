// Property-style sweeps: the system-level invariants hold for every
// combination of features, chunkers and seeds.
//
//   * Restore == original bytes for every version, under any
//     combination of {chunker, skip chunking, chunk merging, G-node
//     passes, version collection (for retained versions)}.
//   * Dedup never stores more than the input (plus container framing).
//   * Recipes account exactly for the logical bytes.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/slimstore.h"
#include "oss/memory_object_store.h"
#include "workload/generator.h"

namespace slim {
namespace {

struct Config {
  chunking::ChunkerType chunker;
  bool skip;
  bool merging;
  bool gnode;
};

std::string ConfigName(const Config& c) {
  std::string name = chunking::ChunkerTypeName(c.chunker);
  name += c.skip ? "_skip" : "_noskip";
  name += c.merging ? "_merge" : "_nomerge";
  name += c.gnode ? "_gnode" : "_nognode";
  return name;
}

// Test names show the configuration, not the struct's raw bytes.
void PrintTo(const Config& c, std::ostream* os) { *os << ConfigName(c); }

class LifecyclePropertyTest : public ::testing::TestWithParam<Config> {};

TEST_P(LifecyclePropertyTest, EveryVersionRestoresByteIdentical) {
  const Config& config = GetParam();
  oss::MemoryObjectStore oss;
  core::SlimStoreOptions options;
  options.backup.chunker_type = config.chunker;
  options.backup.chunker_params = chunking::ChunkerParams::FromAverage(1024);
  options.backup.container_capacity = 16 << 10;
  options.backup.segment_bytes = 16 << 10;
  options.backup.sample_ratio = 4;
  options.backup.skip_chunking = config.skip;
  options.backup.chunk_merging = config.merging;
  options.backup.merge_threshold = 2;
  options.backup.min_merge_chunks = 2;
  core::SlimStore store(&oss, options);

  workload::GeneratorOptions gen;
  gen.base_size = 128 << 10;
  gen.duplication_ratio = 0.85;
  gen.self_reference = 0.2;
  gen.block_size = 1024;
  gen.seed = 4242;
  workload::VersionedFileGenerator file(gen);

  std::vector<std::string> versions;
  uint64_t total_logical = 0;
  for (int v = 0; v < 5; ++v) {
    versions.push_back(file.data());
    auto stats = store.Backup("f", file.data());
    ASSERT_TRUE(stats.ok()) << stats.status();
    total_logical += stats.value().logical_bytes;
    // Conservation: dup + new == logical.
    EXPECT_EQ(stats.value().dup_bytes + stats.value().new_bytes,
              stats.value().logical_bytes);
    // The recipe accounts for every byte.
    auto recipe = store.recipe_store()->ReadRecipe("f", v);
    ASSERT_TRUE(recipe.ok());
    EXPECT_EQ(recipe.value().LogicalBytes(), file.data().size());
    if (config.gnode) {
      ASSERT_TRUE(store.RunGNodeCycle().ok());
    }
    file.Mutate();
  }

  // Stored bytes never exceed logical bytes (dedup can only help).
  auto report = store.GetSpaceReport();
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report.value().container_bytes, total_logical);

  for (int v = 0; v < 5; ++v) {
    auto restored = store.Restore("f", v);
    ASSERT_TRUE(restored.ok())
        << ConfigName(config) << " v" << v << ": " << restored.status();
    EXPECT_EQ(restored.value(), versions[v])
        << ConfigName(config) << " v" << v;
  }

  // Delete the two oldest versions; the rest must stay intact.
  ASSERT_TRUE(store.DeleteVersion("f", 0).ok());
  ASSERT_TRUE(store.DeleteVersion("f", 1).ok());
  for (int v = 2; v < 5; ++v) {
    auto restored = store.Restore("f", v);
    ASSERT_TRUE(restored.ok())
        << ConfigName(config) << " post-GC v" << v << ": "
        << restored.status();
    EXPECT_EQ(restored.value(), versions[v]);
  }
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (auto chunker : {chunking::ChunkerType::kRabin,
                       chunking::ChunkerType::kGear,
                       chunking::ChunkerType::kFastCdc}) {
    for (bool skip : {false, true}) {
      for (bool merging : {false, true}) {
        for (bool gnode : {false, true}) {
          configs.push_back({chunker, skip, merging, gnode});
        }
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllFeatureCombos, LifecyclePropertyTest,
                         ::testing::ValuesIn(AllConfigs()),
                         [](const auto& param_info) {
                           return ConfigName(param_info.param);
                         });

// Seed sweep with the full feature set on: different content shapes.
class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, FullFeatureLifecycle) {
  oss::MemoryObjectStore oss;
  core::SlimStoreOptions options;
  options.backup.chunker_params = chunking::ChunkerParams::FromAverage(1024);
  options.backup.container_capacity = 16 << 10;
  options.backup.sample_ratio = 4;
  options.backup.chunk_merging = true;
  options.backup.merge_threshold = 2;
  options.backup.min_merge_chunks = 2;
  options.auto_gnode = true;
  core::SlimStore store(&oss, options);

  workload::GeneratorOptions gen;
  gen.base_size = 96 << 10;
  gen.duplication_ratio =
      0.7 + static_cast<double>(GetParam() % 3) * 0.1;
  gen.self_reference = static_cast<double>(GetParam() % 2) * 0.25;
  gen.block_size = 1024;
  gen.seed = GetParam();
  workload::VersionedFileGenerator file(gen);

  std::vector<std::string> versions;
  for (int v = 0; v < 4; ++v) {
    versions.push_back(file.data());
    ASSERT_TRUE(store.Backup("f", file.data()).ok());
    file.Mutate();
  }
  for (int v = 0; v < 4; ++v) {
    auto restored = store.Restore("f", v);
    ASSERT_TRUE(restored.ok()) << "seed " << GetParam() << " v" << v
                               << ": " << restored.status();
    EXPECT_EQ(restored.value(), versions[v]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Chunk-size sweep: the pipeline works across the paper's Fig 5 range.
class ChunkSizeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkSizeSweepTest, BackupRestoreAtEveryChunkSize) {
  oss::MemoryObjectStore oss;
  core::SlimStoreOptions options;
  options.backup.chunker_params =
      chunking::ChunkerParams::FromAverage(GetParam());
  options.backup.container_capacity = 8 * GetParam();
  options.backup.sample_ratio = 2;
  core::SlimStore store(&oss, options);

  workload::GeneratorOptions gen;
  gen.base_size = 64 * GetParam();
  gen.duplication_ratio = 0.8;
  gen.block_size = GetParam();
  gen.seed = 777;
  workload::VersionedFileGenerator file(gen);

  std::string v0 = file.data();
  ASSERT_TRUE(store.Backup("f", v0).ok());
  file.Mutate();
  auto stats = store.Backup("f", file.data());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().DedupRatio(), 0.3);
  auto restored = store.Restore("f", 0);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), v0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChunkSizeSweepTest,
                         ::testing::Values(1024, 4096, 16384, 65536));

}  // namespace
}  // namespace slim
