// Google-benchmark microbenchmarks for the hot primitives: CDC
// chunking algorithms, SHA-1 fingerprinting, bloom filters and the
// skip-chunking cut verification. These are the per-byte costs behind
// Fig 2 / Fig 5.

#include <benchmark/benchmark.h>

#include "chunking/chunker.h"
#include "chunking/gear.h"
#include "chunking/rabin.h"
#include "common/hash.h"
#include "common/rng.h"
#include "index/bloom.h"

namespace slim {
namespace {

std::string MakeData(size_t n) {
  Rng rng(1234);
  return rng.RandomBytes(n);
}

void BM_Chunking(benchmark::State& state, chunking::ChunkerType type) {
  auto chunker = chunking::CreateChunker(
      type, chunking::ChunkerParams::FromAverage(4096));
  std::string data = MakeData(4 << 20);
  for (auto _ : state) {
    auto chunks = chunking::ChunkAll(*chunker, data);
    benchmark::DoNotOptimize(chunks.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}

void BM_ChunkingRabin(benchmark::State& state) {
  BM_Chunking(state, chunking::ChunkerType::kRabin);
}
void BM_ChunkingGear(benchmark::State& state) {
  BM_Chunking(state, chunking::ChunkerType::kGear);
}
void BM_ChunkingFastCdc(benchmark::State& state) {
  BM_Chunking(state, chunking::ChunkerType::kFastCdc);
}
BENCHMARK(BM_ChunkingRabin);
BENCHMARK(BM_ChunkingGear);
BENCHMARK(BM_ChunkingFastCdc);

void BM_VerifyCut(benchmark::State& state) {
  // The skip-chunking primitive: one windowed hash instead of a scan.
  auto chunker = chunking::CreateChunker(
      chunking::ChunkerType::kFastCdc,
      chunking::ChunkerParams::FromAverage(4096));
  std::string data = MakeData(64 << 10);
  auto chunks = chunking::ChunkAll(*chunker, data);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  for (auto _ : state) {
    for (const auto& c : chunks) {
      benchmark::DoNotOptimize(chunker->VerifyCut(p + c.offset, c.size));
    }
  }
  state.SetItemsProcessed(state.iterations() * chunks.size());
}
BENCHMARK(BM_VerifyCut);

void BM_Sha1(benchmark::State& state) {
  std::string data = MakeData(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Sha1)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_BloomAddContain(benchmark::State& state) {
  index::BloomFilter bloom(1 << 20);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 1024; ++i) {
    fps.push_back(Sha1::Hash("k" + std::to_string(i)));
  }
  for (auto _ : state) {
    for (const auto& fp : fps) {
      bloom.Add(fp);
      benchmark::DoNotOptimize(bloom.MayContain(fp));
    }
  }
  state.SetItemsProcessed(state.iterations() * fps.size());
}
BENCHMARK(BM_BloomAddContain);

void BM_CountingBloom(benchmark::State& state) {
  index::CountingBloomFilter cbf(1 << 18);
  std::vector<Fingerprint> fps;
  for (int i = 0; i < 1024; ++i) {
    fps.push_back(Sha1::Hash("c" + std::to_string(i)));
  }
  for (auto _ : state) {
    for (const auto& fp : fps) cbf.Add(fp);
    for (const auto& fp : fps) {
      benchmark::DoNotOptimize(cbf.CountEstimate(fp));
    }
    for (const auto& fp : fps) cbf.Remove(fp);
  }
  state.SetItemsProcessed(state.iterations() * fps.size() * 3);
}
BENCHMARK(BM_CountingBloom);

void BM_RabinWindowSlide(benchmark::State& state) {
  chunking::RabinWindow window;
  std::string data = MakeData(64 << 10);
  for (auto _ : state) {
    uint64_t fp = 0;
    for (char c : data) fp = window.Slide(static_cast<uint8_t>(c));
    benchmark::DoNotOptimize(fp);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_RabinWindowSlide);

void BM_GearStep(benchmark::State& state) {
  std::string data = MakeData(64 << 10);
  for (auto _ : state) {
    uint64_t h = 0;
    for (char c : data) h = chunking::GearStep(h, static_cast<uint8_t>(c));
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_GearStep);

}  // namespace
}  // namespace slim

BENCHMARK_MAIN();
