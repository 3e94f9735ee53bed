#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "cluster/sharded_cluster.h"
#include "core/slimstore.h"
#include "latency_store.h"
#include "oss/memory_object_store.h"
#include "trace.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using slim::core::SlimStore;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Setup runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

// ---- Digests -------------------------------------------------------------
// Benchmark-side content digests, independent of the program's hashes.
// Every restore is checked against the digest of the generated version,
// and their fold identifies a workload's inputs for a seed.

struct Digest {
  uint64_t len = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const Digest&) const = default;
};

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Digest DigestOf(std::string_view s) {
  uint64_t a = 0x6a09e667f3bcc908ULL;
  uint64_t b = 0xbb67ae8584caa73bULL;
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    a = (a ^ w) * 0x9e3779b97f4a7c15ULL;
    a = (a << 29) | (a >> 35);
    b = (b + w) * 0xc2b2ae3d27d4eb4fULL;
    b ^= b >> 31;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return Digest{s.size(), Mix64(a ^ tail ^ s.size()),
                Mix64(b + tail + (s.size() << 1))};
}

void Fold(Digest* acc, const Digest& d) {
  acc->len += d.len;
  acc->a = Mix64(acc->a ^ d.a);
  acc->b = Mix64(acc->b + d.b + 1);
}

// Every version of every file of a generated dataset, kept in memory so
// the timed loop replays inputs without generating them.
struct History {
  std::vector<std::string> file_ids;
  std::vector<std::vector<std::string>> data;  // [version][file]
  std::vector<std::vector<Digest>> digests;    // [version][file]
  Digest input;                                // Fold of every digest.

  size_t versions() const { return digests.size(); }
  size_t files() const { return file_ids.size(); }
};

History Materialize(slim::workload::Dataset ds) {
  History h;
  for (size_t f = 0; f < ds.file_count(); ++f) {
    h.file_ids.push_back(ds.file_id(f));
  }
  do {
    auto& files = h.data.emplace_back();
    auto& digests = h.digests.emplace_back();
    for (size_t f = 0; f < ds.file_count(); ++f) {
      files.push_back(ds.file_data(f));
      digests.push_back(DigestOf(files.back()));
      Fold(&h.input, digests.back());
    }
  } while (ds.NextVersion());
  return h;
}

// ---- Recording -----------------------------------------------------------

// One timed public call.
struct JobRecord {
  JobType type = JobType::kNone;
  int client = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;  // Logical bytes backed up or restored.
  uint64_t span = 0;
  slim::lnode::CpuBreakdown cpu;  // Backups only.
};

// Sums over the stats structs the public calls return.
struct Totals {
  uint64_t dup_bytes = 0;
  uint64_t skip_hits = 0;
  uint64_t skip_tries = 0;
  uint64_t segments = 0;
  uint64_t base_found = 0;
  uint64_t referenced_containers = 0;
  uint64_t chunks = 0;
  uint64_t containers = 0;
  uint64_t cache_hits = 0;
  uint64_t disk_hits = 0;
  uint64_t redirects = 0;
  uint64_t scc_bytes_moved = 0;
  uint64_t scc_compacted = 0;
  uint64_t rd_duplicates = 0;
  uint64_t rd_rewritten = 0;
  uint64_t rd_bloom_negatives = 0;
  uint64_t rd_filtered = 0;
  uint64_t gc_deleted = 0;
};

void Merge(Totals* t, const slim::core::GNodeCycleStats& s) {
  t->scc_bytes_moved += s.scc.bytes_moved;
  t->scc_compacted += s.scc.sparse_containers_processed;
  t->rd_duplicates += s.reverse_dedup.duplicates_found;
  t->rd_rewritten += s.reverse_dedup.containers_rewritten;
  t->rd_bloom_negatives += s.reverse_dedup.bloom_negatives;
  t->rd_filtered += s.reverse_dedup.chunks_filtered;
}
void Merge(Totals* t, const slim::gnode::GcStats& s) {
  t->gc_deleted += s.containers_deleted;
}
// The cluster API returns only store and backup counts.
void Merge(Totals*, const slim::cluster::ShardedCluster::ClusterGNodeStats&) {}

// What one phase measured.
struct Phase {
  std::vector<JobRecord> jobs;
  Totals totals;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Times public calls and records them. Thread-safe.
class Recorder {
 public:
  // Times one backup. Returns the version it created, or nullopt.
  template <typename Call>
  std::optional<uint64_t> Backup(int client, Call&& call) {
    JobScope scope(JobType::kBackup, "backup");
    slim::Result<slim::lnode::BackupStats> r = call();
    scope.Finish();
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord* rec = Log(scope, JobType::kBackup, client, r.status(), true);
    if (!r.ok()) return std::nullopt;
    const slim::lnode::BackupStats& s = r.value();
    rec->bytes = s.logical_bytes;
    rec->cpu = s.cpu;
    Totals& t = phase_.totals;
    t.dup_bytes += s.dup_bytes;
    t.skip_hits += s.skip_successes;
    t.skip_tries += s.skip_successes + s.skip_failures;
    t.segments += s.segments_fetched;
    t.base_found += s.detection != slim::lnode::BaseDetection::kNone;
    t.referenced_containers += s.referenced_containers.size();
    return s.version;
  }

  // Times one restore and checks its bytes against `expect`.
  template <typename Call>
  void Restore(int client, const Digest& expect, Call&& call) {
    JobScope scope(JobType::kRestore, "restore");
    slim::lnode::RestoreStats s;
    slim::Result<std::string> r = call(&s);
    scope.Finish();
    const bool identical = r.ok() && DigestOf(r.value()) == expect;
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord* rec =
        Log(scope, JobType::kRestore, client, r.status(), identical);
    if (!identical) return;
    rec->bytes = expect.len;
    Totals& t = phase_.totals;
    t.chunks += s.chunks_restored;
    t.containers += s.containers_fetched;
    t.cache_hits += s.cache_hits;
    t.disk_hits += s.disk_hits;
    t.redirects += s.redirects;
  }

  // Times one offline call: a G-node cycle or a version deletion.
  template <typename Call>
  void Offline(int client, const char* name, Call&& call) {
    JobScope scope(JobType::kGNode, name);
    auto r = call();
    scope.Finish();
    std::lock_guard<std::mutex> lock(mu_);
    Log(scope, JobType::kGNode, client, r.status(), true);
    if (r.ok()) Merge(&phase_.totals, r.value());
  }

  // A check outside any timed call (repository verification).
  void Check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++phase_.attempted;
    if (!ok) {
      ++phase_.failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }

  Phase Take() {
    std::lock_guard<std::mutex> lock(mu_);
    Phase out = std::move(phase_);
    phase_ = Phase{};
    return out;
  }

 private:
  JobRecord* Log(const JobScope& scope, JobType type, int client,
                 const slim::Status& status, bool identical) {
    ++phase_.attempted;
    if (!status.ok() || !identical) {
      if (++phase_.failed <= 5) {
        std::fprintf(stderr, "%s failed: %s\n", JobTypeName(type),
                     status.ok() ? "restored bytes differ from the input"
                                 : status.ToString().c_str());
      }
    }
    phase_.jobs.push_back(JobRecord{type, client, scope.start_ns(),
                                    scope.end_ns(), 0, scope.span_id(), {}});
    return &phase_.jobs.back();
  }

  std::mutex mu_;
  Phase phase_;
};

// ---- Workloads -----------------------------------------------------------

// Bytes at rest against logical bytes of live versions, at one point.
struct SpaceSample {
  uint64_t logical = 0;
  uint64_t stored = 0;
  slim::core::SpaceReport report;  // Zero where the API offers none.
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates inputs and opens stores. Calls made here go to `rec`.
  virtual slim::Status Setup(uint64_t seed, Recorder* rec) = 0;
  // Runs whole passes over the workload until `seconds` of pass time
  // have passed, so every run measures the same mix of calls.
  slim::Status Run(double seconds, Recorder* rec) {
    const int64_t t0 = NowNanos();
    do {
      slim::Status s = RunPass(rec);
      if (!s.ok()) return s;
    } while (Seconds(NowNanos() - t0) < seconds);
    return slim::Status::Ok();
  }
  // Repository checks, outside the timing.
  virtual void Verify(Recorder* rec) = 0;
  // Sizes that matter for reading the numbers: data, cache, working set.
  virtual std::string Describe(const Totals& totals,
                               uint64_t backups) const = 0;

  LatencyObjectStore& oss() { return oss_; }
  const Digest& input() const { return history_.input; }
  const std::vector<SpaceSample>& space() const { return space_; }

 protected:
  virtual slim::Status RunPass(Recorder* rec) = 0;

  // Sums object sizes in the backing store (the benchmark's own count).
  uint64_t StoredBytes() {
    uint64_t total = 0;
    auto keys = mem_.List("");
    if (!keys.ok()) return 0;
    for (const auto& key : keys.value()) total += mem_.Size(key).value_or(0);
    return total;
  }
  // Deletes every object, for a fresh pass.
  void Wipe() {
    auto keys = mem_.List("");
    if (!keys.ok()) return;
    for (const auto& key : keys.value()) mem_.Delete(key).IgnoreError();
  }

  slim::oss::MemoryObjectStore mem_;
  LatencyObjectStore oss_{&mem_, kOssModel};
  History history_;
  std::vector<SpaceSample> space_;
};

// S-DB (paper Table I), scaled down: database files with per-file
// duplication 0.65-0.95 (mean 0.84), 20% self-reference and 25 versions.
// Versions older than the retention window are deleted. Eight 1 MiB files
// give 200 backups per pass, enough for a p95 with 10 samples beyond it;
// 16 live versions give 128 distinct restores per sdb-restore pass.
constexpr size_t kSdbFiles = 8;
constexpr size_t kSdbFileBytes = 1 << 20;
constexpr size_t kSdbVersions = 25;
constexpr size_t kSdbRetention = 16;
// Restore cache on sdb-restore: 768 KiB in memory plus 768 KiB spill.
// A file version is 1 MiB of logical data in about 8 containers holding
// about 1.2 MiB of live chunks, so the memory cache cannot hold a
// version's container set and the full-vision cache spills. Smaller
// caches thrash by amounts that vary too much from seed to seed to gate
// on. Prefetch threads stay within the 4 cores.
constexpr size_t kSdbCacheBytes = 768 << 10;
constexpr size_t kSdbDiskCacheBytes = 768 << 10;
constexpr size_t kSdbPrefetchThreads = 2;

// The read-back after each sdb-backup round checks what was written with
// the default cache, which holds a whole version: the cache-bound regime
// is sdb-restore's to measure.
const slim::lnode::RestoreOptions kReadBackOptions = [] {
  slim::lnode::RestoreOptions o;
  o.prefetch_threads = kSdbPrefetchThreads;
  return o;
}();

class SdbWorkload : public Workload {
 public:
  void Verify(Recorder* rec) override {
    oss_.set_passthrough(true);
    auto report = store_->VerifyRepository();
    oss_.set_passthrough(false);
    std::string what = "VerifyRepository";
    if (!report.ok()) {
      what += ": " + report.status().ToString();
    } else if (!report->ok()) {
      what += ": " + report->problems.front();
    }
    rec->Check(report.ok() && report->ok(), what);
  }

  std::string Describe(const Totals& totals, uint64_t backups) const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "S-DB: %zu files x %.1f MiB, %zu versions, retention %zu versions; "
        "restore cache %zu KiB memory + %zu KiB spill, %zu prefetch "
        "threads; a version is %.1f MiB referencing %.1f containers "
        "holding %.2f MiB of live chunks on average",
        kSdbFiles, static_cast<double>(kSdbFileBytes) / kMiB, kSdbVersions,
        kSdbRetention, kSdbCacheBytes >> 10, kSdbDiskCacheBytes >> 10,
        kSdbPrefetchThreads, static_cast<double>(kSdbFileBytes) / kMiB,
        Ratio(static_cast<double>(totals.referenced_containers),
              static_cast<double>(backups)),
        container_set_bytes_ / kMiB);
    return buf;
  }

 protected:
  void Generate(uint64_t seed) {
    slim::workload::SdbOptions o;
    o.num_files = kSdbFiles;
    o.file_size = kSdbFileBytes;
    o.num_versions = kSdbVersions;
    o.seed = seed;
    history_ = Materialize(slim::workload::Dataset::MakeSdb(o));
  }

  void OpenStore() {
    slim::core::SlimStoreOptions o;
    o.restore.cache_bytes = kSdbCacheBytes;
    o.restore.disk_cache_bytes = kSdbDiskCacheBytes;
    o.restore.prefetch_threads = kSdbPrefetchThreads;
    // Reverse dedup stays off here: together with SCC on this data it
    // leaves a redirect at a container that no longer holds the chunk for
    // about one seed in ten, and that restore fails. rdata-tenants runs
    // it.
    o.enable_reverse_dedup = false;
    store_.reset();
    store_ = std::make_unique<SlimStore>(&oss_, o);
    version_of_.assign(history_.versions(),
                       std::vector<std::optional<uint64_t>>(history_.files()));
    live_.clear();
  }

  // One S-DB round: back up version v of every file, run a G-node cycle,
  // delete the version that leaves the retention window and, with
  // `read_back`, restore what was just written.
  void Round(size_t v, Recorder* rec, bool read_back) {
    for (size_t f = 0; f < history_.files(); ++f) {
      version_of_[v][f] = rec->Backup(0, [&] {
        return store_->Backup(history_.file_ids[f], history_.data[v][f]);
      });
    }
    rec->Offline(0, "gnode-cycle", [&] { return store_->RunGNodeCycle(); });
    live_.push_back(v);
    if (live_.size() > kSdbRetention) {
      const size_t old = live_.front();
      live_.pop_front();
      for (size_t f = 0; f < history_.files(); ++f) {
        if (!version_of_[old][f]) continue;
        rec->Offline(0, "delete-version", [&] {
          return store_->DeleteVersion(history_.file_ids[f],
                                       *version_of_[old][f]);
        });
      }
    }
    if (read_back) RestoreVersion(v, rec, &kReadBackOptions);
  }

  // `options` overrides the store's restore options when set.
  void RestoreVersion(size_t v, Recorder* rec,
                      const slim::lnode::RestoreOptions* options = nullptr) {
    for (size_t f = 0; f < history_.files(); ++f) {
      if (!version_of_[v][f]) continue;
      rec->Restore(0, history_.digests[v][f],
                   [&](slim::lnode::RestoreStats* stats) {
                     return store_->Restore(history_.file_ids[f],
                                            *version_of_[v][f], stats,
                                            options);
                   });
    }
  }

  void SampleSpace() {
    SpaceSample s;
    for (size_t v : live_) {
      for (size_t f = 0; f < history_.files(); ++f) {
        if (version_of_[v][f]) s.logical += history_.digests[v][f].len;
      }
    }
    s.stored = StoredBytes();
    oss_.set_passthrough(true);
    s.report = store_->GetSpaceReport().value_or(slim::core::SpaceReport{});
    container_set_bytes_ = MeanContainerSetBytes();
    oss_.set_passthrough(false);
    space_.push_back(s);
  }

  // Live chunk bytes in the containers one live version references,
  // averaged over the live versions: the data a restore may fetch.
  double MeanContainerSetBytes() {
    uint64_t total = 0;
    size_t versions = 0;
    for (const auto& fv : store_->catalog()->LiveVersions()) {
      auto info = store_->catalog()->Get(fv.file_id, fv.version);
      if (!info) continue;
      ++versions;
      for (auto cid : info->referenced_containers) {
        auto meta = store_->container_store()->ReadMeta(cid);
        if (!meta.ok()) continue;
        for (const auto& chunk : meta->chunks) {
          if (!chunk.deleted) total += chunk.size;
        }
      }
    }
    return Ratio(static_cast<double>(total), static_cast<double>(versions));
  }

  std::unique_ptr<SlimStore> store_;
  double container_set_bytes_ = 0;
  std::vector<std::vector<std::optional<uint64_t>>> version_of_;
  std::deque<size_t> live_;  // Dataset versions still live, oldest first.
};

// Write-heavy: one client backs up every file of each version, runs a
// G-node cycle and expires old versions; each round ends with a
// read-back restore of the version just written, which feeds the
// correctness gate and the restore metrics. Chunking, fingerprinting,
// segment prefetch, container packing, PUTs, SCC and GC all work here.
class SdbBackupWorkload : public SdbWorkload {
 public:
  slim::Status Setup(uint64_t seed, Recorder*) override {
    Generate(seed);
    OpenStore();
    return slim::Status::Ok();
  }

  // Builds the whole history, records space, verifies the repository
  // and leaves an empty store for the next pass.
  slim::Status RunPass(Recorder* rec) override {
    for (size_t v = 0; v < history_.versions(); ++v) {
      Round(v, rec, /*read_back=*/true);
    }
    SampleSpace();
    Verify(rec);
    oss_.set_passthrough(true);
    store_.reset();
    Wipe();
    OpenStore();
    oss_.set_passthrough(false);
    return slim::Status::Ok();
  }
};

// Read-heavy on an aged repository: setup builds the S-DB history with
// G-node cycles and expiry; the timed phase restores every live version
// of every file, oldest to newest. The restore pipeline, full-vision
// cache, redirect chasing and container GETs work here; chunking and
// fingerprinting do not.
class SdbRestoreWorkload : public SdbWorkload {
 public:
  slim::Status Setup(uint64_t seed, Recorder* rec) override {
    Generate(seed);
    OpenStore();
    for (size_t v = 0; v < history_.versions(); ++v) {
      Round(v, rec, /*read_back=*/false);
    }
    SampleSpace();
    // Restores need only the digests from here on.
    history_.data.clear();
    history_.data.shrink_to_fit();
    return slim::Status::Ok();
  }

  slim::Status RunPass(Recorder* rec) override {
    for (size_t v : live_) RestoreVersion(v, rec);
    return slim::Status::Ok();
  }
};

// R-Data (paper Table I), scaled down: many ~512 KiB files with
// duplication 0.92, ~0.1% self-reference and 13 versions, spread over 8
// tenants on a 4-node sharded cluster. Each of 4 clients owns a disjoint
// set of tenants, so dedup and request counts do not depend on thread
// interleaving. Every restore's containers fit the default restore cache.
constexpr size_t kRdataFiles = 24;
constexpr size_t kRdataFileBytes = 512 << 10;
constexpr size_t kRdataVersions = 13;
constexpr size_t kTenants = 8;
constexpr int kClients = 4;
constexpr int kNodes = 4;
constexpr uint32_t kShards = 4;

// Mixed reads and writes under concurrency: each client backs up its
// files of version v and, after every second backup, restores an earlier
// version of one of its files (a third of operations are restores). A
// cluster-wide G-node pass runs at the barrier between versions.
class RdataTenantsWorkload : public Workload {
 public:
  slim::Status Setup(uint64_t seed, Recorder*) override {
    seed_ = seed;
    slim::workload::RdataOptions o;
    o.num_files = kRdataFiles;
    o.file_size = kRdataFileBytes;
    o.num_versions = kRdataVersions;
    o.seed = seed;
    history_ = Materialize(slim::workload::Dataset::MakeRdata(o));
    return OpenCluster();
  }

  // The cluster exposes no repository verifier; every restore is checked
  // against its digest instead.
  void Verify(Recorder*) override {}

  std::string Describe(const Totals& totals, uint64_t backups) const override {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "R-Data: %zu files x %zu KiB, %zu versions, %zu tenants on %d nodes "
        "x %u shards, %d clients; default restore cache (%zu MiB) holds a "
        "whole file; a version references %.1f containers on average",
        kRdataFiles, kRdataFileBytes >> 10, kRdataVersions, kTenants, kNodes,
        kShards, kClients, slim::lnode::RestoreOptions{}.cache_bytes >> 20,
        Ratio(static_cast<double>(totals.referenced_containers),
              static_cast<double>(backups)));
    return buf;
  }

 private:
  static std::string Tenant(size_t f) {
    return "tenant-" + std::to_string(f % kTenants);
  }
  // Client c owns tenants c and c + kClients.
  static int ClientOf(size_t f) {
    return static_cast<int>((f % kTenants) % kClients);
  }

  slim::Status OpenCluster() {
    cluster_.reset();
    slim::cluster::ShardedClusterOptions o;
    o.num_shards = kShards;
    std::vector<std::string> nodes;
    for (int n = 0; n < kNodes; ++n) {
      nodes.push_back("node-" + std::to_string(n));
    }
    auto created = slim::cluster::ShardedCluster::Create(&oss_, o, nodes);
    if (!created.ok()) return created.status();
    cluster_ = std::move(created).value();
    for (size_t t = 0; t < kTenants; ++t) {
      slim::Status s = cluster_->RegisterTenant(Tenant(t));
      if (!s.ok()) return s;
    }
    version_of_.assign(history_.versions(),
                       std::vector<std::optional<uint64_t>>(history_.files()));
    return cluster_->EnsureStoresOpen();
  }

  // Runs every version, records space and leaves an empty cluster for
  // the next pass.
  slim::Status RunPass(Recorder* rec) override {
    for (size_t v = 0; v < history_.versions(); ++v) Round(v, rec);
    SampleSpace();
    oss_.set_passthrough(true);
    cluster_.reset();
    Wipe();
    slim::Status s = OpenCluster();
    oss_.set_passthrough(false);
    return s;
  }

  void Round(size_t v, Recorder* rec) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, v, rec] { RunClient(c, v, rec); });
    }
    for (auto& t : clients) t.join();
    rec->Offline(0, "gnode-cycles",
                 [&] { return cluster_->RunGNodeCycles(); });
  }

  void RunClient(int c, size_t v, Recorder* rec) {
    std::vector<size_t> mine;
    for (size_t f = 0; f < history_.files(); ++f) {
      if (ClientOf(f) == c) mine.push_back(f);
    }
    uint64_t rng = Mix64(seed_ * 0x100000001b3ULL + v * 64 +
                         static_cast<uint64_t>(c));
    for (size_t i = 0; i < mine.size(); ++i) {
      const size_t f = mine[i];
      version_of_[v][f] = rec->Backup(c, [&] {
        return cluster_->Backup(Tenant(f), history_.file_ids[f],
                                history_.data[v][f]);
      });
      if (v == 0 || i % 2 == 0) continue;
      rng = Mix64(rng + 1);
      const size_t rf = mine[rng % mine.size()];
      rng = Mix64(rng + 1);
      const size_t rv = rng % v;
      if (!version_of_[rv][rf]) continue;
      rec->Restore(c, history_.digests[rv][rf],
                   [&](slim::lnode::RestoreStats* stats) {
                     return cluster_->Restore(Tenant(rf),
                                              history_.file_ids[rf],
                                              *version_of_[rv][rf], stats);
                   });
    }
  }

  // Nothing is deleted here: every backed-up version is live.
  void SampleSpace() {
    SpaceSample s;
    for (size_t v = 0; v < history_.versions(); ++v) {
      for (size_t f = 0; f < history_.files(); ++f) {
        if (version_of_[v][f]) s.logical += history_.digests[v][f].len;
      }
    }
    s.stored = StoredBytes();
    space_.push_back(s);
  }

  uint64_t seed_ = 0;
  std::unique_ptr<slim::cluster::ShardedCluster> cluster_;
  // Written by the clients, each for its own files only.
  std::vector<std::vector<std::optional<uint64_t>>> version_of_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "sdb-backup") return std::make_unique<SdbBackupWorkload>();
  if (name == "sdb-restore") return std::make_unique<SdbRestoreWorkload>();
  return std::make_unique<RdataTenantsWorkload>();
}

// ---- Statistics ----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of sorted values.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Wall time during which at least one call of `type` was in flight.
double UnionSeconds(const std::vector<JobRecord>& jobs, JobType type) {
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const auto& j : jobs) {
    if (j.type == type) iv.emplace_back(j.start_ns, j.end_ns);
  }
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return Seconds(total);
}

std::vector<double> SortedLatenciesMs(const std::vector<JobRecord>& jobs,
                                      JobType type) {
  std::vector<double> ms;
  for (const auto& j : jobs) {
    if (j.type == type) ms.push_back(Seconds(j.end_ns - j.start_ns) * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

uint64_t Bytes(const std::vector<JobRecord>& jobs, JobType type) {
  uint64_t total = 0;
  for (const auto& j : jobs) {
    if (j.type == type) total += j.bytes;
  }
  return total;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// One timed phase and what it cost.
struct Measured {
  Phase phase;
  OssCounters oss;
  double wall_s = 0;
  double cpu_s = 0;
  slim::Status status;
};

Measured RunTimed(Workload* w, double seconds, Recorder* rec) {
  Measured m;
  const OssCounters before = w->oss().counters();
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNanos();
  m.status = w->Run(seconds, rec);
  m.wall_s = Seconds(NowNanos() - t0);
  m.cpu_s = CpuSeconds() - cpu0;
  m.oss = w->oss().counters() - before;
  w->Verify(rec);
  m.phase = rec->Take();
  return m;
}

// Fairness of per-client mean latency: 1 when every client sees the same.
double JainIndex(const std::vector<JobRecord>& jobs) {
  std::map<int, std::pair<double, int>> per_client;
  for (const auto& j : jobs) {
    if (j.type == JobType::kGNode) continue;
    auto& [sum, n] = per_client[j.client];
    sum += Seconds(j.end_ns - j.start_ns);
    ++n;
  }
  double s = 0;
  double s2 = 0;
  for (const auto& [client, acc] : per_client) {
    const double mean = acc.first / acc.second;
    s += mean;
    s2 += mean * mean;
  }
  return Ratio(s * s, static_cast<double>(per_client.size()) * s2);
}

// Job time per MiB processed: the basis of the tracing-overhead figure.
double JobSecondsPerMiB(const std::vector<JobRecord>& jobs) {
  double busy = 0;
  uint64_t bytes = 0;
  for (const auto& j : jobs) {
    busy += Seconds(j.end_ns - j.start_ns);
    bytes += j.bytes;
  }
  return Ratio(busy, static_cast<double>(bytes) / kMiB);
}

// ---- Reports -------------------------------------------------------------

void AddEndToEnd(const std::vector<JobRecord>& all, const Measured& timed,
                 const Workload& w, const std::vector<double>& setup_s,
                 std::vector<Metric>* out) {
  const double backup_mib =
      static_cast<double>(Bytes(all, JobType::kBackup)) / kMiB;
  const double restore_mib =
      static_cast<double>(Bytes(all, JobType::kRestore)) / kMiB;
  const auto backup_ms = SortedLatenciesMs(all, JobType::kBackup);
  const auto restore_ms = SortedLatenciesMs(all, JobType::kRestore);

  std::vector<double> stored_per_logical;
  for (const auto& s : w.space()) {
    stored_per_logical.push_back(Ratio(static_cast<double>(s.stored),
                                       static_cast<double>(s.logical)));
  }
  const auto& tj = timed.phase.jobs;
  const double timed_gib = static_cast<double>(Bytes(tj, JobType::kBackup) +
                                               Bytes(tj, JobType::kRestore)) /
                           kGiB;
  const double timed_restored =
      static_cast<double>(Bytes(tj, JobType::kRestore));
  const double restore_egress = static_cast<double>(
      timed.oss.job_bytes_read[static_cast<int>(JobType::kRestore)]);

  *out = {
      {"backup_mbps", Ratio(backup_mib, UnionSeconds(all, JobType::kBackup)),
       "MiB/s"},
      {"backup_p50_ms", Percentile(backup_ms, 0.50), "ms"},
      {"backup_p95_ms", Percentile(backup_ms, 0.95), "ms"},
      {"restore_mbps",
       Ratio(restore_mib, UnionSeconds(all, JobType::kRestore)), "MiB/s"},
      {"restore_p50_ms", Percentile(restore_ms, 0.50), "ms"},
      {"restore_p95_ms", Percentile(restore_ms, 0.95), "ms"},
      {"gnode_mbps", Ratio(backup_mib, UnionSeconds(all, JobType::kGNode)),
       "MiB/s"},
      {"stored_per_logical", Median(stored_per_logical), "ratio"},
      {"oss_requests_per_gib",
       Ratio(static_cast<double>(timed.oss.requests()), timed_gib),
       "req/GiB"},
      {"egress_per_restored", Ratio(restore_egress, timed_restored), "ratio"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
  };

  std::printf("end-to-end (every call of the run, setup calls included):\n");
  for (JobType type : {JobType::kBackup, JobType::kRestore}) {
    const auto& ms = type == JobType::kBackup ? backup_ms : restore_ms;
    const size_t beyond =
        ms.size() -
        static_cast<size_t>(std::ceil(0.95 * static_cast<double>(ms.size())));
    std::printf("  %-8s n=%zu, %zu samples beyond p95%s\n", JobTypeName(type),
                ms.size(), beyond,
                beyond >= 10 ? "" : " (fewer than 10: p95 is not supported)");
  }
  for (const auto& m : *out) {
    std::printf("  %-22s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Self time of each layer, summed over the jobs of one type.
struct LayerSplit {
  size_t jobs = 0;
  double wall = 0;
  std::vector<std::pair<const char*, double>> layers;  // Sum to wall.
  double overlapped_oss = 0;  // Helper-thread OSS time (not in the sum).

  void Add(const char* name, double s) {
    for (auto& [n, v] : layers) {
      if (std::strcmp(n, name) == 0) {
        v += s;
        return;
      }
    }
    layers.emplace_back(name, s);
  }
  double Get(const char* name) const {
    for (const auto& [n, v] : layers) {
      if (std::strcmp(n, name) == 0) return v;
    }
    return 0;
  }
};

bool IsWrite(const char* oss_name) {
  return std::strcmp(oss_name, OssOpName(OssOp::kPut)) == 0 ||
         std::strcmp(oss_name, OssOpName(OssOp::kDelete)) == 0;
}

// Splits each job's wall time into layers from its span and its OSS
// child spans. Backups use BackupStats.cpu, whose phases are wall-timed
// inside the pipeline: the index phase holds the pipeline's OSS reads
// (recipe index and segment fetches) and "other" its writes, so the OSS
// time the child spans measure is taken out of those two. The residual
// is the job's time outside the pipeline's phases.
std::map<JobType, LayerSplit> SplitLayers(const std::vector<JobRecord>& jobs,
                                          const std::vector<Span>& spans) {
  struct Child {
    double read = 0;
    double write = 0;
  };
  std::map<uint64_t, Child> children;
  std::map<JobType, LayerSplit> out;
  for (const auto& s : spans) {
    if (std::strncmp(s.name, "oss.", 4) != 0) continue;
    const double d = Seconds(s.end_ns - s.start_ns);
    if (s.parent == 0) {
      out[s.job].overlapped_oss += d;
    } else {
      Child& c = children[s.parent];
      (IsWrite(s.name) ? c.write : c.read) += d;
    }
  }
  for (const auto& j : jobs) {
    LayerSplit& split = out[j.type];
    const double wall = Seconds(j.end_ns - j.start_ns);
    const Child c = children[j.span];
    const double oss = c.read + c.write;
    ++split.jobs;
    split.wall += wall;
    double accounted = oss;
    if (j.type == JobType::kBackup) {
      auto s = [](uint64_t ns) { return Seconds(static_cast<int64_t>(ns)); };
      const double index_wall = s(j.cpu.index_nanos);
      const double index = std::max(0.0, index_wall - c.read);
      const double other =
          std::max(0.0, s(j.cpu.other_nanos) - (oss - (index_wall - index)));
      split.Add("chunk", s(j.cpu.chunking_nanos));
      split.Add("fingerprint", s(j.cpu.fingerprint_nanos));
      split.Add("index", index);
      split.Add("other_cpu", other);
      accounted += s(j.cpu.chunking_nanos) + s(j.cpu.fingerprint_nanos) +
                   index + other;
    }
    split.Add("oss_wait", oss);
    split.Add("residual", wall - accounted);
  }
  return out;
}

void AddPerLayer(const Measured& untraced, const Measured& traced,
                 const std::vector<Span>& spans, const Workload& w,
                 std::vector<Metric>* out) {
  const Phase& p = traced.phase;
  const Totals& t = p.totals;
  const OssCounters& oss = traced.oss;
  const double backup_bytes =
      static_cast<double>(Bytes(p.jobs, JobType::kBackup));
  const double restore_bytes =
      static_cast<double>(Bytes(p.jobs, JobType::kRestore));
  const double backups = static_cast<double>(std::count_if(
      p.jobs.begin(), p.jobs.end(),
      [](const JobRecord& j) { return j.type == JobType::kBackup; }));
  const double per_100mib = 100.0 * kMiB;
  auto splits = SplitLayers(p.jobs, spans);
  const double untraced_cost = JobSecondsPerMiB(untraced.phase.jobs);
  const double traced_cost = JobSecondsPerMiB(p.jobs);
  const double overhead_pct =
      Ratio(traced_cost - untraced_cost, untraced_cost) * 100.0;

  std::printf("traced phase: per-layer self time in seconds, summed over "
              "the jobs of each type:\n");
  for (JobType type : {JobType::kBackup, JobType::kRestore, JobType::kGNode}) {
    const LayerSplit& s = splits[type];
    double sum = 0;
    std::printf("  %-8s n=%-5zu wall %8.3f =", JobTypeName(type), s.jobs,
                s.wall);
    for (const auto& [name, v] : s.layers) {
      sum += v;
      std::printf(" %s %.3f (%.1f%%)", name, v, Ratio(v, s.wall) * 100.0);
    }
    std::printf("; layers sum to %.3f", sum);
    if (s.overlapped_oss > 0) {
      std::printf("; helper-thread OSS %.3f overlapped (not in the sum)",
                  s.overlapped_oss);
    }
    std::printf("\n");
  }
  std::printf("  tracing overhead: %+.2f%% job time per MiB (%.5f s/MiB "
              "traced, %.5f untraced), %zu spans\n",
              overhead_pct, traced_cost, untraced_cost, spans.size());

  // Layer times are seconds per GiB the job type processed (G-node: per
  // GiB ingested), so they do not grow with the number of jobs a phase
  // fits in.
  auto per_gib = [](double s, double bytes) { return Ratio(s, bytes / kGiB); };
  const LayerSplit& b = splits[JobType::kBackup];
  const LayerSplit& r = splits[JobType::kRestore];
  const LayerSplit& g = splits[JobType::kGNode];
  const SpaceSample space =
      w.space().empty() ? SpaceSample{} : w.space().back();
  const double logical = static_cast<double>(space.logical);
  auto op = [&](OssOp o) {
    return static_cast<double>(oss.ops[static_cast<int>(o)]);
  };
  auto n = [](uint64_t v) { return static_cast<double>(v); };

  *out = {
      {"oss.get.n", op(OssOp::kGet), "count"},
      {"oss.getrange.n", op(OssOp::kGetRange), "count"},
      {"oss.put.n", op(OssOp::kPut), "count"},
      {"oss.list.n", op(OssOp::kList), "count"},
      {"oss.meta.n", op(OssOp::kMeta), "count"},
      {"oss.delete.n", op(OssOp::kDelete), "count"},
      {"oss.bytes_read", n(oss.bytes_read), "B"},
      {"oss.bytes_written", n(oss.bytes_written), "B"},
      {"oss.busy_s", oss.busy_s, "s"},
      {"oss.inflight_mean", oss.inflight_mean(), "ratio"},
      {"backup.wall_s", per_gib(b.wall, backup_bytes), "s/GiB"},
      {"backup.chunk_s", per_gib(b.Get("chunk"), backup_bytes), "s/GiB"},
      {"backup.fingerprint_s", per_gib(b.Get("fingerprint"), backup_bytes),
       "s/GiB"},
      {"backup.index_s", per_gib(b.Get("index"), backup_bytes), "s/GiB"},
      {"backup.other_cpu_s", per_gib(b.Get("other_cpu"), backup_bytes),
       "s/GiB"},
      {"backup.oss_wait_s", per_gib(b.Get("oss_wait"), backup_bytes),
       "s/GiB"},
      {"backup.residual_s", per_gib(b.Get("residual"), backup_bytes),
       "s/GiB"},
      {"backup.dup_frac", Ratio(n(t.dup_bytes), backup_bytes), "ratio"},
      {"backup.skip_hit_frac", Ratio(n(t.skip_hits), n(t.skip_tries)),
       "ratio"},
      {"backup.segments_fetched", n(t.segments), "count"},
      {"backup.base_found_frac", Ratio(n(t.base_found), backups), "ratio"},
      {"restore.wall_s", per_gib(r.wall, restore_bytes), "s/GiB"},
      {"restore.oss_wait_s", per_gib(r.Get("oss_wait"), restore_bytes),
       "s/GiB"},
      {"restore.residual_s", per_gib(r.Get("residual"), restore_bytes),
       "s/GiB"},
      {"restore.prefetch_oss_s", per_gib(r.overlapped_oss, restore_bytes),
       "s/GiB"},
      {"restore.containers_per_100mib",
       Ratio(n(t.containers) * per_100mib, restore_bytes), "1/100MiB"},
      {"restore.cache_hit_frac", Ratio(n(t.cache_hits), n(t.chunks)),
       "ratio"},
      {"restore.disk_hit_frac", Ratio(n(t.disk_hits), n(t.chunks)), "ratio"},
      {"restore.redirects_per_100mib",
       Ratio(n(t.redirects) * per_100mib, restore_bytes), "1/100MiB"},
      {"gnode.wall_s", per_gib(g.wall, backup_bytes), "s/GiB"},
      {"gnode.oss_wait_s", per_gib(g.Get("oss_wait"), backup_bytes), "s/GiB"},
      {"gnode.residual_s", per_gib(g.Get("residual"), backup_bytes),
       "s/GiB"},
      {"gnode.scc.bytes_moved", n(t.scc_bytes_moved), "B"},
      {"gnode.scc.containers_compacted", n(t.scc_compacted), "count"},
      {"gnode.rd.duplicates_found", n(t.rd_duplicates), "count"},
      {"gnode.rd.containers_rewritten", n(t.rd_rewritten), "count"},
      {"gnode.rd.bloom_negative_frac",
       Ratio(n(t.rd_bloom_negatives), n(t.rd_filtered)), "ratio"},
      {"gnode.gc.containers_deleted", n(t.gc_deleted), "count"},
      {"space.container_per_logical",
       Ratio(n(space.report.container_bytes), logical), "ratio"},
      {"space.meta_per_logical", Ratio(n(space.report.meta_bytes), logical),
       "ratio"},
      {"space.recipe_per_logical",
       Ratio(n(space.report.recipe_bytes), logical), "ratio"},
      {"space.index_per_logical", Ratio(n(space.report.index_bytes), logical),
       "ratio"},
      {"cluster.jain", JainIndex(p.jobs), "ratio"},
      {"proc.cpu_util",
       Ratio(traced.cpu_s,
             traced.wall_s *
                 std::max(1u, std::thread::hardware_concurrency())),
       "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.spans", n(spans.size()), "count"},
  };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"sdb-backup", "sdb-restore",
                                                 "rdata-tenants"};
  return names;
}

BenchResult RunBenchmark(const BenchOptions& options) {
  BenchResult result;
  Recorder setup_rec;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.reset();
    const int64_t t0 = NowNanos();
    w = MakeWorkload(options.workload);
    slim::Status s = w->Setup(options.seed, &setup_rec);
    setup_s.push_back(Seconds(NowNanos() - t0));
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
  }
  const Digest& in = w->input();
  std::printf("workload %s, seed %llu: input digest %016llx%016llx "
              "(%llu bytes)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(in.a),
              static_cast<unsigned long long>(in.b),
              static_cast<unsigned long long>(in.len));
  std::printf("setup: %d runs, %.3f / %.3f / %.3f s\n", kSetupRepeats,
              setup_s[0], setup_s[1], setup_s[2]);

  Recorder rec;
  Measured untraced = RunTimed(w.get(), options.seconds, &rec);
  const Phase setup = setup_rec.Take();

  std::vector<JobRecord> all = setup.jobs;
  all.insert(all.end(), untraced.phase.jobs.begin(),
             untraced.phase.jobs.end());
  uint64_t backups = 0;
  for (const auto& j : all) backups += j.type == JobType::kBackup;
  Totals sizes = untraced.phase.totals;
  sizes.referenced_containers += setup.totals.referenced_containers;
  std::printf("%s\n", w->Describe(sizes, backups).c_str());
  std::printf("timed phase: %.2f s wall, %zu calls, %llu OSS requests, "
              "OSS in-flight mean %.2f\n",
              untraced.wall_s, untraced.phase.jobs.size(),
              static_cast<unsigned long long>(untraced.oss.requests()),
              untraced.oss.inflight_mean());
  AddEndToEnd(all, untraced, *w, setup_s, &result.metrics);

  std::vector<const Measured*> phases = {&untraced};
  Measured traced;
  if (options.trace) {
    Tracer::Get().SetEnabled(true);
    traced = RunTimed(w.get(), options.seconds, &rec);
    Tracer::Get().SetEnabled(false);
    const std::vector<Span> spans = Tracer::Get().Take();
    AddPerLayer(untraced, traced, spans, *w, &result.metrics);
    if (!options.trace_out.empty()) {
      if (WriteSpansJson(spans, options.trace_out)) {
        std::printf("spans written to %s\n", options.trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write %s\n",
                     options.trace_out.c_str());
      }
    }
    phases.push_back(&traced);
  }

  result.attempted = setup.attempted;
  result.failed = setup.failed;
  bool ran = true;
  for (const Measured* m : phases) {
    result.attempted += m->phase.attempted;
    result.failed += m->phase.failed;
    if (!m->status.ok()) {
      std::fprintf(stderr, "timed phase failed: %s\n",
                   m->status.ToString().c_str());
      ran = false;
    }
  }
  std::printf("failed_frac %.6f (%llu of %llu calls and checks)\n",
              Ratio(static_cast<double>(result.failed),
                    static_cast<double>(result.attempted)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  result.correct = ran && result.failed == 0 && result.attempted > 0;
  return result;
}

}  // namespace perfbench
