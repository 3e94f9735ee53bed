#ifndef PERFBENCH_LATENCY_STORE_H_
#define PERFBENCH_LATENCY_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "oss/object_store.h"
#include "trace.h"

namespace perfbench {

/// Time one OSS request takes: a fixed per-request latency plus a
/// per-byte transfer time for the bytes it moves.
struct LatencyModel {
  int64_t request_ns = 0;
  double ns_per_byte = 0;
};

/// The benchmark's remote-OSS stand-in. The datasets are scaled down
/// from the paper's GiB-sized files to a few MiB, so the constants are
/// scaled too: chosen so that OSS wait is a large but not dominant share
/// of a backup's wall time. A faster CPU path and better I/O overlap
/// then both show in wall time.
///  * 1 ms per request: the round trip of a small in-region object
///    request, shrunk with the data (cloud OSS quotes 10-30 ms to first
///    byte for MiB-sized objects).
///  * 4 ns per byte (~240 MiB/s per request): one OSS connection's
///    transfer rate, so one 4 MiB container takes ~17 ms to move.
inline constexpr LatencyModel kOssModel{1'000'000, 4.0};

enum class OssOp : uint8_t { kGet, kGetRange, kPut, kList, kMeta, kDelete };
inline constexpr int kOssOps = 6;
const char* OssOpName(OssOp op);

/// What the decorator counted. Differences of two snapshots give the
/// traffic of the interval between them.
struct OssCounters {
  uint64_t ops[kOssOps] = {};
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Sum of call durations.
  double busy_s = 0;
  /// Union of call intervals: time with at least one call in flight.
  double active_s = 0;

  /// Bytes read on behalf of each job type (trace.h CurrentJob), indexed
  /// by JobType.
  uint64_t job_bytes_read[kJobTypes] = {};

  uint64_t requests() const;
  /// Mean calls in flight while any is: busy time / active time.
  double inflight_mean() const {
    return active_s > 0 ? busy_s / active_s : 0;
  }
  OssCounters operator-(const OssCounters& before) const;
};

/// ObjectStore decorator that makes each call take the model's wall time
/// (it sleeps until the model's time has passed since the call began, so
/// the base store's own work overlaps the modelled latency) and counts
/// requests, bytes, busy time and in-flight overlap. While the tracer is
/// enabled it records a span per call. Thread-safe.
class LatencyObjectStore : public slim::oss::ObjectStore {
 public:
  /// `base` must outlive this object.
  LatencyObjectStore(slim::oss::ObjectStore* base, LatencyModel model)
      : base_(base), model_(model) {}

  slim::Status Put(const std::string& key, std::string value) override;
  slim::Result<std::string> Get(const std::string& key) override;
  slim::Result<std::string> GetRange(const std::string& key, uint64_t offset,
                                     uint64_t len) override;
  slim::Status Delete(const std::string& key) override;
  slim::Result<bool> Exists(const std::string& key) override;
  slim::Result<uint64_t> Size(const std::string& key) override;
  slim::Result<std::vector<std::string>> List(
      const std::string& prefix) override;

  /// While on, calls go straight to the base store: no latency, no
  /// counting, no spans. For the benchmark's own bookkeeping (verifying,
  /// reopening), which is not part of what it measures.
  void set_passthrough(bool on) {
    passthrough_.store(on, std::memory_order_relaxed);
  }

  OssCounters counters() const;

 private:
  /// Begin marks a call in flight and returns its start; End sleeps out
  /// the model's time and accounts the call.
  int64_t Begin();
  void End(OssOp op, int64_t start_ns, uint64_t bytes_read,
           uint64_t bytes_written);
  bool passthrough() const {
    return passthrough_.load(std::memory_order_relaxed);
  }

  slim::oss::ObjectStore* base_;
  const LatencyModel model_;
  std::atomic<bool> passthrough_{false};

  mutable std::mutex mu_;
  int inflight_ = 0;
  int64_t active_since_ns_ = 0;
  OssCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LATENCY_STORE_H_
