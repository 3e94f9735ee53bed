#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct BenchOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Each timed phase runs whole passes until this much time has passed.
  double seconds = 10;
  /// Add a traced phase after the untraced one and report per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced phase's spans are written (empty: not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct BenchResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

/// Sets up and runs one workload, printing a human-readable report to
/// stdout. `options.workload` must be one of WorkloadNames().
BenchResult RunBenchmark(const BenchOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
