// Checks the latency decorator's accounting: back-to-back calls give an
// in-flight mean of ~1, two overlapping calls give more than 1, calls
// are charged to the job open on their thread, and passthrough calls
// are not counted. Run: ctest --test-dir .bench_build/perfbench
#include <cstdio>
#include <latch>
#include <thread>

#include "latency_store.h"
#include "oss/memory_object_store.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

// 20 ms per request: long enough that two threads started together
// overlap for almost the whole call.
constexpr perfbench::LatencyModel kModel{20'000'000, 0};

}  // namespace

int main() {
  using perfbench::JobType;
  using perfbench::OssOp;
  slim::oss::MemoryObjectStore mem;

  {
    perfbench::LatencyObjectStore store(&mem, kModel);
    Check(store.Put("a", "xy").ok(), "put succeeds");
    Check(store.Get("a").ok(), "get succeeds");
    perfbench::OssCounters c = store.counters();
    Check(c.ops[static_cast<int>(OssOp::kPut)] == 1, "one put counted");
    Check(c.ops[static_cast<int>(OssOp::kGet)] == 1, "one get counted");
    Check(c.bytes_written == 2 && c.bytes_read == 2, "bytes counted");
    Check(c.busy_s >= 0.040, "each call lasts the modelled latency");
    Check(c.inflight_mean() > 0.95 && c.inflight_mean() < 1.05,
          "back-to-back calls: inflight_mean ~ 1");
  }

  {
    perfbench::LatencyObjectStore store(&mem, kModel);
    std::latch start(2);
    auto get = [&] {
      start.arrive_and_wait();
      store.Get("a").IgnoreError();
    };
    std::thread t1(get);
    std::thread t2(get);
    t1.join();
    t2.join();
    perfbench::OssCounters c = store.counters();
    Check(c.requests() == 2, "two requests counted");
    Check(c.inflight_mean() > 1.0, "two overlapping calls: inflight_mean > 1");
  }

  {
    perfbench::LatencyObjectStore store(&mem, kModel);
    {
      perfbench::JobScope job(JobType::kBackup, "backup");
      store.Get("a").IgnoreError();
    }
    store.set_passthrough(true);
    store.Get("a").IgnoreError();
    perfbench::OssCounters c = store.counters();
    Check(c.job_bytes_read[static_cast<int>(JobType::kBackup)] == 2,
          "bytes charged to the job on its thread");
    Check(c.requests() == 1, "passthrough calls are not counted");
  }

  if (failures == 0) std::printf("latency_store_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
