#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
int64_t NowNanos();

/// The public calls the benchmark times, grouped the way its metrics are.
enum class JobType : uint8_t { kNone = 0, kBackup, kRestore, kGNode };
inline constexpr int kJobTypes = 4;
const char* JobTypeName(JobType type);

/// One recorded interval. A job span (one public call) has no parent; an
/// OSS span names the job span that was open on the same thread. OSS
/// calls made on helper threads (restore prefetch) have no parent either
/// and are reported as overlapped work of `job`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  JobType job = JobType::kNone;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes = 0;
};

/// Process-wide in-memory span buffer. Records nothing until enabled;
/// spans stay in memory until Take() and are written out by the caller.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& span);
  std::vector<Span> Take();

  /// Small dense id of the calling thread (for the span dump).
  static uint32_t ThreadIndex();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes spans as a JSON array. Returns false on I/O failure.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

/// Marks the calling thread as running one public call for its lifetime
/// and, while the tracer is enabled, records the call's span. OSS calls
/// on this thread become its children.
class JobScope {
 public:
  JobScope(JobType type, const char* name);
  ~JobScope() { Finish(); }
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

  /// Stops the clock (idempotent) and records the span.
  void Finish();

  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  uint64_t span_id() const { return span_id_; }

 private:
  JobType type_;
  const char* name_;
  uint64_t span_id_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  bool finished_ = false;
};

/// The job an OSS call on the calling thread belongs to. `*parent` is the
/// open job span on this thread (0 if none). A thread with no job of its
/// own is a helper thread: its calls are charged to the only job in
/// flight in the process, if there is exactly one, else to kNone.
JobType CurrentJob(uint64_t* parent);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
