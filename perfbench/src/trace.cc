#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

struct ThreadJob {
  JobType type = JobType::kNone;
  uint64_t span = 0;
};

thread_local ThreadJob t_job;

// Jobs in flight process-wide, and the type of the last one started:
// with exactly one in flight, that is the job helper threads work for.
std::atomic<int> g_jobs_in_flight{0};
std::atomic<JobType> g_last_job{JobType::kNone};

}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* JobTypeName(JobType type) {
  switch (type) {
    case JobType::kBackup:
      return "backup";
    case JobType::kRestore:
      return "restore";
    case JobType::kGNode:
      return "gnode";
    case JobType::kNone:
      break;
  }
  return "none";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

uint32_t Tracer::ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\",\"job\":\"%s\","
                 "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"bytes\":%llu}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 JobTypeName(s.job), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

JobScope::JobScope(JobType type, const char* name)
    : type_(type),
      name_(name),
      span_id_(Tracer::Get().NextId()),
      start_ns_(NowNanos()) {
  t_job = ThreadJob{type, span_id_};
  g_last_job.store(type, std::memory_order_relaxed);
  g_jobs_in_flight.fetch_add(1, std::memory_order_acq_rel);
}

void JobScope::Finish() {
  if (finished_) return;
  finished_ = true;
  end_ns_ = NowNanos();
  t_job = ThreadJob{};
  g_jobs_in_flight.fetch_sub(1, std::memory_order_acq_rel);
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    tracer.Record(Span{span_id_, 0, name_, type_, Tracer::ThreadIndex(),
                       start_ns_, end_ns_, 0});
  }
}

JobType CurrentJob(uint64_t* parent) {
  *parent = t_job.span;
  if (t_job.type != JobType::kNone) return t_job.type;
  if (g_jobs_in_flight.load(std::memory_order_acquire) == 1) {
    return g_last_job.load(std::memory_order_relaxed);
  }
  return JobType::kNone;
}

}  // namespace perfbench
