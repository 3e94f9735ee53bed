#include "latency_store.h"

#include <chrono>
#include <thread>

namespace perfbench {

const char* OssOpName(OssOp op) {
  switch (op) {
    case OssOp::kGet:
      return "oss.get";
    case OssOp::kGetRange:
      return "oss.getrange";
    case OssOp::kPut:
      return "oss.put";
    case OssOp::kList:
      return "oss.list";
    case OssOp::kMeta:
      return "oss.meta";
    case OssOp::kDelete:
      return "oss.delete";
  }
  return "oss.unknown";
}

uint64_t OssCounters::requests() const {
  uint64_t n = 0;
  for (uint64_t v : ops) n += v;
  return n;
}

OssCounters OssCounters::operator-(const OssCounters& before) const {
  OssCounters d = *this;
  for (int i = 0; i < kOssOps; ++i) d.ops[i] -= before.ops[i];
  d.bytes_read -= before.bytes_read;
  d.bytes_written -= before.bytes_written;
  d.busy_s -= before.busy_s;
  d.active_s -= before.active_s;
  for (int j = 0; j < kJobTypes; ++j) {
    d.job_bytes_read[j] -= before.job_bytes_read[j];
  }
  return d;
}

int64_t LatencyObjectStore::Begin() {
  const int64_t start = NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_++ == 0) active_since_ns_ = start;
  return start;
}

void LatencyObjectStore::End(OssOp op, int64_t start_ns, uint64_t bytes_read,
                             uint64_t bytes_written) {
  const uint64_t moved = bytes_read + bytes_written;
  const int64_t deadline =
      start_ns + model_.request_ns +
      static_cast<int64_t>(model_.ns_per_byte * static_cast<double>(moved));
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(deadline))));
  const int64_t end_ns = NowNanos();
  const double seconds = static_cast<double>(end_ns - start_ns) * 1e-9;

  uint64_t parent = 0;
  const JobType job = CurrentJob(&parent);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.ops[static_cast<int>(op)];
    counters_.bytes_read += bytes_read;
    counters_.bytes_written += bytes_written;
    counters_.busy_s += seconds;
    if (--inflight_ == 0) {
      counters_.active_s +=
          static_cast<double>(end_ns - active_since_ns_) * 1e-9;
    }
    counters_.job_bytes_read[static_cast<int>(job)] += bytes_read;
  }
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) {
    tracer.Record(Span{tracer.NextId(), parent, OssOpName(op), job,
                       Tracer::ThreadIndex(), start_ns, end_ns, moved});
  }
}

OssCounters LatencyObjectStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

slim::Status LatencyObjectStore::Put(const std::string& key,
                                     std::string value) {
  if (passthrough()) return base_->Put(key, std::move(value));
  const uint64_t size = value.size();
  const int64_t start = Begin();
  slim::Status s = base_->Put(key, std::move(value));
  End(OssOp::kPut, start, 0, size);
  return s;
}

slim::Result<std::string> LatencyObjectStore::Get(const std::string& key) {
  if (passthrough()) return base_->Get(key);
  const int64_t start = Begin();
  auto r = base_->Get(key);
  End(OssOp::kGet, start, r.ok() ? r->size() : 0, 0);
  return r;
}

slim::Result<std::string> LatencyObjectStore::GetRange(const std::string& key,
                                                       uint64_t offset,
                                                       uint64_t len) {
  if (passthrough()) return base_->GetRange(key, offset, len);
  const int64_t start = Begin();
  auto r = base_->GetRange(key, offset, len);
  End(OssOp::kGetRange, start, r.ok() ? r->size() : 0, 0);
  return r;
}

slim::Status LatencyObjectStore::Delete(const std::string& key) {
  if (passthrough()) return base_->Delete(key);
  const int64_t start = Begin();
  slim::Status s = base_->Delete(key);
  End(OssOp::kDelete, start, 0, 0);
  return s;
}

slim::Result<bool> LatencyObjectStore::Exists(const std::string& key) {
  if (passthrough()) return base_->Exists(key);
  const int64_t start = Begin();
  auto r = base_->Exists(key);
  End(OssOp::kMeta, start, 0, 0);
  return r;
}

slim::Result<uint64_t> LatencyObjectStore::Size(const std::string& key) {
  if (passthrough()) return base_->Size(key);
  const int64_t start = Begin();
  auto r = base_->Size(key);
  End(OssOp::kMeta, start, 0, 0);
  return r;
}

slim::Result<std::vector<std::string>> LatencyObjectStore::List(
    const std::string& prefix) {
  if (passthrough()) return base_->List(prefix);
  const int64_t start = Begin();
  auto r = base_->List(prefix);
  End(OssOp::kList, start, 0, 0);
  return r;
}

}  // namespace perfbench
