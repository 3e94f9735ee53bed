#include "oss/rocks_oss.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::oss {

namespace {

// Run object layout:
//   fixed64 entry_count
//   fixed32 bloom_hashes
//   fixed64 bloom_word_count, then bloom words
//   entry_count * { varint key_len, key, fixed32 flags(1=tombstone),
//                   varint value_len, value }
constexpr uint32_t kTombstoneFlag = 1;

/// A key as error messages show it: printable keys as they are, others
/// (the global index's raw 20-byte fingerprints) as lowercase hex.
std::string PrintableKey(const std::string& key) {
  if (std::all_of(key.begin(), key.end(),
                  [](char c) { return c >= 0x20 && c < 0x7f; })) {
    return key;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : key) {
    hex += kHex[c >> 4];
    hex += kHex[c & 0xf];
  }
  return hex;
}

void BloomAdd(std::vector<uint64_t>* bits, uint32_t hashes,
              const std::string& key) {
  if (bits->empty()) return;
  uint64_t h1 = Fnv1a64(key);
  uint64_t h2 = Mix64(h1);
  uint64_t nbits = bits->size() * 64;
  for (uint32_t i = 0; i < hashes; ++i) {
    uint64_t bit = (h1 + i * h2) % nbits;
    (*bits)[bit / 64] |= (uint64_t{1} << (bit % 64));
  }
}

bool BloomTest(const std::vector<uint64_t>& bits, uint32_t hashes,
               const std::string& key) {
  if (bits.empty()) return true;
  uint64_t h1 = Fnv1a64(key);
  uint64_t h2 = Mix64(h1);
  uint64_t nbits = bits.size() * 64;
  for (uint32_t i = 0; i < hashes; ++i) {
    uint64_t bit = (h1 + i * h2) % nbits;
    if ((bits[bit / 64] & (uint64_t{1} << (bit % 64))) == 0) return false;
  }
  return true;
}

}  // namespace

RocksOss::RocksOss(ObjectStore* store, std::string name,
                   RocksOssOptions options)
    : store_(store), name_(std::move(name)), options_(options) {
  auto& reg = obs::MetricsRegistry::Get();
  metrics_.flushes = &reg.counter("rocksoss.memtable.flushes");
  metrics_.flush_bytes = &reg.counter("rocksoss.memtable.flush_bytes");
  metrics_.compactions = &reg.counter("rocksoss.compactions");
  metrics_.compaction_input_runs =
      &reg.counter("rocksoss.compaction.input_runs");
  metrics_.compaction_bytes = &reg.counter("rocksoss.compaction.bytes");
  metrics_.bloom_negatives = &reg.counter("rocksoss.bloom.negatives");
  metrics_.bloom_true_positives =
      &reg.counter("rocksoss.bloom.true_positives");
  metrics_.bloom_false_positives =
      &reg.counter("rocksoss.bloom.false_positives");
  metrics_.run_cache_hits = &reg.counter("rocksoss.run_cache.hits");
  metrics_.run_cache_misses = &reg.counter("rocksoss.run_cache.misses");
}

std::string RocksOss::RunObjectKey(uint64_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(id));
  return name_ + "/run-" + buf;
}

Status RocksOss::Open() {
  MutexLock lock(mu_);
  auto keys = store_->List(name_ + "/run-");
  if (!keys.ok()) return keys.status();
  runs_.clear();
  for (const std::string& key : keys.value()) {
    auto data = durability::GetVerified(*store_, key,
                                        durability::Component::kIndexRun);
    if (!data.ok()) return data.status();
    Memtable entries;
    SLIM_RETURN_IF_ERROR(ParseRun(data.value(), &entries));
    Run run;
    run.key = key;
    // Recover id from the key suffix.
    run.id = std::stoull(key.substr(key.rfind('-') + 1));
    next_run_id_ = std::max(next_run_id_, run.id + 1);
    // Rebuild the bloom filter from entries.
    if (options_.bloom_bits_per_key > 0 && !entries.empty()) {
      uint64_t nbits =
          std::max<uint64_t>(64, entries.size() * options_.bloom_bits_per_key);
      run.bloom.assign((nbits + 63) / 64, 0);
      run.bloom_hashes = 6;
      for (const auto& [k, v] : entries) {
        BloomAdd(&run.bloom, run.bloom_hashes, k);
      }
    }
    run.entry_count = entries.size();
    runs_.push_back(std::move(run));
  }
  std::sort(runs_.begin(), runs_.end(),
            [](const Run& a, const Run& b) { return a.id < b.id; });
  return Status::Ok();
}

void RocksOss::DropLocalState() {
  MutexLock lock(mu_);
  memtable_.clear();
  memtable_bytes_ = 0;
  runs_.clear();
  next_run_id_ = 0;
  cache_lru_.clear();
  run_cache_.clear();
  bloom_skips_ = 0;
}

Status RocksOss::Put(const std::string& key, const std::string& value) {
  MutexLock lock(mu_);
  memtable_.insert_or_assign(key, value);
  memtable_bytes_ += key.size() + value.size() + 16;
  if (memtable_bytes_ >= options_.memtable_limit_bytes) {
    return FlushLocked();
  }
  return Status::Ok();
}

Status RocksOss::Delete(const std::string& key) {
  MutexLock lock(mu_);
  memtable_.insert_or_assign(key, std::nullopt);
  memtable_bytes_ += key.size() + 16;
  if (memtable_bytes_ >= options_.memtable_limit_bytes) {
    return FlushLocked();
  }
  return Status::Ok();
}

Result<std::string> RocksOss::Get(const std::string& key) {
  MutexLock lock(mu_);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (!it->second.has_value()) {
      return Status::NotFound("tombstoned: " + PrintableKey(key));
    }
    return *it->second;
  }
  // Newest run first. A bloom pass that the run then fails to satisfy
  // is a false positive (a wasted run read); a pass confirmed by the
  // run is a true positive.
  for (auto rit = runs_.rbegin(); rit != runs_.rend(); ++rit) {
    if (!BloomMayContain(*rit, key)) {
      ++bloom_skips_;
      metrics_.bloom_negatives->Inc();
      continue;
    }
    auto entries = LoadRunLocked(*rit);
    if (!entries.ok()) return entries.status();
    auto eit = entries.value()->find(key);
    if (eit != entries.value()->end()) {
      metrics_.bloom_true_positives->Inc();
      if (!eit->second.has_value()) {
        return Status::NotFound("tombstoned: " + PrintableKey(key));
      }
      return *eit->second;
    }
    metrics_.bloom_false_positives->Inc();
  }
  return Status::NotFound("key: " + PrintableKey(key));
}

Result<std::vector<std::pair<std::string, std::string>>> RocksOss::Scan(
    const std::string& start, const std::string& end) {
  MutexLock lock(mu_);
  // Merge all sources; newer sources win. Apply oldest first and
  // overwrite, then strip tombstones.
  std::map<std::string, std::optional<std::string>> merged;
  auto in_range = [&](const std::string& k) {
    if (k < start) return false;
    if (!end.empty() && k >= end) return false;
    return true;
  };
  for (const Run& run : runs_) {
    auto entries = LoadRunLocked(run);
    if (!entries.ok()) return entries.status();
    for (const auto& [k, v] : *entries.value()) {
      if (in_range(k)) merged[k] = v;
    }
  }
  for (const auto& [k, v] : memtable_) {
    if (in_range(k)) merged[k] = v;
  }
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(merged.size());
  for (auto& [k, v] : merged) {
    if (v.has_value()) out.emplace_back(k, std::move(*v));
  }
  return out;
}

Status RocksOss::Flush() {
  MutexLock lock(mu_);
  return FlushLocked();
}

Status RocksOss::FlushLocked() {
  if (memtable_.empty()) return Status::Ok();
  Run run;
  run.id = next_run_id_++;
  run.key = RunObjectKey(run.id);
  std::string payload = SerializeRun(memtable_, options_, &run);
  metrics_.flushes->Inc();
  metrics_.flush_bytes->Inc(payload.size());
  SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
      *store_, run.key, std::move(payload), durability::Component::kIndexRun));
  // Cache the freshly flushed run: it is the most likely to be read.
  auto cached = std::make_shared<Memtable>(std::move(memtable_));
  run_cache_[run.id] = cached;
  cache_lru_.push_front(run.id);
  while (cache_lru_.size() > options_.run_cache_capacity) {
    run_cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  memtable_.clear();
  memtable_bytes_ = 0;
  runs_.push_back(std::move(run));
  if (options_.max_runs > 0 && runs_.size() >= options_.max_runs) {
    return CompactLocked();
  }
  return Status::Ok();
}

Status RocksOss::Compact() {
  MutexLock lock(mu_);
  return CompactLocked();
}

Status RocksOss::CompactLocked() {
  if (runs_.size() <= 1) return Status::Ok();
  metrics_.compactions->Inc();
  metrics_.compaction_input_runs->Inc(runs_.size());
  Memtable merged;
  for (const Run& run : runs_) {
    auto entries = LoadRunLocked(run);
    if (!entries.ok()) return entries.status();
    for (const auto& [k, v] : *entries.value()) merged[k] = v;
  }
  // Drop tombstones: after a full merge nothing older can resurrect.
  for (auto it = merged.begin(); it != merged.end();) {
    if (!it->second.has_value()) {
      it = merged.erase(it);
    } else {
      ++it;
    }
  }
  // Write the merged run BEFORE touching runs_: if the Put fails the
  // in-memory state (and the OSS) is exactly what it was, so reads keep
  // working and a retried Compact starts over cleanly.
  std::vector<Run> new_runs;
  if (!merged.empty()) {
    Run run;
    run.id = next_run_id_++;
    run.key = RunObjectKey(run.id);
    std::string payload = SerializeRun(merged, options_, &run);
    metrics_.compaction_bytes->Inc(payload.size());
    SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
        *store_, run.key, std::move(payload),
        durability::Component::kIndexRun));
    run_cache_[run.id] = std::make_shared<Memtable>(std::move(merged));
    cache_lru_.push_front(run.id);
    new_runs.push_back(std::move(run));
  }
  std::vector<Run> old_runs = std::move(runs_);
  runs_ = std::move(new_runs);
  // Old run objects are now shadowed by the merged run (it holds every
  // live key, and tombstones in old runs only ever map to NotFound), so
  // a failed delete leaks space but can never corrupt reads — even
  // after a reopen that re-lists the leaked objects. Delete them all,
  // then report the first failure.
  Status delete_status;
  for (const Run& old : old_runs) {
    Status s = store_->Delete(old.key);
    if (!s.ok() && delete_status.ok()) delete_status = std::move(s);
    run_cache_.erase(old.id);
    cache_lru_.remove(old.id);
  }
  SLIM_RETURN_IF_ERROR(delete_status);
  while (cache_lru_.size() > options_.run_cache_capacity) {
    run_cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  return Status::Ok();
}

size_t RocksOss::run_count() const {
  MutexLock lock(mu_);
  return runs_.size();
}

std::string RocksOss::SerializeRun(const Memtable& entries,
                                   const RocksOssOptions& options, Run* run) {
  if (options.bloom_bits_per_key > 0 && !entries.empty()) {
    uint64_t nbits =
        std::max<uint64_t>(64, entries.size() * options.bloom_bits_per_key);
    run->bloom.assign((nbits + 63) / 64, 0);
    run->bloom_hashes = 6;
  }
  std::string out;
  PutFixed64(&out, entries.size());
  for (const auto& [key, value] : entries) {
    PutLengthPrefixed(&out, key);
    PutFixed32(&out, value.has_value() ? 0 : kTombstoneFlag);
    PutLengthPrefixed(&out, value.has_value() ? *value : "");
    if (!run->bloom.empty()) BloomAdd(&run->bloom, run->bloom_hashes, key);
  }
  run->entry_count = entries.size();
  return out;
}

Status RocksOss::ParseRun(const std::string& data, Memtable* entries) {
  Decoder dec(data);
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view key, value;
    uint32_t flags = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&key));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&flags));
    SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&value));
    if (flags & kTombstoneFlag) {
      entries->emplace(std::string(key), std::nullopt);
    } else {
      entries->emplace(std::string(key), std::string(value));
    }
  }
  return Status::Ok();
}

bool RocksOss::BloomMayContain(const Run& run, const std::string& key) {
  return BloomTest(run.bloom, run.bloom_hashes, key);
}

Result<std::shared_ptr<RocksOss::Memtable>> RocksOss::LoadRunLocked(
    const Run& run) {
  auto it = run_cache_.find(run.id);
  if (it != run_cache_.end()) {
    metrics_.run_cache_hits->Inc();
    cache_lru_.remove(run.id);
    cache_lru_.push_front(run.id);
    return it->second;
  }
  metrics_.run_cache_misses->Inc();
  auto data = durability::GetVerified(*store_, run.key,
                                      durability::Component::kIndexRun);
  if (!data.ok()) return data.status();
  auto entries = std::make_shared<Memtable>();
  SLIM_RETURN_IF_ERROR(ParseRun(data.value(), entries.get()));
  run_cache_[run.id] = entries;
  cache_lru_.push_front(run.id);
  while (cache_lru_.size() > options_.run_cache_capacity) {
    run_cache_.erase(cache_lru_.back());
    cache_lru_.pop_back();
  }
  return entries;
}

}  // namespace slim::oss
