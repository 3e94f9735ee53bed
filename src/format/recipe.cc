#include "format/recipe.h"

#include <cinttypes>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/checksum.h"

namespace slim::format {

namespace {
constexpr uint32_t kRecipeMagic = 0x534c5231;  // "SLR1"
constexpr uint32_t kIndexMagic = 0x534c4931;   // "SLI1"
}  // namespace

std::vector<ContainerId> CollectReferencedContainers(const Recipe& recipe) {
  std::unordered_map<ContainerId, bool> seen;
  std::vector<ContainerId> out;
  auto add = [&](ContainerId cid) {
    if (cid == kInvalidContainerId) return;  // Logical superchunks.
    if (!seen.emplace(cid, true).second) return;
    out.push_back(cid);
  };
  for (const auto& segment : recipe.segments) {
    for (const auto& record : segment.records) {
      add(record.container_id);
      if (record.constituents != nullptr) {
        for (const auto& constituent : *record.constituents) {
          add(constituent.container_id);
        }
      }
    }
  }
  return out;
}

std::vector<ChunkRecord> Recipe::Flatten() const {
  std::vector<ChunkRecord> out;
  out.reserve(TotalChunks());
  for (const auto& seg : segments) {
    for (const auto& record : seg.records) {
      // Superchunks are logical: restore operates on their physical
      // constituents.
      if (record.is_superchunk && record.constituents != nullptr &&
          !record.constituents->empty()) {
        out.insert(out.end(), record.constituents->begin(),
                   record.constituents->end());
      } else {
        out.push_back(record);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// RecipeIndex
// ---------------------------------------------------------------------------

RecipeIndex RecipeIndex::Build(const Recipe& recipe, uint32_t sample_ratio) {
  RecipeIndex index;
  index.file_id = recipe.file_id;
  index.version = recipe.version;
  for (uint32_t ordinal = 0; ordinal < recipe.segments.size(); ++ordinal) {
    const SegmentRecipe& seg = recipe.segments[ordinal];
    bool sampled_any = false;
    for (const ChunkRecord& record : seg.records) {
      if (IsSampleFingerprint(record.fp, sample_ratio)) {
        index.sample_to_segment.emplace(record.fp, ordinal);
        sampled_any = true;
      }
      // A superchunk can only be re-discovered through its first CDC
      // chunk (Algorithm 1), so that fingerprint is always indexed; its
      // sampled constituents are indexed too so a partially-diverged
      // span still finds this segment (small-chunk fallback).
      if (record.is_superchunk) {
        index.sample_to_segment.emplace(record.first_chunk_fp, ordinal);
        sampled_any = true;
        if (record.constituents != nullptr) {
          for (const ChunkRecord& constituent : *record.constituents) {
            if (IsSampleFingerprint(constituent.fp, sample_ratio)) {
              index.sample_to_segment.emplace(constituent.fp, ordinal);
            }
          }
        }
      }
    }
    // Guarantee discoverability of every segment.
    if (!sampled_any && !seg.records.empty()) {
      index.sample_to_segment.emplace(seg.records.front().fp, ordinal);
    }
  }
  return index;
}

std::string RecipeIndex::Encode() const {
  std::string out;
  PutFixed32(&out, kIndexMagic);
  PutLengthPrefixed(&out, file_id);
  PutFixed64(&out, version);
  PutVarint64(&out, sample_to_segment.size());
  for (const auto& [fp, ordinal] : sample_to_segment) {
    PutFingerprint(&out, fp);
    PutFixed32(&out, ordinal);
  }
  return out;
}

Status RecipeIndex::Decode(std::string_view data, RecipeIndex* out) {
  Decoder dec(data);
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kIndexMagic) return Status::Corruption("recipe index magic");
  std::string_view id;
  SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&id));
  out->file_id = std::string(id);
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&out->version));
  uint64_t count = 0;
  // Each entry: a sample fingerprint and its segment ordinal.
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, Fingerprint::kSize + 4));
  out->sample_to_segment.clear();
  out->sample_to_segment.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Fingerprint fp;
    uint32_t ordinal = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadFingerprint(&fp));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&ordinal));
    out->sample_to_segment.emplace(fp, ordinal);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// RecipeStore
// ---------------------------------------------------------------------------

std::string EscapeFileId(const std::string& file_id) {
  std::string out;
  out.reserve(file_id.size());
  for (char c : file_id) {
    if (c == '/' || c == '%') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", static_cast<uint8_t>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeFileId(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      out += static_cast<char>(
          std::stoi(escaped.substr(i + 1, 2), nullptr, 16));
      i += 2;
    } else {
      out += escaped[i];
    }
  }
  return out;
}

RecipeStore::RecipeStore(oss::ObjectStore* store, std::string prefix)
    : store_(store), prefix_(std::move(prefix)) {}

namespace {
std::string VersionSuffix(uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012" PRIu64, version);
  return buf;
}
}  // namespace

std::string RecipeStore::RecipeKey(const std::string& file_id,
                                   uint64_t version) const {
  return prefix_ + "/recipe/" + EscapeFileId(file_id) + "/" +
         VersionSuffix(version);
}

std::string RecipeStore::TocKey(const std::string& file_id,
                                uint64_t version) const {
  return prefix_ + "/toc/" + EscapeFileId(file_id) + "/" +
         VersionSuffix(version);
}

std::string RecipeStore::IndexKey(const std::string& file_id,
                                  uint64_t version) const {
  return prefix_ + "/index/" + EscapeFileId(file_id) + "/" +
         VersionSuffix(version);
}

Status RecipeStore::WriteRecipe(const Recipe& recipe, uint32_t sample_ratio) {
  // Header.
  std::string header;
  PutFixed32(&header, kRecipeMagic);
  PutLengthPrefixed(&header, recipe.file_id);
  PutFixed64(&header, recipe.version);
  PutVarint64(&header, recipe.segments.size());

  // Segment bodies and table of contents (absolute ranges).
  std::string body;
  std::string toc;
  PutVarint64(&toc, recipe.segments.size());
  for (const SegmentRecipe& seg : recipe.segments) {
    std::string encoded;
    seg.Encode(&encoded);
    PutFixed64(&toc, header.size() + body.size());
    PutFixed64(&toc, encoded.size());
    body += encoded;
  }

  // The recipe object is the authoritative one: ReadRecipe,
  // ListVersions and restores consult it alone, while toc/index only
  // accelerate segment prefetch. Writing it LAST makes it the commit
  // point — if any earlier Put fails, the old recipe (and the
  // containers it references) stays fully intact, so callers like SCC
  // can roll back their new containers safely.
  SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
      *store_, TocKey(recipe.file_id, recipe.version), std::move(toc),
      durability::Component::kRecipeToc));
  RecipeIndex index = RecipeIndex::Build(recipe, sample_ratio);
  SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
      *store_, IndexKey(recipe.file_id, recipe.version), index.Encode(),
      durability::Component::kRecipeIndex));
  // The checksum footer is a suffix, so the toc's absolute segment
  // ranges stay valid for range reads of the recipe object.
  SLIM_RETURN_IF_ERROR(durability::PutWithFooter(
      *store_, RecipeKey(recipe.file_id, recipe.version), header + body,
      durability::Component::kRecipe));
  {
    // Invalidate any stale cached toc for this key (recipe rewrite).
    MutexLock lock(toc_mu_);
    toc_cache_.erase(TocKey(recipe.file_id, recipe.version));
  }
  return Status::Ok();
}

Result<Recipe> RecipeStore::ReadRecipe(const std::string& file_id,
                                       uint64_t version) const {
  auto object = durability::GetVerified(*store_, RecipeKey(file_id, version),
                                        durability::Component::kRecipe);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint32_t magic = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadFixed32(&magic));
  if (magic != kRecipeMagic) return Status::Corruption("recipe magic");
  std::string_view id;
  SLIM_RETURN_IF_ERROR(dec.ReadLengthPrefixed(&id));
  Recipe recipe;
  recipe.file_id = std::string(id);
  SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&recipe.version));
  uint64_t seg_count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadVarint64(&seg_count));
  recipe.segments.resize(seg_count);
  for (uint64_t i = 0; i < seg_count; ++i) {
    uint64_t record_count = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadVarint64(&record_count));
    recipe.segments[i].records.resize(record_count);
    for (uint64_t j = 0; j < record_count; ++j) {
      SLIM_RETURN_IF_ERROR(
          DecodeChunkRecord(&dec, &recipe.segments[i].records[j]));
    }
  }
  return recipe;
}

Result<RecipeIndex> RecipeStore::ReadIndex(const std::string& file_id,
                                           uint64_t version) const {
  auto object = durability::GetVerified(*store_, IndexKey(file_id, version),
                                        durability::Component::kRecipeIndex);
  if (!object.ok()) return object.status();
  RecipeIndex index;
  SLIM_RETURN_IF_ERROR(RecipeIndex::Decode(object.value(), &index));
  return index;
}

Result<RecipeStore::Toc> RecipeStore::GetToc(const std::string& file_id,
                                             uint64_t version) {
  const std::string key = TocKey(file_id, version);
  {
    MutexLock lock(toc_mu_);
    auto it = toc_cache_.find(key);
    if (it != toc_cache_.end()) return it->second;
  }
  auto object =
      durability::GetVerified(*store_, key, durability::Component::kRecipeToc);
  if (!object.ok()) return object.status();
  Decoder dec(object.value());
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, 16));  // Offset, length.
  Toc toc;
  toc.ranges.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t offset = 0, length = 0;
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&offset));
    SLIM_RETURN_IF_ERROR(dec.ReadFixed64(&length));
    toc.ranges.emplace_back(offset, length);
  }
  {
    MutexLock lock(toc_mu_);
    toc_cache_[key] = toc;
  }
  return toc;
}

Result<SegmentRecipe> RecipeStore::ReadSegment(const std::string& file_id,
                                               uint64_t version,
                                               uint32_t segment_ordinal) {
  auto toc = GetToc(file_id, version);
  if (!toc.ok()) return toc.status();
  if (segment_ordinal >= toc.value().ranges.size()) {
    return Status::InvalidArgument("segment ordinal out of range");
  }
  auto [offset, length] = toc.value().ranges[segment_ordinal];
  // Range reads cannot verify the whole-object footer; the segment is
  // structurally decoded below and whole-object scrub covers the rest.
  auto bytes = store_->GetRange(RecipeKey(file_id, version), offset,
                                length);  // lint:allow-unverified-read
  if (!bytes.ok()) return bytes.status();
  SegmentRecipe segment;
  SLIM_RETURN_IF_ERROR(SegmentRecipe::Decode(bytes.value(), &segment));
  return segment;
}

Result<std::vector<SegmentRecipe>> RecipeStore::ReadSegmentRange(
    const std::string& file_id, uint64_t version, uint32_t first_ordinal,
    uint32_t count) {
  auto toc = GetToc(file_id, version);
  if (!toc.ok()) return toc.status();
  const auto& ranges = toc.value().ranges;
  if (first_ordinal >= ranges.size()) {
    return Status::InvalidArgument("segment ordinal out of range");
  }
  uint32_t last = static_cast<uint32_t>(
      std::min<size_t>(first_ordinal + count, ranges.size()));
  uint64_t begin = ranges[first_ordinal].first;
  uint64_t end = ranges[last - 1].first + ranges[last - 1].second;
  // See ReadSegment: range reads rely on structural decode + scrub.
  auto bytes = store_->GetRange(RecipeKey(file_id, version), begin,
                                end - begin);  // lint:allow-unverified-read
  if (!bytes.ok()) return bytes.status();
  std::vector<SegmentRecipe> out;
  out.reserve(last - first_ordinal);
  for (uint32_t i = first_ordinal; i < last; ++i) {
    SegmentRecipe segment;
    std::string_view body(bytes.value());
    SLIM_RETURN_IF_ERROR(SegmentRecipe::Decode(
        body.substr(ranges[i].first - begin, ranges[i].second), &segment));
    out.push_back(std::move(segment));
  }
  return out;
}

Status RecipeStore::DeleteVersion(const std::string& file_id,
                                  uint64_t version) {
  SLIM_RETURN_IF_ERROR(store_->Delete(RecipeKey(file_id, version)));
  SLIM_RETURN_IF_ERROR(store_->Delete(TocKey(file_id, version)));
  SLIM_RETURN_IF_ERROR(store_->Delete(IndexKey(file_id, version)));
  MutexLock lock(toc_mu_);
  toc_cache_.erase(TocKey(file_id, version));
  return Status::Ok();
}

Result<std::vector<uint64_t>> RecipeStore::ListVersions(
    const std::string& file_id) const {
  const std::string prefix = prefix_ + "/recipe/" + EscapeFileId(file_id) +
                             "/";
  auto keys = store_->List(prefix);
  if (!keys.ok()) return keys.status();
  std::vector<uint64_t> versions;
  versions.reserve(keys.value().size());
  for (const auto& key : keys.value()) {
    versions.push_back(std::stoull(key.substr(prefix.size())));
  }
  return versions;
}

Result<std::vector<std::pair<std::string, uint64_t>>>
RecipeStore::ListAllVersions() const {
  const std::string prefix = prefix_ + "/recipe/";
  auto keys = store_->List(prefix);
  if (!keys.ok()) return keys.status();
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(keys.value().size());
  for (const auto& key : keys.value()) {
    // "<prefix>/recipe/<escaped file>/<%012d version>".
    std::string tail = key.substr(prefix.size());
    size_t slash = tail.rfind('/');
    if (slash == std::string::npos) continue;
    out.emplace_back(UnescapeFileId(tail.substr(0, slash)),
                     std::stoull(tail.substr(slash + 1)));
  }
  return out;
}

void RecipeStore::DropLocalState() {
  MutexLock lock(toc_mu_);
  toc_cache_.clear();
}

}  // namespace slim::format
