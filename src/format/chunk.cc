#include "format/chunk.h"

#include "common/macros.h"

namespace slim::format {

namespace {
constexpr uint32_t kSuperchunkFlag = 1;
// Smallest encoded ChunkRecord: fingerprint, container id, size,
// duplicate times and flags of a plain chunk.
constexpr size_t kMinChunkRecordBytes = Fingerprint::kSize + 20;
}  // namespace

void EncodeChunkRecord(std::string* dst, const ChunkRecord& record) {
  PutFingerprint(dst, record.fp);
  PutFixed64(dst, record.container_id);
  PutFixed32(dst, record.size);
  PutFixed32(dst, record.duplicate_times);
  uint32_t flags = record.is_superchunk ? kSuperchunkFlag : 0;
  PutFixed32(dst, flags);
  if (record.is_superchunk) {
    PutFingerprint(dst, record.first_chunk_fp);
    size_t count =
        record.constituents == nullptr ? 0 : record.constituents->size();
    PutVarint64(dst, count);
    for (size_t i = 0; i < count; ++i) {
      EncodeChunkRecord(dst, (*record.constituents)[i]);
    }
  }
}

Status DecodeChunkRecord(Decoder* dec, ChunkRecord* record) {
  SLIM_RETURN_IF_ERROR(dec->ReadFingerprint(&record->fp));
  SLIM_RETURN_IF_ERROR(dec->ReadFixed64(&record->container_id));
  SLIM_RETURN_IF_ERROR(dec->ReadFixed32(&record->size));
  SLIM_RETURN_IF_ERROR(dec->ReadFixed32(&record->duplicate_times));
  uint32_t flags = 0;
  SLIM_RETURN_IF_ERROR(dec->ReadFixed32(&flags));
  record->is_superchunk = (flags & kSuperchunkFlag) != 0;
  if (record->is_superchunk) {
    SLIM_RETURN_IF_ERROR(dec->ReadFingerprint(&record->first_chunk_fp));
    uint64_t count = 0;
    SLIM_RETURN_IF_ERROR(dec->ReadCount(&count, kMinChunkRecordBytes));
    if (count > 0) {
      auto constituents = std::make_shared<std::vector<ChunkRecord>>();
      constituents->reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        ChunkRecord constituent;
        SLIM_RETURN_IF_ERROR(DecodeChunkRecord(dec, &constituent));
        constituents->push_back(std::move(constituent));
      }
      record->constituents = std::move(constituents);
    }
  } else {
    record->first_chunk_fp = Fingerprint();
    record->constituents.reset();
  }
  return Status::Ok();
}

void SegmentRecipe::Encode(std::string* dst) const {
  PutVarint64(dst, records.size());
  for (const auto& record : records) {
    EncodeChunkRecord(dst, record);
  }
}

Status SegmentRecipe::Decode(std::string_view data, SegmentRecipe* out) {
  Decoder dec(data);
  uint64_t count = 0;
  SLIM_RETURN_IF_ERROR(dec.ReadCount(&count, kMinChunkRecordBytes));
  out->records.clear();
  out->records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ChunkRecord record;
    SLIM_RETURN_IF_ERROR(DecodeChunkRecord(&dec, &record));
    out->records.push_back(record);
  }
  return Status::Ok();
}

}  // namespace slim::format
