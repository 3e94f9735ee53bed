#include "durability/checksum.h"

#include <array>
#include <cstring>

#include "common/coding.h"
#include "common/macros.h"
#include "durability/crc32c_kernels.h"
#include "obs/metrics.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace slim::durability {

namespace {

constexpr uint32_t kFooterMagic = 0x53435243;  // "CRCS" little-endian.

std::array<uint32_t, 256> BuildCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = BuildCrc32cTable();
  return table;
}

/// Per-component counters, resolved once per process (metric names are
/// built dynamically from the component name).
struct ChecksumCounters {
  obs::Counter* ok;
  obs::Counter* corrupt;
};

ChecksumCounters& CountersFor(Component component) {
  static std::array<ChecksumCounters, 9> counters = [] {
    std::array<ChecksumCounters, 9> out{};
    auto& registry = obs::MetricsRegistry::Get();
    for (size_t i = 0; i < out.size(); ++i) {
      const std::string base = std::string("durability.checksum.") +
                               ComponentName(static_cast<Component>(i));
      out[i].ok = &registry.counter(base + ".ok");
      out[i].corrupt = &registry.counter(base + ".corrupt");
    }
    return out;
  }();
  return counters[static_cast<size_t>(component)];
}

}  // namespace

const char* ComponentName(Component component) {
  switch (component) {
    case Component::kContainerData:
      return "container_data";
    case Component::kContainerMeta:
      return "container_meta";
    case Component::kRecipe:
      return "recipe";
    case Component::kRecipeToc:
      return "toc";
    case Component::kRecipeIndex:
      return "recipe_index";
    case Component::kIndexRun:
      return "index_run";
    case Component::kState:
      return "state";
    case Component::kParity:
      return "parity";
    case Component::kOther:
      return "other";
  }
  return "other";
}

namespace crc32c_kernels {
namespace {

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Sse42(uint32_t crc,
                                                 const void* data,
                                                 size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc64 = ~crc;
  for (; len >= 8; len -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc64);
  for (; len > 0; --len, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

}  // namespace

uint32_t Portable(uint32_t crc, const void* data, size_t len) {
  const auto& table = Crc32cTable();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

Extend Hardware() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
      (ecx & bit_SSE4_2) != 0) {
    return Sse42;
  }
#endif
  return nullptr;
}

}  // namespace crc32c_kernels

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  static const crc32c_kernels::Extend extend = [] {
    crc32c_kernels::Extend hardware = crc32c_kernels::Hardware();
    return hardware != nullptr ? hardware : crc32c_kernels::Portable;
  }();
  return extend(crc, data, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

void AppendFooter(std::string* object) {
  PutFixed32(object, Crc32c(object->data(), object->size()));
  PutFixed32(object, kFooterMagic);
}

namespace {

/// Shared footer parse: returns true and sets *payload on success.
bool ParseFooter(std::string_view object, std::string_view* payload) {
  if (object.size() < kFooterSize) return false;
  const size_t payload_size = object.size() - kFooterSize;
  uint32_t stored_crc = 0;
  uint32_t magic = 0;
  std::memcpy(&stored_crc, object.data() + payload_size, 4);
  std::memcpy(&magic, object.data() + payload_size + 4, 4);
  if (magic != kFooterMagic) return false;
  if (Crc32c(object.data(), payload_size) != stored_crc) return false;
  *payload = object.substr(0, payload_size);
  return true;
}

}  // namespace

bool HasValidFooter(std::string_view object) {
  std::string_view payload;
  return ParseFooter(object, &payload);
}

Result<std::string_view> VerifyFooter(std::string_view object,
                                      Component component) {
  ChecksumCounters& counters = CountersFor(component);
  std::string_view payload;
  if (!ParseFooter(object, &payload)) {
    counters.corrupt->Inc();
    return Status::Corruption(std::string("checksum footer invalid (") +
                              ComponentName(component) + ")");
  }
  counters.ok->Inc();
  return payload;
}

Status VerifyAndStripFooter(std::string* object, Component component) {
  auto payload = VerifyFooter(*object, component);
  if (!payload.ok()) return payload.status();
  object->resize(payload.value().size());
  return Status::Ok();
}

Result<std::string> GetVerified(oss::ObjectStore& store,
                                const std::string& key, Component component) {
  auto object = store.Get(key);
  if (!object.ok()) return object.status();
  SLIM_RETURN_IF_ERROR(VerifyAndStripFooter(&object.value(), component));
  return std::move(object).value();
}

Status PutWithFooter(oss::ObjectStore& store, const std::string& key,
                     std::string value, Component component) {
  (void)component;
  AppendFooter(&value);
  return store.Put(key, std::move(value));
}

}  // namespace slim::durability
