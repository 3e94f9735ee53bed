#ifndef SLIMSTORE_DURABILITY_CHECKSUM_H_
#define SLIMSTORE_DURABILITY_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "oss/object_store.h"

namespace slim::durability {

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the end-to-end
/// object checksum. Chosen over the format-internal FNV-1a because CRC
/// detects all burst errors up to 32 bits and has a published test
/// vector set; FNV remains in ContainerMeta for backward-compatible
/// payload self-description.
uint32_t Crc32c(const void* data, size_t len);
inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}
/// Incremental form: `crc` is the value returned by a previous call (or
/// 0 for the first block). Runs the SSE4.2 `crc32` instruction when
/// CPUID reports it, else a table loop; both give the same value
/// (durability/crc32c_kernels.h).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// Which durable object family a checksum verification is for. Used to
/// key the per-component `durability.checksum.<component>.{ok,corrupt}`
/// counters so corruption is attributable to a format, not just "some
/// object".
enum class Component : uint8_t {
  kContainerData = 0,
  kContainerMeta,
  kRecipe,
  kRecipeToc,
  kRecipeIndex,
  kIndexRun,
  kState,
  kParity,
  kOther,
};
const char* ComponentName(Component component);

/// Every durable object written by SlimStore carries an 8-byte footer:
///   [crc32c of payload, fixed32 LE][footer magic, fixed32 LE]
/// Appending (rather than prepending) keeps all absolute offsets inside
/// the payload valid, so toc-driven range reads of recipe segments need
/// no translation.
constexpr size_t kFooterSize = 8;

/// Appends the footer to `object` (checksum over the current contents).
void AppendFooter(std::string* object);

/// True iff `object` ends with a well-formed footer whose checksum
/// matches the preceding payload. This is the replica-arbitration
/// predicate: a replica whose bytes fail it is never served.
bool HasValidFooter(std::string_view object);

/// Verifies the footer and returns a view of the payload (footer
/// stripped). Corruption on a missing/bad footer. Bumps the
/// per-component counters.
Result<std::string_view> VerifyFooter(std::string_view object,
                                      Component component);

/// In-place variant: verifies, then truncates the footer off `object`.
Status VerifyAndStripFooter(std::string* object, Component component);

/// The sanctioned verified whole-object read path: one Get, footer
/// verification, footer stripped from the returned bytes. All system
/// read paths (containers, recipes, index runs, persisted state) go
/// through this; the repo lint rule `oss-verified-read` flags raw
/// store Gets outside this file.
Result<std::string> GetVerified(oss::ObjectStore& store,
                                const std::string& key, Component component);

/// Companion write path: appends the footer and Puts.
Status PutWithFooter(oss::ObjectStore& store, const std::string& key,
                     std::string value, Component component);

}  // namespace slim::durability

#endif  // SLIMSTORE_DURABILITY_CHECKSUM_H_
