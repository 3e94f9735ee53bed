#ifndef SLIMSTORE_DURABILITY_CRC32C_KERNELS_H_
#define SLIMSTORE_DURABILITY_CRC32C_KERNELS_H_

// The CRC32C implementations behind Crc32cExtend. Private to
// durability/checksum.cc and the tests that cross-check the hardware
// kernel against the portable one.

#include <cstddef>
#include <cstdint>

namespace slim::durability::crc32c_kernels {

/// Same contract as Crc32cExtend.
using Extend = uint32_t (*)(uint32_t crc, const void* data, size_t len);

/// Table-driven, one byte per step; runs on every CPU and is the tests'
/// reference.
uint32_t Portable(uint32_t crc, const void* data, size_t len);

/// The SSE4.2 `crc32` kernel, or nullptr when this CPU (per CPUID) or the
/// target architecture lacks it.
Extend Hardware();

}  // namespace slim::durability::crc32c_kernels

#endif  // SLIMSTORE_DURABILITY_CRC32C_KERNELS_H_
