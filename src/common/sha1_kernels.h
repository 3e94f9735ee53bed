#ifndef SLIMSTORE_COMMON_SHA1_KERNELS_H_
#define SLIMSTORE_COMMON_SHA1_KERNELS_H_

// The SHA-1 compression functions behind Sha1. Private to common/hash.cc
// and the tests that cross-check the hardware kernel against the
// portable one.

#include <cstddef>
#include <cstdint>

#include "common/hash.h"

namespace slim::sha1_kernels {

/// Portable C++; runs on every CPU and is the tests' reference.
void Portable(uint32_t* state, const uint8_t* blocks, size_t nblocks);

/// The SHA-NI kernel, or nullptr when this CPU (per CPUID) or the target
/// architecture lacks it.
Sha1::Compress Hardware();

/// A Sha1 that compresses with `compress` instead of the kernel Sha1()
/// picks.
class Sha1With : public Sha1 {
 public:
  explicit Sha1With(Compress compress) : Sha1(compress) {}
};

}  // namespace slim::sha1_kernels

#endif  // SLIMSTORE_COMMON_SHA1_KERNELS_H_
