// The SHA-256 compression kernels behind crypto::Sha256 (internal).
//
// Two bodies compute the same function: a portable one and one on the x86
// SHA extensions (SHA-NI).  Sha256 picks one per process from CPUID; both
// are exposed here so tests can check them against each other on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rbft::crypto::detail {

/// Runs the SHA-256 compression function over `nblocks` consecutive 64-byte
/// blocks, updating the 8-word chaining `state` in place.
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks) noexcept;

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t nblocks) noexcept;

/// True when the CPU has the SHA extensions plus SSSE3 and SSE4.1, which the
/// hardware body also uses.  Always false off x86-64.
[[nodiscard]] bool have_sha_extensions() noexcept;

/// The SHA-NI body.  Call only when have_sha_extensions() is true.
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t nblocks) noexcept;

}  // namespace rbft::crypto::detail
