// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Digests are used for request identifiers ordered by the protocol
// instances (the paper orders "the client id, request id and digest" rather
// than whole request payloads, §IV-B step 2) and as the compression core of
// HMAC and of the simulated signature scheme.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace rbft::crypto {

/// The chaining state after a whole number of 64-byte blocks.  A hasher
/// resumed from it continues as if it had absorbed that prefix itself, so a
/// fixed prefix (HMAC's keyed pad blocks) is compressed once, not per use.
struct Sha256Midstate {
    std::array<std::uint32_t, 8> state{};
    std::uint64_t length = 0;  // bytes absorbed; a multiple of 64

    auto operator<=>(const Sha256Midstate&) const = default;
};

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    Sha256() noexcept { reset(); }

    /// Resumes from a saved midstate instead of the initial state.
    explicit Sha256(const Sha256Midstate& midstate) noexcept;

    /// Resets to the initial hash state (allows object reuse).
    void reset() noexcept;

    /// Saves the chaining state.  Only valid on a block boundary: the bytes
    /// absorbed so far must be a multiple of 64.
    [[nodiscard]] Sha256Midstate midstate() const noexcept;

    /// Absorbs `data`; may be called repeatedly.
    void update(BytesView data) noexcept;

    /// Finalizes and returns the digest.  The object must be reset() before
    /// further use.
    [[nodiscard]] Digest finish() noexcept;

private:
    std::uint32_t state_[8]{};
    std::uint64_t total_len_ = 0;
    std::uint8_t buffer_[64]{};
    std::size_t buffer_len_ = 0;
};

/// The compression kernel this process runs: "sha-ni" on CPUs with the x86
/// SHA extensions, "portable" elsewhere.  Digests are identical either way;
/// only wall time differs.
[[nodiscard]] const char* sha256_kernel_name() noexcept;

/// One-shot convenience wrapper.
[[nodiscard]] Digest sha256(BytesView data) noexcept;

}  // namespace rbft::crypto
