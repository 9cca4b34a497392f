// HMAC-SHA256 (RFC 2104) and a 128-bit truncated MAC type.
//
// The paper authenticates every message with MACs or MAC authenticators
// (one MAC per receiving node) and signs client requests.  We keep the MACs
// real so tests can verify actual forgery resistance within the model
// (without the shared key, a faulty node cannot fabricate a valid tag).
#pragma once

#include <array>
#include <compare>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "crypto/sha256.hpp"

namespace rbft::crypto {

/// A 128-bit message authentication tag (SHA-256 HMAC truncated to 16 bytes,
/// as commonly done by PBFT-family implementations to keep messages small).
struct Mac {
    std::array<std::uint8_t, 16> bytes{};
    auto operator<=>(const Mac&) const = default;
};

/// A 256-bit symmetric key shared pairwise between two principals.
struct SymmetricKey {
    std::array<std::uint8_t, 32> bytes{};
    auto operator<=>(const SymmetricKey&) const = default;
};

/// A key prepared for HMAC: the SHA-256 midstates after the key's ipad block
/// and after its opad block.  Each MAC then resumes from them instead of
/// re-compressing both pad blocks, so an HMAC over a 32-byte digest costs 2
/// compressions instead of 4.  The tags are the same bytes either way.
struct HmacKey {
    Sha256Midstate inner;
    Sha256Midstate outer;

    explicit HmacKey(const SymmetricKey& key) noexcept;

    auto operator<=>(const HmacKey&) const = default;
};

/// Full HMAC-SHA256 over `data` with a prepared key.
[[nodiscard]] Digest hmac_sha256(const HmacKey& key, BytesView data) noexcept;

/// Truncated tag used on the wire.
[[nodiscard]] Mac compute_mac(const HmacKey& key, BytesView data) noexcept;

/// Constant-time-style comparison (the simulator has no timing side channel,
/// but the API mirrors what a production library must do).
[[nodiscard]] bool verify_mac(const HmacKey& key, BytesView data, const Mac& tag) noexcept;

// Raw-key forms: prepare the key, then run the HmacKey form.  Hot paths use
// the midstates KeyStore caches instead.
[[nodiscard]] inline Digest hmac_sha256(const SymmetricKey& key, BytesView data) noexcept {
    return hmac_sha256(HmacKey(key), data);
}
[[nodiscard]] inline Mac compute_mac(const SymmetricKey& key, BytesView data) noexcept {
    return compute_mac(HmacKey(key), data);
}
[[nodiscard]] inline bool verify_mac(const SymmetricKey& key, BytesView data,
                                     const Mac& tag) noexcept {
    return verify_mac(HmacKey(key), data, tag);
}

}  // namespace rbft::crypto
