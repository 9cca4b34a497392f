#include "crypto/hmac.hpp"

#include <cstring>

namespace rbft::crypto {

HmacKey::HmacKey(const SymmetricKey& key) noexcept {
    // Key is exactly 32 bytes < 64-byte block size, so no pre-hashing needed.
    std::uint8_t ipad[64];
    std::uint8_t opad[64];
    std::memset(ipad, 0x36, sizeof(ipad));
    std::memset(opad, 0x5c, sizeof(opad));
    for (std::size_t i = 0; i < key.bytes.size(); ++i) {
        ipad[i] ^= key.bytes[i];
        opad[i] ^= key.bytes[i];
    }
    Sha256 hasher;
    hasher.update(BytesView(ipad, sizeof(ipad)));
    inner = hasher.midstate();
    hasher.reset();
    hasher.update(BytesView(opad, sizeof(opad)));
    outer = hasher.midstate();
}

Digest hmac_sha256(const HmacKey& key, BytesView data) noexcept {
    Sha256 inner(key.inner);
    inner.update(data);
    const Digest inner_digest = inner.finish();

    Sha256 outer(key.outer);
    outer.update(BytesView(inner_digest.bytes.data(), inner_digest.bytes.size()));
    return outer.finish();
}

Mac compute_mac(const HmacKey& key, BytesView data) noexcept {
    const Digest full = hmac_sha256(key, data);
    Mac tag;
    std::memcpy(tag.bytes.data(), full.bytes.data(), tag.bytes.size());
    return tag;
}

bool verify_mac(const HmacKey& key, BytesView data, const Mac& tag) noexcept {
    const Mac expected = compute_mac(key, data);
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < tag.bytes.size(); ++i) {
        diff |= static_cast<std::uint8_t>(expected.bytes[i] ^ tag.bytes[i]);
    }
    return diff == 0;
}

}  // namespace rbft::crypto
