#include "crypto/keystore.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"

namespace rbft::crypto {
namespace {

void append_principal(Bytes& buf, Principal p) {
    buf.push_back(static_cast<std::uint8_t>(p.kind));
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(p.index >> (i * 8)));
}

SymmetricKey derive(const SymmetricKey& parent, BytesView label) {
    const Digest d = hmac_sha256(parent, label);
    SymmetricKey key;
    std::memcpy(key.bytes.data(), d.bytes.data(), key.bytes.size());
    return key;
}

}  // namespace

KeyStore::KeyStore(std::uint64_t master_secret) noexcept {
    Bytes seed;
    seed.reserve(8);
    for (int i = 0; i < 8; ++i) seed.push_back(static_cast<std::uint8_t>(master_secret >> (i * 8)));
    const Digest d = sha256(seed);
    std::memcpy(root_.bytes.data(), d.bytes.data(), root_.bytes.size());
}

const KeyStore::PairwiseEntry& KeyStore::pairwise_entry(Principal a, Principal b) const {
    // Canonical order so key(a,b) == key(b,a).
    Principal lo = a, hi = b;
    if (hi < lo) std::swap(lo, hi);
    if (const auto it = pairwise_cache_.find({lo, hi}); it != pairwise_cache_.end()) {
        stats_.key_cache_hits += 1;
        return it->second;
    }
    Bytes label = to_bytes("pairwise:");
    append_principal(label, lo);
    append_principal(label, hi);
    const SymmetricKey key = derive(root_, label);
    stats_.keys_derived += 1;
    return pairwise_cache_.emplace(std::make_pair(lo, hi), PairwiseEntry{key, HmacKey(key)})
        .first->second;
}

const HmacKey& KeyStore::signing_key(Principal p) const {
    if (const auto it = signing_cache_.find(p); it != signing_cache_.end()) {
        stats_.key_cache_hits += 1;
        return it->second;
    }
    Bytes label = to_bytes("signing:");
    append_principal(label, p);
    stats_.keys_derived += 1;
    return signing_cache_.emplace(p, HmacKey(derive(root_, label))).first->second;
}

Signature KeyStore::sign(Principal p, BytesView data) const {
    stats_.sigs_computed += 1;
    return Signature{p, hmac_sha256(signing_key(p), data)};
}

bool KeyStore::verify(const Signature& sig, BytesView data) const {
    stats_.sigs_computed += 1;
    const Digest expected = hmac_sha256(signing_key(sig.signer), data);
    std::uint8_t diff = 0;
    for (std::size_t i = 0; i < expected.bytes.size(); ++i) {
        diff |= static_cast<std::uint8_t>(expected.bytes[i] ^ sig.tag.bytes[i]);
    }
    return diff == 0;
}

}  // namespace rbft::crypto
