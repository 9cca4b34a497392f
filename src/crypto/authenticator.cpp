#include "crypto/authenticator.hpp"

#include "crypto/sha256.hpp"

namespace rbft::crypto {

MacAuthenticator make_authenticator(const KeyStore& keys, Principal sender,
                                    std::uint32_t node_count, const Digest& body_digest) {
    MacAuthenticator auth;
    auth.sender = sender;
    auth.macs.reserve(node_count);
    const BytesView digest_view(body_digest.bytes.data(), body_digest.bytes.size());
    for (std::uint32_t i = 0; i < node_count; ++i) {
        auth.macs.push_back(
            compute_mac(keys.pairwise_mac_key(sender, Principal::node(NodeId{i})), digest_view));
        keys.note_mac();
    }
    return auth;
}

MacAuthenticator make_authenticator(const KeyStore& keys, Principal sender,
                                    std::uint32_t node_count, BytesView data) {
    keys.note_digest();
    return make_authenticator(keys, sender, node_count, sha256(data));
}

bool verify_authenticator(const KeyStore& keys, const MacAuthenticator& auth,
                          NodeId receiver, const Digest& body_digest) {
    const std::uint32_t idx = raw(receiver);
    if (idx >= auth.macs.size()) return false;
    const HmacKey& key = keys.pairwise_mac_key(auth.sender, Principal::node(receiver));
    keys.note_mac();
    return verify_mac(key, BytesView(body_digest.bytes.data(), body_digest.bytes.size()),
                      auth.macs[idx]);
}

bool verify_authenticator(const KeyStore& keys, const MacAuthenticator& auth,
                          NodeId receiver, BytesView data) {
    keys.note_digest();
    return verify_authenticator(keys, auth, receiver, sha256(data));
}

}  // namespace rbft::crypto
