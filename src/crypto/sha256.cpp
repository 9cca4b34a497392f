#include "crypto/sha256.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "crypto/sha256_kernel.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace rbft::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

alignas(16) constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
    return (x >> n) | (x << (32 - n));
}

/// The kernel this process runs, chosen on first use.
detail::CompressFn selected_kernel() noexcept {
    static const detail::CompressFn kernel =
        detail::have_sha_extensions() ? detail::compress_shani : detail::compress_portable;
    return kernel;
}

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks,
                       std::size_t nblocks) noexcept {
    std::uint32_t w[64];
    for (; nblocks > 0; --nblocks, blocks += 64) {
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

bool have_sha_extensions() noexcept {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const bool sse = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return sse && (ebx & bit_SHA);
}

// SHA-NI keeps the state as two vectors, ABEF and CDGH.  Each
// _mm_sha256rnds2_epu32 runs two rounds, so a group of four rounds is two
// calls; msg1/msg2 extend the message schedule four words at a time, and the
// state stays in registers across all blocks.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t nblocks) noexcept {
    // Byte-swaps each 32-bit word: the message is big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));       // DCBA
    __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
    tmp = _mm_shuffle_epi32(tmp, 0xB1);                                           // CDAB
    cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                         // EFGH
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                 // ABEF
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                      // CDGH

    for (; nblocks > 0; --nblocks, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        // m[g % 4] holds schedule words 4g..4g+3 while group g runs.
        __m128i m[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            __m128i& cur = m[g & 3];
            if (g < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), bswap);
            }
            __m128i wk = _mm_add_epi32(
                cur, _mm_load_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (g >= 3 && g < 15) {  // finish words 4(g+1)..4(g+1)+3
                __m128i& next = m[(g + 1) & 3];
                next = _mm_add_epi32(next, _mm_alignr_epi8(cur, m[(g - 1) & 3], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (g >= 1 && g < 13) {  // start words 4(g+3)..4(g+3)+3
                __m128i& prev = m[(g - 1) & 3];
                prev = _mm_sha256msg1_epu32(prev, cur);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
    abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
    cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

#else

bool have_sha_extensions() noexcept { return false; }

void compress_shani(std::uint32_t* state, const std::uint8_t* blocks,
                    std::size_t nblocks) noexcept {
    compress_portable(state, blocks, nblocks);  // unreachable: no SHA extensions here
}

#endif

}  // namespace detail

const char* sha256_kernel_name() noexcept {
    return selected_kernel() == detail::compress_shani ? "sha-ni" : "portable";
}

void Sha256::reset() noexcept {
    std::memcpy(state_, kInit, sizeof(state_));
    total_len_ = 0;
    buffer_len_ = 0;
}

Sha256::Sha256(const Sha256Midstate& midstate) noexcept : total_len_(midstate.length) {
    std::memcpy(state_, midstate.state.data(), sizeof(state_));
}

Sha256Midstate Sha256::midstate() const noexcept {
    assert(buffer_len_ == 0);
    Sha256Midstate out;
    std::memcpy(out.state.data(), state_, sizeof(state_));
    out.length = total_len_;
    return out;
}

void Sha256::update(BytesView data) noexcept {
    if (data.empty()) return;
    total_len_ += data.size();
    const detail::CompressFn compress = selected_kernel();
    const std::uint8_t* in = data.data();
    std::size_t left = data.size();

    if (buffer_len_ > 0) {
        const std::size_t take = std::min(left, std::size_t{64} - buffer_len_);
        std::memcpy(buffer_ + buffer_len_, in, take);
        buffer_len_ += take;
        in += take;
        left -= take;
        if (buffer_len_ < 64) return;
        compress(state_, buffer_, 1);
        buffer_len_ = 0;
    }

    // Every whole block goes to the kernel in one call; only the tail waits.
    if (left >= 64) {
        compress(state_, in, left / 64);
        in += left & ~std::size_t{63};
        left &= 63;
    }
    if (left > 0) {
        std::memcpy(buffer_, in, left);
        buffer_len_ = left;
    }
}

Digest Sha256::finish() noexcept {
    // Pads in place: 0x80, zeros up to byte 56, then the 64-bit big-endian
    // bit length; one extra block when fewer than 8 bytes are left for it.
    const std::uint64_t bit_len = total_len_ * 8;
    const detail::CompressFn compress = selected_kernel();
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
        compress(state_, buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    compress(state_, buffer_, 1);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Digest sha256(BytesView data) noexcept {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finish();
}

}  // namespace rbft::crypto
