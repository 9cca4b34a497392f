// Unit-cost timings of single layers, measured from outside through their
// public functions.  Each returns the median of several timed batches.
#pragma once

#include <cstddef>

#include "common.hpp"

namespace perfbench {

struct UnitCosts {
    double hmac_ns = 0.0;             // crypto::hmac_sha256 over a 32-byte digest
    double sha256_8b_ns = 0.0;        // crypto::sha256 over 8 bytes
    double sha256_4k_ns = 0.0;        // crypto::sha256 over 4 KiB
    double pairwise_key_ns = 0.0;     // KeyStore::pairwise_key, cached pair
    double dispatch_ns = 0.0;         // Simulator schedule + dispatch at a given depth
    double request_codec_ns = 0.0;    // RequestMsg envelope encode + decode
    double fabric_hop_ns = 0.0;       // RequestMsg over loopback TCP, SocketFabric to SocketFabric
    double client_build_us = 0.0;     // ClientEndpoint::send_one on a simulated cluster

    /// SHA-256 cost of hashing `bytes`, interpolated between the 8 B and
    /// 4 KiB timings (the compression count is linear in the length).
    [[nodiscard]] double sha256_ns(std::size_t bytes) const;
};

/// Times every unit above.  `queue_depth` is the simulator queue high water
/// of the workload being explained; `payload_bytes` its request size.
[[nodiscard]] UnitCosts time_units(std::size_t queue_depth, std::size_t payload_bytes,
                                   Spans* spans);

}  // namespace perfbench
