// Cluster assembly for the baseline protocols, mirroring core::Cluster so
// the experiment harness and benches can drive any protocol uniformly.
#pragma once

#include <memory>
#include <vector>

#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "net/network.hpp"
#include "obs/recorder.hpp"
#include "protocols/aardvark/aardvark.hpp"
#include "protocols/prime/prime.hpp"
#include "protocols/spinning/spinning.hpp"
#include "rbft/service.hpp"
#include "sim/simulator.hpp"

namespace rbft::protocols {

/// Generic 3f+1-node cluster for a baseline protocol.  NodeT must provide
/// on_message(Address, MessagePtr) and start(); ConfigT must expose
/// assign_topology(NodeId, n, f).
template <typename NodeT, typename ConfigT>
class ProtocolCluster {
public:
    ProtocolCluster(std::uint32_t f, std::uint64_t seed, ConfigT node_template,
                    net::ChannelParams channel)
        : f_(f), n_(cluster_size(f)), keys_(seed) {
        network_ = std::make_unique<net::Network>(simulator_, n_, Rng(seed), channel, channel);
        // Attach observability when the template carries a recorder (directly
        // for Prime, nested in the shared BaselineConfig for the others).
        obs::Recorder* recorder = nullptr;
        if constexpr (requires { node_template.recorder; }) {
            recorder = node_template.recorder;
        } else {
            recorder = node_template.base.recorder;
        }
        if (recorder) {
            simulator_.set_metrics(&recorder->metrics());
            simulator_.set_profiler(recorder->profiler());
            network_->set_recorder(recorder);
        }
        for (std::uint32_t i = 0; i < n_; ++i) {
            ConfigT cfg = node_template;
            cfg.assign_topology(NodeId{i}, n_, f_);
            if constexpr (requires { cfg.message_pool; }) {
                cfg.message_pool = &pool_;
            } else {
                cfg.base.message_pool = &pool_;
            }
            nodes_.push_back(std::make_unique<NodeT>(cfg, simulator_, *network_, keys_, costs_,
                                                     std::make_unique<core::NullService>()));
            NodeT* node = nodes_.back().get();
            network_->register_node(NodeId{i},
                                    [node](net::Address from, const net::MessagePtr& m) {
                                        node->on_message(from, m);
                                    });
        }
    }

    void start() {
        for (auto& node : nodes_) node->start();
    }

    [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] net::Network& network() noexcept { return *network_; }
    /// Cluster-wide message pool (never null), as core::Cluster::message_pool().
    [[nodiscard]] net::MessagePool* message_pool() noexcept { return &pool_; }
    [[nodiscard]] const crypto::KeyStore& keys() const noexcept { return keys_; }
    [[nodiscard]] NodeT& node(std::uint32_t i) { return *nodes_.at(i); }
    [[nodiscard]] std::uint32_t n() const noexcept { return n_; }
    [[nodiscard]] std::uint32_t f() const noexcept { return f_; }

private:
    std::uint32_t f_;
    std::uint32_t n_;
    sim::Simulator simulator_;
    crypto::KeyStore keys_;
    crypto::CostModel costs_{};
    net::MessagePool pool_;
    std::unique_ptr<net::Network> network_;
    std::vector<std::unique_ptr<NodeT>> nodes_;
};

using AardvarkCluster = ProtocolCluster<AardvarkNode, AardvarkConfig>;
using SpinningCluster = ProtocolCluster<SpinningNode, SpinningConfig>;
using PrimeCluster = ProtocolCluster<prime::PrimeNode, prime::PrimeConfig>;

/// Default channel per protocol: Spinning uses UDP multicast (§VI-B), the
/// others TCP.
[[nodiscard]] inline net::ChannelParams default_channel_aardvark() {
    return net::ChannelParams::tcp();
}
[[nodiscard]] inline net::ChannelParams default_channel_spinning() {
    return net::ChannelParams::udp();
}
[[nodiscard]] inline net::ChannelParams default_channel_prime() {
    return net::ChannelParams::tcp();
}

}  // namespace rbft::protocols
