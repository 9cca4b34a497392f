#include "units.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "net/envelope.hpp"
#include "rbft/cluster.hpp"
#include "runtime/clock.hpp"
#include "runtime/config.hpp"
#include "runtime/fabric.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"
#include "workload/client.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 7;

/// Median over kBatches of (batch wall time / calls).  `body(calls)` runs
/// one batch and returns a value folded into `sink` so the work stays live.
template <typename Body>
double time_per_call(std::uint64_t calls, Body&& body) {
    std::vector<double> per_call;
    std::uint64_t sink = 0;
    body(calls / 10 + 1, sink);  // warm caches
    for (int b = 0; b < kBatches; ++b) {
        const std::uint64_t start = now_ns();
        body(calls, sink);
        per_call.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(calls));
    }
    // Make `sink` observable without printing it.
    static volatile std::uint64_t keep = 0;
    keep = keep + sink;
    return median(std::move(per_call));
}

/// A steady population of `depth` pending events, each of which reschedules
/// itself until `remaining` runs out.
struct QueueLoad {
    rbft::sim::Simulator simulator;
    rbft::Rng rng{0x51D0};
    std::uint64_t remaining = 0;

    rbft::Duration next_delay() {
        // Network-scale delays within the wheel's first level (512 us), so
        // the cost grows with queue depth the way the protocol's bulk of
        // short-lived events makes it grow.
        return rbft::nanoseconds(static_cast<std::int64_t>(1000 + rng.next_below(511'000)));
    }
    void fire() {
        if (remaining == 0) return;
        --remaining;
        simulator.schedule_after(next_delay(), [this] { fire(); });
    }
};

double time_dispatch(std::size_t depth) {
    depth = std::max<std::size_t>(depth, 16);
    std::vector<double> per_event;
    for (int b = 0; b < 5; ++b) {
        auto load = std::make_unique<QueueLoad>();
        const std::uint64_t events = std::max<std::uint64_t>(4 * depth, 200'000);
        load->remaining = events;
        for (std::size_t i = 0; i < depth; ++i) {
            load->simulator.schedule_after(load->next_delay(), [l = load.get()] { l->fire(); });
        }
        const std::uint64_t start = now_ns();
        const std::uint64_t dispatched = load->simulator.run_all();
        per_event.push_back(static_cast<double>(now_ns() - start) /
                            static_cast<double>(std::max<std::uint64_t>(dispatched, 1)));
    }
    return median(std::move(per_event));
}

std::shared_ptr<rbft::bft::RequestMsg> sample_request(const rbft::crypto::KeyStore& keys,
                                                      std::size_t payload_bytes) {
    using namespace rbft;
    auto req = net::make_msg<bft::RequestMsg>(nullptr);
    req->client = ClientId{1};
    req->rid = RequestId{7};
    req->payload = Bytes(payload_bytes, 0xAB);
    req->digest = req->signed_digest();
    req->sig = keys.sign(crypto::Principal::client(req->client), req->digest);
    req->auth = crypto::make_authenticator(keys, crypto::Principal::client(req->client), 4,
                                           req->digest);
    return req;
}

/// Messages in flight per batch of the fabric hop timing.
constexpr std::uint64_t kHopWindow = 64;

/// Per message: a client-side SocketFabric sends `req` to node 0, whose
/// SocketFabric in this same process receives it over loopback TCP; both
/// TcpTransports are polled and both simulators run, as WallClockExecutor
/// does.  Returns 0 if the link did not come up.
double time_fabric_hop(const std::shared_ptr<rbft::bft::RequestMsg>& req) {
    using namespace rbft;
    runtime::SteadyClock clock;
    sim::Simulator node_sim, client_sim;
    runtime::TcpTransport node_tr(clock, 1), client_tr(clock, 2);
    std::string error;
    if (!node_tr.listen(0, &error)) return 0.0;
    runtime::ClusterSpec spec;
    spec.f = 1;
    // Every node address is the one listening transport, so no dial fails.
    spec.nodes.assign(spec.n(), runtime::NodeAddress{"127.0.0.1", node_tr.listen_port()});
    runtime::SocketFabric node_fabric(node_sim, node_tr, spec, NodeId{0});
    runtime::SocketFabric client_fabric(client_sim, client_tr, spec, std::nullopt);
    std::uint64_t received = 0;
    node_fabric.register_node(NodeId{0}, [&](net::Address, const net::MessagePtr&) { ++received; });

    const net::Address from = net::Address::client(req->client);
    const net::Address to = net::Address::node(NodeId{0});
    const net::MessagePtr msg = req;
    auto pump = [&] {
        client_tr.poll(Duration{});
        node_tr.poll(Duration{});
        (void)client_sim.run_until(clock.now());
        (void)node_sim.run_until(clock.now());
    };
    // Sends `count` messages, kHopWindow at a time, and waits for each
    // window to arrive.  False if a window takes longer than a second.
    auto exchange = [&](std::uint64_t count) {
        while (count > 0) {
            const std::uint64_t window = std::min(count, kHopWindow);
            const std::uint64_t target = received + window;
            for (std::uint64_t i = 0; i < window; ++i) client_fabric.send(from, to, msg);
            const std::uint64_t deadline = now_ns() + 1'000'000'000ULL;
            while (received < target) {
                if (now_ns() > deadline) return false;
                pump();
            }
            count -= window;
        }
        return true;
    };
    if (!exchange(1)) return 0.0;  // connect
    bool ok = true;
    const double ns = time_per_call(4000, [&](std::uint64_t n, std::uint64_t& sink) {
        ok = exchange(n) && ok;
        sink += received;
    });
    return ok ? ns : 0.0;
}

}  // namespace

double UnitCosts::sha256_ns(std::size_t bytes) const {
    const double slope = (sha256_4k_ns - sha256_8b_ns) / (4096.0 - 8.0);
    return std::max(sha256_8b_ns, sha256_8b_ns + slope * (static_cast<double>(bytes) - 8.0));
}

UnitCosts time_units(std::size_t queue_depth, std::size_t payload_bytes, Spans* spans) {
    using namespace rbft;
    SpanScope all(spans, "units");
    UnitCosts u;
    crypto::KeyStore keys(42);
    const crypto::SymmetricKey key =
        keys.pairwise_key(crypto::Principal::node(NodeId{0}), crypto::Principal::client(ClientId{3}));
    {
        SpanScope s(spans, "units;crypto.hmac_sha256");
        Bytes digest(32, 0x5A);
        u.hmac_ns = time_per_call(20000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) {
                digest[0] = static_cast<std::uint8_t>(i);
                sink += crypto::hmac_sha256(key, BytesView(digest.data(), digest.size())).bytes[0];
            }
        });
    }
    {
        SpanScope s(spans, "units;crypto.sha256");
        Bytes small(8, 0x11), big(4096, 0x22);
        u.sha256_8b_ns = time_per_call(50000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) {
                small[0] = static_cast<std::uint8_t>(i);
                sink += crypto::sha256(BytesView(small.data(), small.size())).bytes[0];
            }
        });
        u.sha256_4k_ns = time_per_call(2000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) {
                big[0] = static_cast<std::uint8_t>(i);
                sink += crypto::sha256(BytesView(big.data(), big.size())).bytes[0];
            }
        });
    }
    {
        SpanScope s(spans, "units;crypto.pairwise_key");
        u.pairwise_key_ns = time_per_call(50000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto a = crypto::Principal::node(NodeId{static_cast<std::uint32_t>(i & 3)});
                const auto b = crypto::Principal::client(ClientId{static_cast<std::uint32_t>(i % 20)});
                sink += keys.pairwise_key(a, b).bytes[0];
            }
        });
    }
    {
        SpanScope s(spans, "units;sim.schedule_dispatch");
        u.dispatch_ns = time_dispatch(queue_depth);
    }
    {
        SpanScope s(spans, "units;net.request_codec");
        const auto req = sample_request(keys, payload_bytes);
        const net::Address from = net::Address::client(req->client);
        u.request_codec_ns = time_per_call(5000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto bytes = net::encode_envelope(from, *req);
                const auto env = net::decode_envelope(BytesView(bytes->data(), bytes->size()));
                sink += env.has_value() ? bytes->size() : 0;
            }
        });
    }
    {
        SpanScope s(spans, "units;runtime.fabric_hop");
        u.fabric_hop_ns = time_fabric_hop(sample_request(keys, payload_bytes));
    }
    {
        SpanScope s(spans, "units;client.send_one");
        core::ClusterConfig cfg;
        core::Cluster cluster(cfg);
        workload::ClientBehavior behavior;
        behavior.payload_bytes = payload_bytes;
        behavior.message_pool = cluster.message_pool();
        workload::ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                                        cluster.keys(), cfg.n(), cfg.f, behavior);
        u.client_build_us = 1e-3 * time_per_call(2000, [&](std::uint64_t n, std::uint64_t& sink) {
            for (std::uint64_t i = 0; i < n; ++i) sink += raw(client.send_one());
        });
    }
    return u;
}

}  // namespace perfbench
