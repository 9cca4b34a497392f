// Unit tests for the workload layer: client endpoints (reply quorums,
// latency accounting, behaviours) and load generation (static/dynamic
// profiles, rates, stages).
#include <gtest/gtest.h>

#include "bft/messages.hpp"
#include "net/network.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::workload {
namespace {

struct ClientFixture : public ::testing::Test {
    ClientFixture() : net(sim, 4, Rng(1)), keys(1) {
        for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, node_handler(i));
    }

    net::Network::Handler node_handler(std::uint32_t i) {
        return [this, i](net::Address, const net::MessagePtr& m) {
            if (m->type() == net::MsgType::kRequest) {
                requests_seen[i].push_back(std::static_pointer_cast<const bft::RequestMsg>(m));
            }
        };
    }

    /// A correct node's REPLY: names its sender and carries the MAC the
    /// node shares with the client.
    std::shared_ptr<bft::ReplyMsg> make_reply(NodeId node, ClientId client, RequestId rid,
                                              Bytes result = {}) {
        auto r = std::make_shared<bft::ReplyMsg>();
        r->client = client;
        r->rid = rid;
        r->node = node;
        r->result = std::move(result);
        r->mac = crypto::compute_mac(
            keys.pairwise_mac_key(crypto::Principal::node(node), crypto::Principal::client(client)),
            BytesView(r->result.data(), r->result.size()));
        return r;
    }

    void reply(NodeId node, ClientId client, RequestId rid) {
        net.send(net::Address::node(node), net::Address::client(client),
                 make_reply(node, client, rid));
    }

    sim::Simulator sim;
    net::Network net;
    crypto::KeyStore keys;
    std::vector<std::shared_ptr<const bft::RequestMsg>> requests_seen[4];
};

TEST_F(ClientFixture, SendsToAllNodesByDefault) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    client.send_one();
    sim.run_all();
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(requests_seen[i].size(), 1u) << i;
    EXPECT_EQ(client.sent(), 1u);
}

TEST_F(ClientFixture, RoundRobinSingleTargetsOneNodePerRequest) {
    ClientBehavior behavior;
    behavior.round_robin_single = true;
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1, behavior);
    for (int i = 0; i < 8; ++i) client.send_one();
    sim.run_all();
    std::size_t total = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(requests_seen[i].size(), 2u) << i;  // 8 requests over 4 nodes
        total += requests_seen[i].size();
    }
    EXPECT_EQ(total, 8u);
}

TEST_F(ClientFixture, ExplicitTargetsRespected) {
    ClientBehavior behavior;
    behavior.targets = {NodeId{1}, NodeId{3}};
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1, behavior);
    client.send_one();
    sim.run_all();
    EXPECT_TRUE(requests_seen[0].empty());
    EXPECT_EQ(requests_seen[1].size(), 1u);
    EXPECT_TRUE(requests_seen[2].empty());
    EXPECT_EQ(requests_seen[3].size(), 1u);
}

TEST_F(ClientFixture, RequestsAreSignedAndAuthenticated) {
    ClientEndpoint client(ClientId{6}, sim, net, keys, 4, 1);
    client.send_one();
    sim.run_all();
    ASSERT_EQ(requests_seen[0].size(), 1u);
    const auto& req = *requests_seen[0][0];
    // Hash-then-sign: the signature covers the streamed body digest.
    EXPECT_TRUE(keys.verify(req.sig, req.signed_digest()));
    EXPECT_EQ(req.digest, req.signed_digest());
    EXPECT_EQ(req.auth.macs.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        // The client authenticates the precomputed body digest (memoized
        // fast path), so verification goes through the Digest overload too.
        EXPECT_TRUE(crypto::verify_authenticator(keys, req.auth, NodeId{i}, req.digest));
    }
}

TEST_F(ClientFixture, CompletionRequiresFPlusOneReplies) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_all();
    reply(NodeId{0}, ClientId{0}, rid);
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);  // one reply is not enough (f=1)
    reply(NodeId{1}, ClientId{0}, rid);
    sim.run_all();
    EXPECT_EQ(client.completed(), 1u);
}

TEST_F(ClientFixture, DuplicateRepliesFromSameNodeDontCount) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_all();
    reply(NodeId{2}, ClientId{0}, rid);
    reply(NodeId{2}, ClientId{0}, rid);
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);
}

TEST_F(ClientFixture, RepliesNamingOtherNodesDontCount) {
    // One faulty node sends f+1 replies, each validly MACed for the node it
    // names: only the reply naming the sender itself is a vote.
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_all();
    for (std::uint32_t named = 0; named < 2; ++named) {
        net.send(net::Address::node(NodeId{3}), net::Address::client(ClientId{0}),
                 make_reply(NodeId{named}, ClientId{0}, rid));
    }
    net.send(net::Address::node(NodeId{3}), net::Address::client(ClientId{0}),
             make_reply(NodeId{3}, ClientId{0}, rid));
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);
    reply(NodeId{0}, ClientId{0}, rid);  // a second genuine vote completes it
    sim.run_all();
    EXPECT_EQ(client.completed(), 1u);
}

TEST_F(ClientFixture, RepliesWithBadMacDontCount) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_all();
    reply(NodeId{0}, ClientId{0}, rid);
    auto forged = make_reply(NodeId{1}, ClientId{0}, rid);
    forged->mac.bytes[0] ^= 0x01;
    net.send(net::Address::node(NodeId{1}), net::Address::client(ClientId{0}), forged);
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);
}

TEST_F(ClientFixture, CompletionRequiresMatchingResults) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_all();
    for (std::uint32_t i = 0; i < 2; ++i) {
        net.send(net::Address::node(NodeId{i}), net::Address::client(ClientId{0}),
                 make_reply(NodeId{i}, ClientId{0}, rid, Bytes{static_cast<std::uint8_t>(i)}));
    }
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);  // two votes, two different results
    net.send(net::Address::node(NodeId{2}), net::Address::client(ClientId{0}),
             make_reply(NodeId{2}, ClientId{0}, rid, Bytes{1}));
    sim.run_all();
    EXPECT_EQ(client.completed(), 1u);  // f+1 = 2 votes for result {1}
}

TEST_F(ClientFixture, RepliesForUnknownRidIgnored) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    reply(NodeId{0}, ClientId{0}, RequestId{99});
    reply(NodeId{1}, ClientId{0}, RequestId{99});
    sim.run_all();
    EXPECT_EQ(client.completed(), 0u);
}

TEST_F(ClientFixture, LatencyRecordedAtQuorumTime) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId rid = client.send_one();
    sim.run_for(milliseconds(10.0));
    reply(NodeId{0}, ClientId{0}, rid);
    reply(NodeId{1}, ClientId{0}, rid);
    sim.run_all();
    ASSERT_EQ(client.completed(), 1u);
    EXPECT_GE(client.latencies().summary().mean(), 0.010);
    EXPECT_EQ(client.completions().size(), 1u);
}

TEST_F(ClientFixture, WindowedCountsAndLatency) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId r1 = client.send_one();
    sim.run_for(milliseconds(5.0));
    reply(NodeId{0}, ClientId{0}, r1);
    reply(NodeId{1}, ClientId{0}, r1);
    sim.run_for(milliseconds(100.0));
    const RequestId r2 = client.send_one();
    sim.run_for(milliseconds(5.0));
    reply(NodeId{0}, ClientId{0}, r2);
    reply(NodeId{1}, ClientId{0}, r2);
    sim.run_all();
    EXPECT_EQ(client.completed_in(TimePoint{}, TimePoint{} + milliseconds(50.0)), 1u);
    EXPECT_EQ(client.completed_in(TimePoint{}, TimePoint{} + seconds(1.0)), 2u);
    EXPECT_GT(client.mean_latency_in(TimePoint{}, TimePoint{} + seconds(1.0)), 0.0);
}

TEST_F(ClientFixture, PayloadSizeFromBehavior) {
    ClientBehavior behavior;
    behavior.payload_bytes = 4096;
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1, behavior);
    client.send_one();
    sim.run_all();
    EXPECT_EQ(requests_seen[0][0]->payload.size(), 4096u);
}

TEST_F(ClientFixture, RidsMonotonicallyIncrease) {
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    const RequestId a = client.send_one();
    const RequestId b = client.send_one();
    EXPECT_EQ(raw(b), raw(a) + 1);
}

// ---------------------------------------------------------------------------
// Load generation.

TEST(LoadSpec, ConstantTotalDuration) {
    const auto spec = LoadSpec::constant(1000.0, seconds(2.0), 5);
    EXPECT_EQ(spec.total_duration().ns, seconds(2.0).ns);
    EXPECT_EQ(spec.stages.size(), 1u);
}

TEST(LoadSpec, DynamicShapeMatchesPaper) {
    const auto spec = LoadSpec::dynamic(100.0, milliseconds(200.0));
    // 10 up + spike + 10 down = 21 stages.
    ASSERT_EQ(spec.stages.size(), 21u);
    EXPECT_EQ(spec.stages[0].active_clients, 1u);
    EXPECT_EQ(spec.stages[9].active_clients, 10u);
    EXPECT_EQ(spec.stages[10].active_clients, 50u);  // the spike
    EXPECT_EQ(spec.stages[20].active_clients, 1u);
    EXPECT_DOUBLE_EQ(spec.stages[10].rate, 5000.0);
}

TEST(LoadGenerator, RateApproximatelyHonored) {
    sim::Simulator sim;
    net::Network net(sim, 4, Rng(1));
    crypto::KeyStore keys(1);
    for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, nullptr);
    ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
    LoadGenerator load(sim, {&client}, LoadSpec::constant(1000.0, seconds(2.0), 1), Rng(3));
    load.start();
    sim.run_all();
    EXPECT_NEAR(static_cast<double>(client.sent()), 2000.0, 150.0);
    EXPECT_EQ(load.end_time().ns, seconds(2.0).ns);
}

TEST(LoadGenerator, SpreadsAcrossActiveClients) {
    sim::Simulator sim;
    net::Network net(sim, 4, Rng(1));
    crypto::KeyStore keys(1);
    for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, nullptr);
    ClientEndpoint a(ClientId{0}, sim, net, keys, 4, 1);
    ClientEndpoint b(ClientId{1}, sim, net, keys, 4, 1);
    LoadGenerator load(sim, {&a, &b}, LoadSpec::constant(1000.0, seconds(1.0), 2), Rng(3));
    load.start();
    sim.run_all();
    EXPECT_NEAR(static_cast<double>(a.sent()), static_cast<double>(b.sent()), 2.0);
}

TEST(LoadGenerator, StageClientCountLimitsSpread) {
    sim::Simulator sim;
    net::Network net(sim, 4, Rng(1));
    crypto::KeyStore keys(1);
    for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, nullptr);
    ClientEndpoint a(ClientId{0}, sim, net, keys, 4, 1);
    ClientEndpoint b(ClientId{1}, sim, net, keys, 4, 1);
    // Only 1 active client even though 2 exist.
    LoadGenerator load(sim, {&a, &b}, LoadSpec::constant(500.0, seconds(1.0), 1), Rng(3));
    load.start();
    sim.run_all();
    EXPECT_GT(a.sent(), 0u);
    EXPECT_EQ(b.sent(), 0u);
}

TEST(LoadGenerator, DeterministicForSeed) {
    auto run = [](std::uint64_t seed) {
        sim::Simulator sim;
        net::Network net(sim, 4, Rng(1));
        crypto::KeyStore keys(1);
        for (std::uint32_t i = 0; i < 4; ++i) net.register_node(NodeId{i}, nullptr);
        ClientEndpoint client(ClientId{0}, sim, net, keys, 4, 1);
        LoadGenerator load(sim, {&client}, LoadSpec::constant(777.0, seconds(1.0), 1),
                           Rng(seed));
        load.start();
        sim.run_all();
        return client.sent();
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace rbft::workload
