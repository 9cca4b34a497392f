// Resilience and failure-injection tests: message loss, crashed nodes,
// laggards catching up via checkpoint state transfer, forged protocol
// messages, client retransmission, closed-loop clients, and f = 2
// configurations — the failure modes a deployment actually hits.
#include <gtest/gtest.h>

#include <unordered_map>

#include "attacks/attacks.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/closed_loop.hpp"
#include "workload/load.hpp"

namespace rbft {
namespace {

using core::Cluster;
using core::ClusterConfig;
using workload::ClientBehavior;
using workload::ClientEndpoint;
using workload::ClosedLoopClient;
using workload::LoadGenerator;
using workload::LoadSpec;

// ---------------------------------------------------------------------------
// Crash faults (silent nodes).

class CrashFaults : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CrashFaults, ToleratesUpToFSilentNodes) {
    const std::uint32_t f = GetParam();
    ClusterConfig cfg;
    cfg.f = f;
    cfg.seed = 17;
    Cluster cluster(cfg);
    // Crash exactly f nodes (the last f).
    for (std::uint32_t i = 0; i < f; ++i) {
        cluster.node(cfg.n() - 1 - i).set_faulty(true);
    }
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    for (int i = 0; i < 30; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 30u);
}

TEST_P(CrashFaults, FPlusOneSilentNodesStallOrdering) {
    // One more crash than tolerated: the commit quorum 2f+1 is unreachable.
    const std::uint32_t f = GetParam();
    ClusterConfig cfg;
    cfg.f = f;
    cfg.seed = 17;
    Cluster cluster(cfg);
    for (std::uint32_t i = 0; i <= f; ++i) {
        cluster.node(cfg.n() - 1 - i).set_faulty(true);
    }
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FaultBounds, CrashFaults, ::testing::Values(1u, 2u));

TEST(CrashFaults, CrashedBackupInstanceReplicaHarmless) {
    // Only one instance's replica on one node is silent (not the node):
    // that instance still has 2f+1 live replicas and keeps pace.
    ClusterConfig cfg;
    cfg.seed = 17;
    Cluster cluster(cfg);
    cluster.node(3).engine(InstanceId{1}).set_silent(true);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(3000.0, seconds(2.0), 1), Rng(9));
    load.start();
    cluster.simulator().run_for(seconds(2.5));
    EXPECT_EQ(client.completed(), client.sent());
    // No instance change: backups at correct nodes keep full throughput.
    EXPECT_EQ(cluster.node(0).cpi(), 0u);
}

// ---------------------------------------------------------------------------
// Network loss (UDP) and recovery via retransmission.

TEST(Loss, RetransmissionMasksUdpLoss) {
    ClusterConfig cfg;
    cfg.use_udp = true;
    cfg.seed = 23;
    Cluster cluster(cfg);
    cluster.start();
    // Inject 20% loss on the client channel by resending through a lossy
    // behaviour: here we emulate loss by retransmitting with a timeout and
    // verifying the dedup/caching paths keep results exactly-once.
    ClientBehavior behavior;
    behavior.retransmit_timeout = milliseconds(50.0);
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    for (int i = 0; i < 20; ++i) client.send_one();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_EQ(client.completed(), 20u);
    // Executed exactly once per request at every node despite duplicates.
    for (std::uint32_t i = 0; i < cfg.n(); ++i) {
        EXPECT_EQ(cluster.node(i).stats().requests_executed, 20u) << i;
    }
}

TEST(Loss, RetransmissionCountsExposed) {
    ClusterConfig cfg;
    cfg.seed = 23;
    Cluster cluster(cfg);
    cluster.start();
    // Unverifiable everywhere: no replies ever arrive, so the request
    // retransmits until the horizon.
    ClientBehavior behavior;
    behavior.corrupt_mac_mask = 0b1111;
    behavior.retransmit_timeout = milliseconds(20.0);
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    client.send_one();
    cluster.simulator().run_for(milliseconds(105.0));
    EXPECT_GE(client.retransmissions(), 4u);
    EXPECT_EQ(client.outstanding(), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint state transfer: a laggard rejoins.

TEST(StateTransfer, IsolatedNodeCatchesUpPastCheckpoint) {
    ClusterConfig cfg;
    cfg.seed = 31;
    cfg.checkpoint_interval = 4;  // frequent checkpoints
    Cluster cluster(cfg);
    cluster.start();

    // Isolate node 3 (close all its inbound NICs) while the others make
    // progress past several checkpoints.
    for (std::uint32_t peer = 0; peer < 4; ++peer) {
        if (peer == 3) continue;
        cluster.network()
            .nic(NodeId{3}, net::Address::node(NodeId{peer}))
            .close_for(cluster.simulator().now(), seconds(1.0));
    }
    cluster.network()
        .nic(NodeId{3}, net::Address::client(ClientId{0}))
        .close_for(cluster.simulator().now(), seconds(1.0));

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(3.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(4.0));

    EXPECT_EQ(client.completed(), client.sent());
    // After the NICs reopen, node 3's engines rejoin via checkpoint state
    // transfer: their stable checkpoint advances with the quorum again.
    const auto stable3 = raw(cluster.node(3).engine(InstanceId{0}).last_stable());
    const auto stable0 = raw(cluster.node(0).engine(InstanceId{0}).last_stable());
    EXPECT_GT(stable3, 0u);
    EXPECT_GE(stable3 + 3 * cfg.checkpoint_interval, stable0);
}

TEST(StateTransfer, RestartedNodeRejoinsWithConsistentCommitLog) {
    // A full crash/restart cycle (not just closed NICs): the node loses all
    // volatile protocol state, rejoins via checkpoint state transfer, and
    // its persistent commit log never diverges from the quorum's.
    ClusterConfig cfg;
    cfg.seed = 63;
    cfg.checkpoint_interval = 8;
    cfg.engine_retry_interval = milliseconds(50.0);
    Cluster cluster(cfg);
    cluster.start();

    ClientBehavior behavior;
    behavior.retransmit_timeout = milliseconds(20.0);
    behavior.retransmit_backoff = 2.0;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.5), 1), Rng(5));
    load.start();
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(400.0),
                                    [&] { cluster.crash_node(NodeId{3}); });
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(1200.0),
                                    [&] { cluster.restart_node(NodeId{3}); });
    cluster.simulator().run_for(seconds(3.5));

    EXPECT_EQ(client.completed(), client.sent());
    EXPECT_FALSE(cluster.node(3).crashed());
    EXPECT_EQ(cluster.node(3).stats().restarts, 1u);

    // Rejoined: the stable-checkpoint frontier tracks the quorum again.
    const auto stable3 = raw(cluster.node(3).engine(InstanceId{0}).last_stable());
    const auto stable0 = raw(cluster.node(0).engine(InstanceId{0}).last_stable());
    EXPECT_GT(stable3, 0u);
    EXPECT_GE(stable3 + 3 * cfg.checkpoint_interval, stable0);

    // Safety across the restart: wherever the logs overlap, the restarted
    // node committed the same batch fingerprints as an always-up node.
    std::unordered_map<std::uint64_t, std::uint64_t> canon;
    for (const auto& [seq, fp] : cluster.node(0).commit_log()) canon.emplace(seq, fp);
    std::size_t overlap = 0;
    for (const auto& [seq, fp] : cluster.node(3).commit_log()) {
        auto it = canon.find(seq);
        if (it == canon.end()) continue;
        ++overlap;
        EXPECT_EQ(it->second, fp) << "divergent commit at seq " << seq;
    }
    EXPECT_GT(overlap, 0u);
}

TEST(StateTransfer, RestartedNodeExecutesAfterRetiredKeysAreCleared) {
    // Node 3 retires requests before it crashes; the restart clears its
    // retired keys with the rest of its volatile state.  Afterwards it must
    // still adopt, execute and retire new requests, and every batch it
    // commits must match the quorum's.
    ClusterConfig cfg;
    cfg.seed = 63;
    cfg.checkpoint_interval = 8;
    cfg.engine_retry_interval = milliseconds(50.0);
    Cluster cluster(cfg);
    cluster.start();

    ClientBehavior behavior;
    behavior.retransmit_timeout = milliseconds(20.0);
    behavior.retransmit_backoff = 2.0;
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          cfg.n(), cfg.f, behavior);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.5), 1), Rng(5));
    load.start();
    std::uint64_t executed_before_crash = 0;
    std::size_t log_at_restart = 0;
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(400.0), [&] {
        executed_before_crash = cluster.node(3).stats().requests_executed;
        cluster.crash_node(NodeId{3});
    });
    cluster.simulator().schedule_at(TimePoint{} + milliseconds(1200.0), [&] {
        cluster.restart_node(NodeId{3});
        log_at_restart = cluster.node(3).commit_log().size();
    });
    cluster.simulator().run_for(seconds(3.5));

    EXPECT_EQ(client.completed(), client.sent());
    const core::Node& restarted = cluster.node(3);
    EXPECT_GT(executed_before_crash, 0u);
    EXPECT_GT(restarted.stats().requests_executed, executed_before_crash);
    // Retirement resumed.  What the restarted node still holds once the
    // load has drained is a small residue (requests its state transfer
    // skipped, which it never executes), not every request it executed
    // since the restart.
    const std::uint64_t executed_since =
        restarted.stats().requests_executed - executed_before_crash;
    EXPECT_LT(restarted.live_requests() * 20, executed_since);

    std::unordered_map<std::uint64_t, std::uint64_t> canon;
    for (const auto& [seq, fp] : cluster.node(0).commit_log()) canon.emplace(seq, fp);
    const auto& log = restarted.commit_log();
    ASSERT_GT(log.size(), log_at_restart);
    for (std::size_t i = log_at_restart; i < log.size(); ++i) {
        auto it = canon.find(log[i].first);
        ASSERT_NE(it, canon.end()) << "seq " << log[i].first << " missing on node 0";
        EXPECT_EQ(it->second, log[i].second) << "divergent commit at seq " << log[i].first;
    }
}

// ---------------------------------------------------------------------------
// Forged protocol messages.

TEST(Forgery, ForgedViewChangeVotesIgnored) {
    ClusterConfig cfg;
    cfg.seed = 37;
    Cluster cluster(cfg);
    cluster.start();
    // Node 3 fabricates VIEW-CHANGE messages claiming to be nodes 1 and 2.
    for (std::uint32_t impersonated : {1u, 2u}) {
        auto vc = std::make_shared<bft::ViewChangeMsg>();
        vc->instance = InstanceId{0};
        vc->new_view = ViewId{5};
        vc->replica = NodeId{impersonated};
        vc->sig.signer = crypto::Principal::node(NodeId{impersonated});  // forged tag
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               vc);
    }
    cluster.simulator().run_for(seconds(1.0));
    // No view movement: forged signatures don't verify.
    EXPECT_EQ(raw(cluster.node(0).engine(InstanceId{0}).view()), 0u);
    EXPECT_FALSE(cluster.node(0).engine(InstanceId{0}).view_change_in_progress());
}

TEST(Forgery, ForgedNewViewIgnored) {
    ClusterConfig cfg;
    cfg.seed = 37;
    Cluster cluster(cfg);
    cluster.start();
    auto nv = std::make_shared<bft::NewViewMsg>();
    nv->instance = InstanceId{0};
    nv->view = ViewId{1};
    nv->primary = NodeId{1};  // claimed; actually sent by node 3
    cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}), nv);
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(raw(cluster.node(0).engine(InstanceId{0}).view()), 0u);
}

// ---------------------------------------------------------------------------
// Closed-loop clients (future-work regime, §VII).

TEST(ClosedLoop, WindowKeepsConstantOutstanding) {
    ClusterConfig cfg;
    cfg.seed = 41;
    Cluster cluster(cfg);
    cluster.start();
    ClientEndpoint endpoint(ClientId{0}, cluster.simulator(), cluster.network(),
                            cluster.keys(), cfg.n(), cfg.f);
    ClosedLoopClient loop(endpoint, 4, cluster.simulator());
    loop.start();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_GT(endpoint.completed(), 100u);   // the loop keeps feeding
    EXPECT_LE(endpoint.outstanding(), 4u);   // never exceeds the window
    loop.stop();
    const auto completed = endpoint.completed();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_LE(endpoint.completed(), completed + 4);  // drains, then stops
}

TEST(ClosedLoop, ThinkTimePacesRequests) {
    ClusterConfig cfg;
    cfg.seed = 41;
    Cluster cluster(cfg);
    cluster.start();
    ClientEndpoint endpoint(ClientId{0}, cluster.simulator(), cluster.network(),
                            cluster.keys(), cfg.n(), cfg.f);
    ClosedLoopClient loop(endpoint, 1, cluster.simulator(), milliseconds(100.0));
    loop.start();
    cluster.simulator().run_for(seconds(1.05));
    // ~1 request per (latency + 100ms) ≈ 10 requests.
    EXPECT_GE(endpoint.completed(), 7u);
    EXPECT_LE(endpoint.completed(), 12u);
}

TEST(ClosedLoop, DelayingMasterPrimaryEvadesMonitoringButHurtsLatency) {
    // The paper's §II argument, as a test: with closed-loop clients a
    // delaying master primary throttles the offered load itself, so the
    // master/backup ratio stays high and NO instance change triggers —
    // while client latency degrades.
    auto run = [](bool attack) {
        ClusterConfig cfg;
        cfg.seed = 43;
        Cluster cluster(cfg);
        if (attack) {
            bft::PrimaryBehavior slow;
            slow.inter_batch_gap = milliseconds(10.0);
            slow.batch_cap = 4;  // ~400 req/s ceiling
            cluster.node(0).engine(InstanceId{0}).set_primary_behavior(slow);
        }
        cluster.start();
        auto endpoint = std::make_unique<ClientEndpoint>(
            ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), cfg.n(),
            cfg.f);
        ClosedLoopClient loop(*endpoint, 4, cluster.simulator());
        loop.start();
        cluster.simulator().run_for(seconds(2.0));
        return std::make_tuple(endpoint->completed(),
                               endpoint->latencies().summary().mean(),
                               cluster.node(1).cpi());
    };
    const auto [ff_done, ff_lat, ff_cpi] = run(false);
    const auto [at_done, at_lat, at_cpi] = run(true);
    EXPECT_EQ(ff_cpi, 0u);
    EXPECT_EQ(at_cpi, 0u);           // the attack is invisible to monitoring...
    EXPECT_GT(at_lat, 2.0 * ff_lat); // ...but latency clearly suffers
    EXPECT_LT(at_done, ff_done);
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds, identical worlds.

TEST(Determinism, FullClusterRunReproducible) {
    auto run = [] {
        ClusterConfig cfg;
        cfg.seed = 97;
        Cluster cluster(cfg);
        cluster.start();
        ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                              cluster.keys(), cfg.n(), cfg.f);
        LoadGenerator load(cluster.simulator(), {&client},
                           LoadSpec::constant(5000.0, seconds(1.0), 1), Rng(7));
        load.start();
        cluster.simulator().run_for(seconds(1.5));
        return std::make_tuple(client.completed(), client.latencies().summary().mean(),
                               cluster.network().total_messages());
    };
    EXPECT_EQ(run(), run());
}

TEST(Determinism, DifferentSeedsDifferentSchedules) {
    auto run = [](std::uint64_t seed) {
        ClusterConfig cfg;
        cfg.seed = seed;
        Cluster cluster(cfg);
        cluster.start();
        ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(),
                              cluster.keys(), cfg.n(), cfg.f);
        LoadGenerator load(cluster.simulator(), {&client},
                           LoadSpec::constant(5000.0, seconds(1.0), 1), Rng(7));
        load.start();
        cluster.simulator().run_for(seconds(1.5));
        return client.latencies().summary().mean();
    };
    EXPECT_NE(run(1), run(2));
}

}  // namespace
}  // namespace rbft
