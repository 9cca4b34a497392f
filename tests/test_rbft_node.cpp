// Unit tests for the RBFT node: propagation/clearance, monitoring (Δ, Λ),
// the instance-change protocol, flood defense, and the dispatch pipeline —
// exercised on full clusters with targeted misbehaviours.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "attacks/attacks.hpp"
#include "rbft/cluster.hpp"
#include "workload/client.hpp"
#include "workload/load.hpp"

namespace rbft::core {
namespace {

using workload::ClientBehavior;
using workload::ClientEndpoint;
using workload::LoadGenerator;
using workload::LoadSpec;

ClusterConfig quick_config() {
    ClusterConfig cfg;
    cfg.seed = 11;
    return cfg;
}

// ---------------------------------------------------------------------------
// Propagation and clearance (§IV-B step 2).

TEST(RbftNode, RequestSentToSingleNodeStillOrdered) {
    // The PROPAGATE phase must disseminate a request sent to one correct
    // node so every instance orders it.
    Cluster cluster(quick_config());
    cluster.start();
    ClientBehavior behavior;
    behavior.targets = {NodeId{2}};
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, behavior);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).engine(InstanceId{0}).total_ordered(), 1u) << i;
    }
}

TEST(RbftNode, RequestUnverifiableAtOneNodeStillOrdered) {
    // Worst-attack-1's client lever: the master primary's node never sees a
    // valid authenticator entry but learns the request via PROPAGATE.
    Cluster cluster(quick_config());
    cluster.start();
    ClientBehavior behavior;
    behavior.corrupt_mac_mask = 0b0001;  // node 0 = master primary's node
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1, behavior);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    EXPECT_GE(cluster.node(0).stats().requests_invalid_mac, 1u);
    EXPECT_EQ(cluster.node(0).engine(InstanceId{0}).total_ordered(), 1u);
}

TEST(RbftNode, PropagatesCountedTowardClearance) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GE(cluster.node(i).stats().propagates_received, 3u) << i;
    }
}

// ---------------------------------------------------------------------------
// Monitoring: Δ throughput ratio (§IV-C) and instance change (§IV-D).

TEST(RbftNode, SlowMasterPrimaryTriggersInstanceChange) {
    Cluster cluster(quick_config());
    cluster.start();
    // Master primary (node 0, instance 0) delays ordering far below Δ.
    bft::PrimaryBehavior slow;
    slow.inter_batch_gap = milliseconds(50.0);
    slow.batch_cap = 1;
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(slow);

    auto clients = std::make_unique<ClientEndpoint>(
        ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(), 4, 1);
    LoadGenerator load(cluster.simulator(), {clients.get()},
                       LoadSpec::constant(3000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.5));

    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_GE(cluster.node(i).cpi(), 1u) << "node " << i;
    }
    // After the change, the master primary moved off node 0.
    EXPECT_NE(cluster.master_primary_node(), NodeId{0});
    // And the system recovered: requests complete.
    EXPECT_EQ(clients->completed(), clients->sent());
}

TEST(RbftNode, SilentMasterPrimaryTriggersInstanceChange) {
    Cluster cluster(quick_config());
    cluster.start();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.0));
    EXPECT_GE(cluster.node(1).cpi(), 1u);
    EXPECT_EQ(client.completed(), client.sent());
}

TEST(RbftNode, InstanceChangeMovesEveryPrimary) {
    Cluster cluster(quick_config());
    cluster.start();
    const NodeId master_before = cluster.node(0).engine(InstanceId{0}).primary();
    const NodeId backup_before = cluster.node(0).engine(InstanceId{1}).primary();
    bft::PrimaryBehavior silent;
    silent.silent = true;
    cluster.node(raw(master_before)).engine(InstanceId{0}).set_primary_behavior(silent);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(2000.0, seconds(2.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(3.0));

    EXPECT_NE(cluster.node(1).engine(InstanceId{0}).primary(), master_before);
    EXPECT_NE(cluster.node(1).engine(InstanceId{1}).primary(), backup_before);
    // The placement invariant holds: distinct primaries per instance.
    EXPECT_NE(cluster.node(1).engine(InstanceId{0}).primary(),
              cluster.node(1).engine(InstanceId{1}).primary());
}

TEST(RbftNode, LambdaLatencyBoundTriggersInstanceChange) {
    ClusterConfig cfg = quick_config();
    cfg.batch_delay = milliseconds(0.3);
    cfg.monitoring.lambda = milliseconds(2.0);  // Λ
    Cluster cluster(cfg);
    cluster.start();
    // The master primary delays every request by more than Λ.
    bft::PrimaryBehavior unfair;
    unfair.per_request_delay = [](const bft::RequestRef&) { return milliseconds(5.0); };
    cluster.node(0).engine(InstanceId{0}).set_primary_behavior(unfair);

    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(500.0, seconds(1.5), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(2.0));
    EXPECT_GE(cluster.node(1).cpi(), 1u);
}

TEST(RbftNode, NoInstanceChangeOnIdleSystem) {
    Cluster cluster(quick_config());
    cluster.start();
    cluster.simulator().run_for(seconds(3.0));  // monitoring ticks, no load
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).cpi(), 0u);
        EXPECT_EQ(cluster.node(i).stats().instance_changes_voted, 0u);
    }
}

TEST(RbftNode, StaleInstanceChangeVotesDiscarded) {
    Cluster cluster(quick_config());
    cluster.start();
    // Forge a stale INSTANCE_CHANGE (cpi behind the node's counter cannot
    // exist yet, so send one for cpi 0 after... simplest: send duplicate
    // votes from one node and check no change happens with < 2f+1 voters.
    auto ic = std::make_shared<InstanceChangeMsg>();
    ic->cpi = 0;
    ic->sender = NodeId{3};
    for (int i = 0; i < 5; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}), ic);
    }
    cluster.simulator().run_for(seconds(1.0));
    // One vote (repeated) is not 2f+1: no instance change.
    EXPECT_EQ(cluster.node(0).cpi(), 0u);
}

TEST(RbftNode, MonitorSeriesRecordsBothInstances) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client},
                       LoadSpec::constant(5000.0, seconds(1.0), 1), Rng(5));
    load.start();
    cluster.simulator().run_for(seconds(1.5));
    const Series& master = cluster.node(0).monitor_series(InstanceId{0});
    const Series& backup = cluster.node(0).monitor_series(InstanceId{1});
    EXPECT_GE(master.size(), 10u);
    EXPECT_NEAR(master.mean_y(), backup.mean_y(), 0.5);  // kreq/s, near-equal
}

// ---------------------------------------------------------------------------
// Flood defense (§V).

TEST(RbftNode, FloodClosesSourceNic) {
    ClusterConfig cfg = quick_config();
    cfg.flood_defense.invalid_threshold = 8;
    Cluster cluster(cfg);
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(net::kMaxFloodBytes,
                                                 net::FloodMsg::Target::kPropagation);
    for (int i = 0; i < 20; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_GE(cluster.node(0).stats().nic_closures, 1u);
    EXPECT_TRUE(cluster.network()
                    .nic(NodeId{0}, net::Address::node(NodeId{3}))
                    .closed(cluster.simulator().now()));
}

TEST(RbftNode, FloodBelowThresholdKeepsNicOpen) {
    ClusterConfig cfg = quick_config();
    cfg.flood_defense.invalid_threshold = 100;
    Cluster cluster(cfg);
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(1000, net::FloodMsg::Target::kPropagation);
    for (int i = 0; i < 5; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(500.0));
    EXPECT_EQ(cluster.node(0).stats().nic_closures, 0u);
}

TEST(RbftNode, FloodDefenseDoesNotAffectOtherPeers) {
    ClusterConfig cfg = quick_config();
    cfg.flood_defense.invalid_threshold = 8;
    Cluster cluster(cfg);
    cluster.start();
    auto flood = std::make_shared<net::FloodMsg>(1000, net::FloodMsg::Target::kPropagation);
    for (int i = 0; i < 20; ++i) {
        cluster.network().send(net::Address::node(NodeId{3}), net::Address::node(NodeId{0}),
                               flood);
    }
    cluster.simulator().run_for(milliseconds(200.0));
    // Traffic from other nodes (and thus the protocol) keeps working.
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
}

// ---------------------------------------------------------------------------
// Misc node behaviour.

TEST(RbftNode, FaultyNodeDropsEverything) {
    Cluster cluster(quick_config());
    cluster.node(3).set_faulty(true);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);  // 3 correct nodes suffice (f=1)
    EXPECT_EQ(cluster.node(3).stats().requests_verified, 0u);
    EXPECT_EQ(cluster.node(3).stats().requests_executed, 0u);
}

TEST(RbftNode, ExtraInstancesOverride) {
    ClusterConfig cfg = quick_config();
    cfg.instances_override = 3;  // 2f+1 instead of f+1
    Cluster cluster(cfg);
    cluster.start();
    EXPECT_EQ(cluster.node(0).instance_count(), 3u);
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    EXPECT_EQ(client.completed(), 1u);
    for (std::uint32_t inst = 0; inst < 3; ++inst) {
        EXPECT_EQ(cluster.node(0).engine(InstanceId{inst}).total_ordered(), 1u);
    }
}

TEST(RbftNode, PrimariesDistinctAcrossInstances) {
    for (std::uint32_t f : {1u, 2u}) {
        ClusterConfig cfg = quick_config();
        cfg.f = f;
        Cluster cluster(cfg);
        std::set<NodeId> primaries;
        for (std::uint32_t inst = 0; inst < f + 1; ++inst) {
            primaries.insert(cluster.node(0).engine(InstanceId{inst}).primary());
        }
        EXPECT_EQ(primaries.size(), f + 1) << "f=" << f;
    }
}

TEST(RbftNode, ExecutionDeduplicatesAcrossDuplicateOrders) {
    Cluster cluster(quick_config());
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    for (int i = 0; i < 10; ++i) client.send_one();
    cluster.simulator().run_for(seconds(1.0));
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).stats().requests_executed, 10u);
    }
}

// ---------------------------------------------------------------------------
// Request retirement: a request this node dispatched and executed leaves
// only its key and dispatch time behind, whatever its local instances have
// delivered.

// Live request entries per node after `load_for` of load and half a second
// of quiet, fault-free or under worst-attack-2.
std::vector<std::size_t> live_requests_after(Duration load_for, bool worst_attack_2 = false) {
    Cluster cluster(quick_config());
    attacks::WorstAttack2 attack(cluster);
    if (worst_attack_2) attack.install();
    cluster.start();
    if (worst_attack_2) attack.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    LoadGenerator load(cluster.simulator(), {&client}, LoadSpec::constant(2000.0, load_for, 1),
                       Rng(5));
    load.start();
    cluster.simulator().run_for(load_for + milliseconds(500.0));
    EXPECT_GT(client.sent(), 0u);
    EXPECT_EQ(client.completed(), client.sent());
    if (worst_attack_2) {
        // The faulty host's backup replicas abstain: it delivers nothing there.
        EXPECT_EQ(cluster.node(attack.faulty_node()).engine(InstanceId{1}).total_ordered(), 0u);
    }
    std::vector<std::size_t> live;
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cluster.node(i).stats().requests_executed, client.sent()) << i;
        live.push_back(cluster.node(i).live_requests());
    }
    return live;
}

TEST(RbftNode, LiveRequestStateDoesNotGrowWithRunLength) {
    const std::vector<std::size_t> short_run = live_requests_after(milliseconds(500.0));
    const std::vector<std::size_t> long_run = live_requests_after(seconds(2.0));
    EXPECT_EQ(short_run, long_run);
}

TEST(RbftNode, LiveRequestStateUnderWorstAttack2DoesNotGrowWithRunLength) {
    // The faulty node hosts the master primary and its backup replicas
    // abstain, so its backup instances never deliver anything; it still
    // retires every request it executes.
    const std::vector<std::size_t> short_run = live_requests_after(milliseconds(500.0), true);
    const std::vector<std::size_t> long_run = live_requests_after(seconds(2.0), true);
    EXPECT_EQ(short_run, long_run);
    for (const std::size_t live : long_run) EXPECT_LE(live, 4u);
}

TEST(RbftNode, RetiresOnExecutionWhileBackupInstanceStalls) {
    obs::Recorder recorder;
    ClusterConfig cfg = quick_config();
    cfg.recorder = &recorder;
    Cluster cluster(cfg);
    const InstanceId backup{1};
    std::optional<TimePoint> dispatched_at;
    std::optional<TimePoint> backup_delivered_at;
    recorder.set_listener([&](const obs::TraceEvent& e) {
        if (e.node != 0) return;
        if (e.type == obs::EventType::kRequestDispatched) dispatched_at = e.at;
        if (e.type == obs::EventType::kBatchDelivered && e.instance == raw(backup)) {
            backup_delivered_at = e.at;
        }
    });
    // The backup instance's primary stays silent: the instance stalls until
    // its replicas move to the next view.
    const NodeId backup_primary = cluster.node(0).engine(backup).primary();
    ASSERT_NE(backup_primary, NodeId{0});
    cluster.node(backup_primary).engine(backup).set_silent(true);
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(milliseconds(500.0));
    ASSERT_EQ(client.completed(), 1u);
    ASSERT_TRUE(dispatched_at.has_value());

    Node& node = cluster.node(0);
    ASSERT_EQ(node.stats().requests_executed, 1u);
    ASSERT_EQ(node.engine(backup).total_ordered(), 0u);  // stalled
    EXPECT_EQ(node.live_requests(), 0u);                 // executed: retired
    EXPECT_EQ(node.client_latency(ClientId{0}, backup).second, 0u);

    for (std::uint32_t i = 0; i < 4; ++i) {
        bft::InstanceEngine& engine = cluster.node(i).engine(backup);
        engine.start_view_change(next(engine.view()));
    }
    cluster.simulator().run_for(milliseconds(500.0));
    ASSERT_EQ(node.engine(backup).total_ordered(), 1u);
    ASSERT_TRUE(backup_delivered_at.has_value());

    // The late delivery is timed from the original dispatch.
    const auto [sum_s, count] = node.client_latency(ClientId{0}, backup);
    EXPECT_EQ(count, 1u);
    EXPECT_DOUBLE_EQ(sum_s, (*backup_delivered_at - *dispatched_at).seconds());
    EXPECT_GT(sum_s, 0.4);
    EXPECT_EQ(node.stats().requests_executed, 1u);  // not executed twice
    EXPECT_EQ(node.live_requests(), 0u);            // no entry recreated
}

TEST(RbftNode, RedeliveryOfRetiredRequestCountsFromOriginalDispatch) {
    obs::Recorder recorder;
    ClusterConfig cfg = quick_config();
    cfg.recorder = &recorder;
    Cluster cluster(cfg);
    std::optional<TimePoint> dispatched_at;
    RequestId rid{};
    recorder.set_listener([&](const obs::TraceEvent& e) {
        if (e.type == obs::EventType::kRequestDispatched && e.node == 0) {
            dispatched_at = e.at;
            rid = RequestId{e.b};
        }
    });
    cluster.start();
    ClientEndpoint client(ClientId{0}, cluster.simulator(), cluster.network(), cluster.keys(),
                          4, 1);
    client.send_one();
    cluster.simulator().run_for(milliseconds(500.0));
    ASSERT_EQ(client.completed(), 1u);
    ASSERT_TRUE(dispatched_at.has_value());

    Node& node = cluster.node(0);
    ASSERT_EQ(node.live_requests(), 0u);  // dispatched and executed: retired
    const Series& series = node.master_latency_series(ClientId{0});
    ASSERT_EQ(series.size(), 1u);

    // The master instance delivers the retired request again, as a
    // re-proposal after a view change does.
    bft::RequestRef ref;
    ref.client = ClientId{0};
    ref.rid = rid;
    bft::OrderedBatch batch;
    batch.instance = Node::master_instance();
    batch.seq = SeqNum{2};
    batch.requests = {ref};
    node.engine_ordered(batch);

    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series.points[1].second,
                     (cluster.simulator().now() - *dispatched_at).millis());
    EXPECT_EQ(node.stats().requests_executed, 1u);  // not executed twice
    EXPECT_EQ(node.live_requests(), 0u);            // no entry recreated
}

TEST(RbftNode, RejectsMoreThan64Nodes) {
    // Propagator sets and corrupt-MAC masks are 64-bit node masks.
    ClusterConfig cfg = quick_config();
    cfg.f = 22;  // n = 67
    EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace rbft::core
