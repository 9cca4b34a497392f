// Client endpoint: builds signed requests, sends them open-loop, and
// collects replies (a request completes when f+1 matching REPLYs from
// distinct nodes arrive, §IV-B step 6).
//
// The paper's workloads are open-loop (§II): clients do not wait for a
// reply before sending the next request, so a malicious master primary
// cannot throttle the offered load seen by backup instances.
//
// Byzantine-client levers (ClientBehavior) drive the attack experiments:
// corrupting authenticator entries for selected nodes (worst-attack-1's
// "requests that can be verified by all nodes but [the primary's node]"),
// corrupting signatures, inflating execution cost (the Prime RTT attack),
// or restricting targets.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bft/messages.hpp"
#include "common/backoff.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/timeseries.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "net/fabric.hpp"
#include "net/pool.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace rbft::workload {

struct ClientBehavior {
    std::size_t payload_bytes = 8;
    /// Simulated execution cost each request carries.
    Duration exec_cost{};
    /// REQUEST authenticator entries corrupted for these nodes (bitmask).
    std::uint64_t corrupt_mac_mask = 0;
    /// Client signature invalid everywhere (gets the client blacklisted).
    bool corrupt_sig = false;
    /// Nodes to send to; empty means all nodes.
    std::vector<NodeId> targets;
    /// Send each request to exactly one node, round-robin by request id
    /// (Prime's client behaviour: "clients send their requests to any
    /// replica in the system", §III-A).
    bool round_robin_single = false;
    /// Retransmit a request that has not completed after this long (0 =
    /// never).  PBFT-family clients retransmit to trigger the cached-reply
    /// path and, in the baselines, the primary-suspicion timers.
    Duration retransmit_timeout{};
    /// Backoff multiplier applied per retransmission attempt: the delay
    /// before attempt k is min(retransmit_cap, timeout * backoff^k),
    /// optionally stretched by jitter.  1.0 (default) = fixed interval, the
    /// original behaviour.  Chaos-soak clients use ~2.0 so a partitioned
    /// minority does not hammer the fabric while it is unreachable.
    double retransmit_backoff = 1.0;
    /// Upper bound on the backed-off delay (0 = 32x the base timeout).
    Duration retransmit_cap{};
    /// Uniform jitter fraction: each delay is stretched by a factor drawn
    /// from [1, 1 + jitter) to de-synchronize retransmission storms after a
    /// heal.  0 (default) = deterministic fixed delays.
    double retransmit_jitter = 0.0;
    /// Seed for the client's private jitter stream (mixed with the client
    /// id, so same-seed runs are reproducible).
    std::uint64_t jitter_seed = 0x7261626269747321ULL;

    /// Message pool for request construction (null = plain make_shared);
    /// must outlive the client.  Set by the scenario runner, like the
    /// cluster-level recorder.
    net::MessagePool* message_pool = nullptr;

    /// The retransmission fields above, as the shared policy struct
    /// (common/backoff.hpp) that the chaos soak and the real-socket runtime
    /// also build their schedules from.
    [[nodiscard]] BackoffPolicy retransmit_policy() const noexcept {
        return {retransmit_timeout, retransmit_backoff, retransmit_cap, retransmit_jitter};
    }

    /// Applies a shared policy to the retransmission fields.
    void set_retransmit_policy(const BackoffPolicy& policy) noexcept {
        retransmit_timeout = policy.base;
        retransmit_backoff = policy.multiplier;
        retransmit_cap = policy.cap;
        retransmit_jitter = policy.jitter_frac;
    }
};

class ClientEndpoint {
public:
    ClientEndpoint(ClientId id, sim::Simulator& simulator, net::Fabric& network,
                   const crypto::KeyStore& keys, std::uint32_t n, std::uint32_t f,
                   ClientBehavior behavior = {})
        : id_(id),
          simulator_(simulator),
          network_(network),
          keys_(keys),
          n_(n),
          f_(f),
          behavior_(behavior),
          jitter_rng_(behavior.jitter_seed ^ (raw(id) * 0x9E3779B97F4A7C15ULL)) {
        network_.register_client(id_, [this](net::Address from, const net::MessagePtr& m) {
            on_message(from, m);
        });
    }

    /// Builds, signs and sends one request with a synthetic payload of
    /// behavior().payload_bytes bytes.
    RequestId send_one() {
        return send_payload(Bytes(behavior_.payload_bytes, 0xAB));
    }

    /// Builds, signs and sends one request carrying `payload` (application
    /// operations, e.g. the key-value store example).
    RequestId send_payload(Bytes payload) {
        obs::prof::Scope zone(profiler_, "client.request_build");
        const RequestId rid = next_rid_;
        next_rid_ = next(next_rid_);

        auto req = net::make_msg<bft::RequestMsg>(behavior_.message_pool);
        req->client = id_;
        req->rid = rid;
        req->payload = std::move(payload);
        req->exec_cost = behavior_.exec_cost;
        net::WireStats wire_stats;
        // The body digest is computed exactly once per request — streamed
        // through an incremental hasher, so no signing buffer is ever
        // materialized — and reused by every downstream authenticator
        // (satellite memoization); CryptoStats::digests_computed tallies
        // that single hash.  The signature covers the digest
        // (hash-then-sign).
        req->digest = req->signed_digest(profiler_ ? &wire_stats : nullptr);
        if (prof_wire_bytes_) {
            prof_wire_bytes_->add(wire_stats.bytes_copied);
            prof_wire_allocs_->add(wire_stats.allocs);
        }
        keys_.note_digest();
        req->sig = keys_.sign(crypto::Principal::client(id_), req->digest);
        req->auth = crypto::make_authenticator(keys_, crypto::Principal::client(id_), n_,
                                               req->digest);
        req->corrupt_mac_mask = behavior_.corrupt_mac_mask;
        req->corrupt_sig = behavior_.corrupt_sig;

        send_times_[rid] = simulator_.now();
        ++sent_;
        if (ctr_sent_) ctr_sent_->add();
        send_request(req);
        return rid;
    }

    [[nodiscard]] ClientId id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completions_.size(); }
    [[nodiscard]] const LatencyHistogram& latencies() const noexcept { return latencies_; }

    /// (completion time [s], latency [ms]) per completed request.
    [[nodiscard]] const Series& completions() const noexcept { return completions_; }

    /// Completions inside a measurement window.
    [[nodiscard]] std::uint64_t completed_in(TimePoint from, TimePoint to) const {
        std::uint64_t count = 0;
        for (const auto& [t, lat] : completions_.points) {
            if (t >= from.seconds() && t < to.seconds()) ++count;
        }
        return count;
    }

    /// Mean latency (seconds) of completions inside a window.
    [[nodiscard]] double mean_latency_in(TimePoint from, TimePoint to) const {
        double sum = 0.0;
        std::uint64_t count = 0;
        for (const auto& [t, lat] : completions_.points) {
            if (t >= from.seconds() && t < to.seconds()) {
                sum += lat;
                ++count;
            }
        }
        return count == 0 ? 0.0 : sum / static_cast<double>(count) / 1000.0;
    }

    ClientBehavior& behavior() noexcept { return behavior_; }

    /// Attaches observability.  All clients of a run share the aggregated
    /// "client.sent"/"client.completed" counters, the "client.completions"
    /// series ((completion time [s], latency [ms]), merged across clients)
    /// and the "client.latency_s" histogram; null detaches.
    void set_recorder(obs::Recorder* recorder) {
        recorder_ = recorder;
        obs::MetricsRegistry* reg = recorder ? &recorder->metrics() : nullptr;
        ctr_sent_ = reg ? reg->counter("client.sent") : nullptr;
        ctr_completed_ = reg ? reg->counter("client.completed") : nullptr;
        completions_out_ = reg ? reg->series("client.completions") : nullptr;
        latencies_out_ = reg ? reg->histogram("client.latency_s") : nullptr;
        profiler_ = recorder ? recorder->profiler() : nullptr;
        prof_wire_bytes_ = profiler_ ? profiler_->counter("wire.bytes_copied") : nullptr;
        prof_wire_allocs_ = profiler_ ? profiler_->counter("wire.allocs") : nullptr;
    }

    /// Invoked on each completion with (rid, latency); drives closed-loop
    /// clients.
    void set_completion_callback(std::function<void(RequestId, Duration)> cb) {
        on_complete_ = std::move(cb);
    }

    [[nodiscard]] std::uint64_t retransmissions() const noexcept { return retransmissions_; }
    [[nodiscard]] std::size_t outstanding() const noexcept { return send_times_.size(); }

private:
    void send_request(const std::shared_ptr<bft::RequestMsg>& req) {
        transmit(req);
        schedule_retransmit(req, 0);
    }

    void transmit(const std::shared_ptr<bft::RequestMsg>& req) {
        if (behavior_.round_robin_single) {
            const auto target = static_cast<std::uint32_t>((raw(id_) + raw(req->rid)) % n_);
            network_.send(net::Address::client(id_), net::Address::node(NodeId{target}), req);
        } else if (behavior_.targets.empty()) {
            for (std::uint32_t i = 0; i < n_; ++i) {
                network_.send(net::Address::client(id_), net::Address::node(NodeId{i}), req);
            }
        } else {
            for (NodeId target : behavior_.targets) {
                network_.send(net::Address::client(id_), net::Address::node(target), req);
            }
        }
    }

    void schedule_retransmit(const std::shared_ptr<bft::RequestMsg>& req, std::uint32_t attempt) {
        if (behavior_.retransmit_timeout.ns <= 0) return;
        simulator_.schedule_after(retransmit_delay(attempt), [this, req, attempt] {
            if (!send_times_.contains(req->rid)) return;  // completed
            ++retransmissions_;
            transmit(req);
            schedule_retransmit(req, attempt + 1);
        });
    }

    /// Delay before retransmission attempt `attempt` (0-based): the shared
    /// capped-exponential-backoff-with-jitter policy (common/backoff.hpp).
    [[nodiscard]] Duration retransmit_delay(std::uint32_t attempt) {
        return behavior_.retransmit_policy().delay(attempt, jitter_rng_);
    }

    void on_message(net::Address from, const net::MessagePtr& m) {
        if (m->type() != net::MsgType::kReply || from.kind != net::Address::Kind::kNode) return;
        const auto& reply = static_cast<const bft::ReplyMsg&>(*m);
        if (reply.client != id_) return;
        auto sent_it = send_times_.find(reply.rid);
        if (sent_it == send_times_.end()) return;  // already completed / unknown

        // A vote counts only from the node it names, under the MAC that node
        // shares with this client: a faulty node cannot vote for others.
        if (from.index != raw(reply.node)) return;
        keys_.note_mac();
        if (!crypto::verify_mac(keys_.pairwise_mac_key(crypto::Principal::node(reply.node),
                                                       crypto::Principal::client(id_)),
                                BytesView(reply.result.data(), reply.result.size()),
                                reply.mac)) {
            return;
        }

        // Each node's first reply is its vote.  f+1 votes for the same
        // result: at least one is from a correct node (the same
        // weak-certificate bound propagate_quorum spells).
        auto& votes = reply_votes_[reply.rid];
        votes.emplace(from.index, reply.result);
        const auto matching = std::count_if(votes.begin(), votes.end(), [&](const auto& vote) {
            return vote.second == reply.result;
        });
        if (static_cast<std::uint32_t>(matching) >= propagate_quorum(f_)) {
            const Duration latency = simulator_.now() - sent_it->second;
            latencies_.add(latency.seconds());
            completions_.add(simulator_.now().seconds(), latency.millis());
            if (ctr_completed_) {
                ctr_completed_->add();
                completions_out_->add(simulator_.now().seconds(), latency.millis());
                latencies_out_->add(latency.seconds());
            }
            send_times_.erase(sent_it);
            reply_votes_.erase(reply.rid);
            if (on_complete_) on_complete_(reply.rid, latency);
        }
    }

    ClientId id_;
    sim::Simulator& simulator_;
    net::Fabric& network_;
    const crypto::KeyStore& keys_;
    std::uint32_t n_;
    std::uint32_t f_;
    ClientBehavior behavior_;

    std::function<void(RequestId, Duration)> on_complete_;
    RequestId next_rid_{RequestId{1}};
    Rng jitter_rng_;
    std::uint64_t sent_ = 0;
    std::uint64_t retransmissions_ = 0;
    std::unordered_map<RequestId, TimePoint> send_times_;
    std::unordered_map<RequestId, std::map<std::uint32_t, Bytes>> reply_votes_;  // node -> result
    LatencyHistogram latencies_;
    Series completions_;

    // Observability handles (null when no recorder is attached).
    obs::Recorder* recorder_ = nullptr;
    obs::prof::Profiler* profiler_ = nullptr;
    obs::Counter* prof_wire_bytes_ = nullptr;
    obs::Counter* prof_wire_allocs_ = nullptr;
    obs::Counter* ctr_sent_ = nullptr;
    obs::Counter* ctr_completed_ = nullptr;
    Series* completions_out_ = nullptr;
    LatencyHistogram* latencies_out_ = nullptr;
};

}  // namespace rbft::workload
