// Simulator-core profiling bench: micro points for the event queue, the
// wire path, and authenticator construction, plus an end-to-end fig7-style
// slice run with the hot-path profiler enabled.
//
// This is the bench behind the perf regression gate (tools/bench_diff.py):
// its artifact (BENCH_simcore.json, schema rbft-bench-v2) carries
//  * deterministic "profile" blocks (counters + per-zone call counts) that
//    are byte-identical across runs of the same build, and
//  * wall-derived "perf" rates (events_per_sec, requests_per_sec_wall)
//    that the gate compares against the previous artifact, and
//  * a top-level "sha256_kernel" naming the SHA-256 kernel the host ran
//    ("sha-ni" or "portable"), which the nightly gate keys its baseline on.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "bft/messages.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/keystore.hpp"
#include "crypto/sha256.hpp"
#include "net/wire.hpp"
#include "obs/prof.hpp"
#include "obs/prof_report.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace rbft::bench {
namespace {

constexpr double kChurnSimSeconds = 0.25;
constexpr std::size_t kChurnChains = 64;
constexpr std::size_t kStandingTimers = 2000;
constexpr std::uint64_t kWireIters = 4000;
constexpr std::uint64_t kWireTimedIters = 200'000;  // unprofiled timing loop
constexpr std::size_t kWirePayloadBytes = 256;
constexpr std::uint64_t kAuthRequests = 500;
constexpr std::uint32_t kAuthInstances = 2;  // f+1 for f=1
constexpr std::uint32_t kAuthNodes = 4;      // 3f+1 for f=1

/// Mirrors exp::runners' bridge: copies the keystore's deterministic work
/// tally into the profiler's byte-comparable counter block.
void bridge_crypto_stats(obs::prof::Profiler& profiler, const crypto::KeyStore& keys) {
    const crypto::CryptoStats& stats = keys.stats();
    profiler.counter("crypto.digests_computed")->add(stats.digests_computed);
    profiler.counter("crypto.macs_computed")->add(stats.macs_computed);
    profiler.counter("crypto.sigs_computed")->add(stats.sigs_computed);
    profiler.counter("crypto.keys_derived")->add(stats.keys_derived);
    profiler.counter("crypto.key_cache_hits")->add(stats.key_cache_hits);
}

/// A self-rescheduling timer chain; every 4th firing also schedules and
/// immediately cancels a decoy event to exercise the lazy-cancel path.
struct TimerChain {
    sim::Simulator* simulator = nullptr;
    Duration period{};
    TimePoint limit{};
    std::uint64_t fired = 0;

    void arm() {
        simulator->schedule_after(period, [this] { fire(); });
    }
    void fire() {
        fired += 1;
        if ((fired & 3u) == 0) {
            simulator->cancel(simulator->schedule_after(period + period, [] {}));
        }
        if (simulator->now() + period < limit) arm();
    }
};

/// A one-shot timer 1–250 ms out, re-armed when it fires while the clock
/// is before `limit`: the shape of protocol and client timeouts, which
/// park on the timing wheel's outer level.  Delays come from a per-timer
/// LCG, so the schedule is deterministic.
struct StandingTimer {
    sim::Simulator* simulator = nullptr;
    TimePoint limit{};
    std::uint64_t state = 0;

    void arm() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto spread = static_cast<std::int64_t>((state >> 33) % 249'000'000);
        simulator->schedule_after(nanoseconds(1'000'000 + spread), [this] { fire(); });
    }
    void fire() {
        if (simulator->now() < limit) arm();
    }
};

// ---------------------------------------------------------------------------
// Point 1: event-queue churn.  Pure simulator work — how fast the timing
// wheel schedules/dispatches when protocol logic costs nothing.
//
// Two passes over the identical workload: the *timed* pass runs with no
// profiler or metrics attached (a profiled dispatch pays two clock reads
// per event, which at wheel speeds costs more than the queue itself), the
// *profiled* pass re-runs it to fill the deterministic counter/zone block
// of the artifact.  events_per_sec therefore measures the queue, not the
// observer.
//
// Point 1b, event_queue_timers, runs the same chains over a standing
// population of kStandingTimers ms-horizon timers.  The chains alone stay
// inside the inner wheel's ≈524 µs window; the timers are what make a pop
// pay (or not) for the outer wheel's occupancy.

std::uint64_t run_queue_workload(sim::Simulator& simulator, std::size_t standing_timers) {
    const TimePoint limit = TimePoint{} + seconds(kChurnSimSeconds);
    std::vector<TimerChain> chains(kChurnChains);
    for (std::size_t c = 0; c < chains.size(); ++c) {
        chains[c].simulator = &simulator;
        // Staggered co-prime-ish periods so slot/heap order churns.
        chains[c].period = microseconds(10.0 + static_cast<double>(c));
        chains[c].limit = limit;
        chains[c].arm();
    }
    std::vector<StandingTimer> timers(standing_timers);
    for (std::size_t t = 0; t < timers.size(); ++t) {
        timers[t].simulator = &simulator;
        timers[t].limit = limit;
        timers[t].state = t + 1;
        timers[t].arm();
    }
    return simulator.run_all();
}

exp::RunSpec queue_spec(std::string label, std::uint64_t seed, std::size_t standing_timers) {
    exp::CustomRun run;
    run.seed = seed;
    run.sim_seconds = kChurnSimSeconds;
    run.run = [standing_timers] {
        exp::RunOutput out;

        // Timed pass: bare simulator, nothing attached.
        sim::Simulator timed;
        const std::uint64_t t0 = obs::prof::wall_now_ns();
        const std::uint64_t dispatched = run_queue_workload(timed, standing_timers);
        const double wall_s =
            static_cast<double>(obs::prof::wall_now_ns() - t0) / 1e9;

        // Profiled pass: identical workload for the deterministic block.
        auto recorder = std::make_shared<obs::Recorder>();
        recorder->enable_profiling();
        obs::prof::Profiler* profiler = recorder->profiler();
        sim::Simulator profiled;
        profiled.set_metrics(&recorder->metrics());
        profiled.set_profiler(profiler);
        const std::uint64_t profiled_dispatched = run_queue_workload(profiled, standing_timers);

        profiler->counter("sim.queue_high_water")
            ->add(static_cast<std::uint64_t>(profiled.queue_high_water()));
        if (profiled_dispatched != dispatched) {
            std::fprintf(stderr,
                         "bench_simcore: timed/profiled queue passes diverged "
                         "(%llu vs %llu events)\n",
                         static_cast<unsigned long long>(dispatched),
                         static_cast<unsigned long long>(profiled_dispatched));
        }
        if (wall_s > 0.0) {
            out.extra.emplace_back("events_per_sec",
                                   static_cast<double>(dispatched) / wall_s);
        }
        out.scenario.recorder = std::move(recorder);
        return out;
    };
    return exp::RunSpec{std::move(label), std::move(run)};
}

// ---------------------------------------------------------------------------
// Point 2: wire round-trip.  REQUEST encode/decode through a reused scratch
// buffer — the production shape after the zero-copy overhaul.  As with the
// churn point, the timed loop runs bare (no profiler zones: two clock
// reads per zone would dwarf a flat encode) and a shorter profiled loop
// fills the deterministic block, where wire.bytes_copied / wire.allocs now
// count buffer *churn* only: after the first-iteration warm-up the scratch
// buffer never grows again, so steady state adds zero to both.

exp::RunSpec wire_spec() {
    exp::CustomRun run;
    run.seed = 2;
    run.sim_seconds = 0.0;
    run.run = [] {
        exp::RunOutput out;

        bft::RequestMsg msg;
        msg.client = ClientId{7};
        msg.payload.assign(kWirePayloadBytes, 0xab);
        msg.exec_cost = milliseconds(0.1);
        msg.digest = crypto::sha256(BytesView(msg.payload.data(), msg.payload.size()));

        // Timed pass: scratch-buffer encode + decode, nothing else.
        std::uint64_t decode_failures = 0;
        Bytes scratch;
        const std::uint64_t t0 = obs::prof::wall_now_ns();
        for (std::uint64_t i = 0; i < kWireTimedIters; ++i) {
            msg.rid = RequestId{i};
            net::WireWriter writer(scratch);
            msg.encode(writer);
            const Bytes& encoded = writer.buffer();
            net::WireReader reader(BytesView(encoded.data(), encoded.size()));
            const bft::RequestMsg back = bft::RequestMsg::decode(reader);
            if (!reader.ok() || back.rid != msg.rid) decode_failures += 1;
        }
        const double wall_s =
            static_cast<double>(obs::prof::wall_now_ns() - t0) / 1e9;

        // Profiled pass: same shape, with churn accounting and zones.
        auto recorder = std::make_shared<obs::Recorder>();
        recorder->enable_profiling();
        obs::prof::Profiler* profiler = recorder->profiler();
        obs::Counter* bytes_copied = profiler->counter("wire.bytes_copied");
        obs::Counter* allocs = profiler->counter("wire.allocs");
        obs::Counter* roundtrips = profiler->counter("wire.roundtrips");
        Bytes profiled_scratch;
        for (std::uint64_t i = 0; i < kWireIters; ++i) {
            msg.rid = RequestId{i};
            net::WireWriter writer(profiled_scratch);
            {
                RBFT_PROF_ZONE(profiler, "wire.encode");
                msg.encode(writer);
            }
            const net::WireStats wstats = writer.stats();
            const Bytes& encoded = writer.buffer();
            net::WireReader reader(BytesView(encoded.data(), encoded.size()));
            bft::RequestMsg back;
            {
                RBFT_PROF_ZONE(profiler, "wire.decode");
                back = bft::RequestMsg::decode(reader);
            }
            if (!reader.ok() || back.rid != msg.rid) decode_failures += 1;
            const net::WireStats rstats = reader.stats();
            bytes_copied->add(wstats.bytes_copied + rstats.bytes_copied);
            allocs->add(wstats.allocs + rstats.allocs);
            roundtrips->add(1);
        }

        if (decode_failures > 0) {
            std::fprintf(stderr, "bench_simcore: %llu wire round-trip failure(s)\n",
                         static_cast<unsigned long long>(decode_failures));
        }
        if (wall_s > 0.0) {
            out.extra.emplace_back("roundtrips_per_sec",
                                   static_cast<double>(kWireTimedIters) / wall_s);
        }
        out.scenario.recorder = std::move(recorder);
        return out;
    };
    return exp::RunSpec{"wire REQUEST encode/decode (256 B payload)", std::move(run)};
}

// ---------------------------------------------------------------------------
// Point 3: authenticator construction.  One body digest per request reused
// across the f+1 instances — crypto.digests_computed stays at one per
// request while macs_computed scales with instances × nodes.

exp::RunSpec auth_spec() {
    exp::CustomRun run;
    run.seed = 3;
    run.sim_seconds = 0.0;
    run.run = [] {
        exp::RunOutput out;
        auto recorder = std::make_shared<obs::Recorder>();
        recorder->enable_profiling();
        obs::prof::Profiler* profiler = recorder->profiler();

        const crypto::KeyStore keys(0x5eedULL);
        const crypto::Principal sender = crypto::Principal::client(ClientId{1});
        Bytes body(64, 0x11);

        std::uint64_t verify_failures = 0;
        const std::uint64_t t0 = obs::prof::wall_now_ns();
        for (std::uint64_t req = 0; req < kAuthRequests; ++req) {
            for (std::size_t b = 0; b < 8; ++b) {
                body[b] = static_cast<std::uint8_t>(req >> (b * 8));
            }
            Digest digest;
            {
                RBFT_PROF_ZONE(profiler, "crypto.digest");
                digest = crypto::sha256(BytesView(body.data(), body.size()));
                keys.note_digest();  // computed once, reused below
            }
            for (std::uint32_t inst = 0; inst < kAuthInstances; ++inst) {
                crypto::MacAuthenticator auth;
                {
                    RBFT_PROF_ZONE(profiler, "crypto.authenticate");
                    auth = crypto::make_authenticator(keys, sender, kAuthNodes, digest);
                }
                RBFT_PROF_ZONE(profiler, "crypto.verify");
                if (!crypto::verify_authenticator(keys, auth, NodeId{inst}, digest)) {
                    verify_failures += 1;
                }
            }
        }
        const double wall_s =
            static_cast<double>(obs::prof::wall_now_ns() - t0) / 1e9;

        if (verify_failures > 0) {
            std::fprintf(stderr, "bench_simcore: %llu authenticator verify failure(s)\n",
                         static_cast<unsigned long long>(verify_failures));
        }
        bridge_crypto_stats(*profiler, keys);
        if (wall_s > 0.0) {
            out.extra.emplace_back(
                "auths_per_sec",
                static_cast<double>(kAuthRequests * kAuthInstances) / wall_s);
        }
        out.scenario.recorder = std::move(recorder);
        return out;
    };
    return exp::RunSpec{"authenticator build+verify (memoized digest)", std::move(run)};
}

// ---------------------------------------------------------------------------
// Point 4: end-to-end slice.  One short fig7-style saturated static run
// with profiling on — the per-zone breakdown of a real protocol workload.

exp::RunSpec fig7_slice_spec() {
    exp::RbftScenario scenario;
    scenario.f = 1;
    scenario.payload_bytes = 8;
    scenario.load = exp::LoadShape::kStatic;
    scenario.seed = 42;
    scenario.clients = 10;
    scenario.warmup = seconds(0.5);
    scenario.measure = seconds(1.0);
    auto recorder = std::make_shared<obs::Recorder>();
    recorder->enable_profiling();  // before the runner wires the cluster
    scenario.recorder = std::move(recorder);
    return exp::RunSpec{"fig7 slice f=1 static saturated", std::move(scenario)};
}

// ---------------------------------------------------------------------------

/// Shared fold scaffolding: captures the run's profile into the outcome and
/// copies the CustomRun's wall-derived rates into the perf block.
PointOutcome profiled_outcome(const exp::RunOutput& output) {
    PointOutcome outcome;
    const obs::prof::Profiler* profiler =
        output.scenario.recorder ? output.scenario.recorder->profiler() : nullptr;
    if (profiler) outcome.capture_profile(*profiler);
    for (const auto& [name, value] : output.extra) outcome.perf.emplace_back(name, value);
    return outcome;
}

/// Fold of the event-queue points: dispatch count and high water.
auto fold_queue(std::string row_label) {
    return [row_label = std::move(row_label)](const std::vector<exp::RunOutput>& outputs) {
        PointOutcome o = profiled_outcome(outputs.front());
        const obs::prof::Profiler& p = *outputs.front().scenario.recorder->profiler();
        const double dispatched = static_cast<double>(p.counter_sum("sim.events_dispatched"));
        const double high_water = static_cast<double>(p.counter_sum("sim.queue_high_water"));
        o.counters.emplace_back("events_dispatched", dispatched);
        o.counters.emplace_back("queue_high_water", high_water);
        o.rows.push_back(Row{row_label, {{"events", dispatched}, {"high_water", high_water}}});
        return o;
    };
}

void register_points(Harness& harness) {
    // The wall rates depend on which SHA-256 kernel the host runs; naming
    // it lets a rate jump between runs be traced to the CPU.
    harness.add_info("sha256_kernel", crypto::sha256_kernel_name());
    harness.add_point("simcore/event_queue_churn",
                      {queue_spec("event-queue churn (64 timer chains)", 1, 0)},
                      fold_queue("event_queue_churn"));
    harness.add_point("simcore/event_queue_timers",
                      {queue_spec("event-queue churn (64 timer chains) + 2000 ms-horizon timers",
                                  5, kStandingTimers)},
                      fold_queue("event_queue_timers"));

    harness.add_point(
        "simcore/wire_roundtrip", {wire_spec()},
        [](const std::vector<exp::RunOutput>& outputs) {
            PointOutcome o = profiled_outcome(outputs.front());
            const obs::prof::Profiler& p = *outputs.front().scenario.recorder->profiler();
            o.counters.emplace_back(
                "bytes_copied", static_cast<double>(p.counter_sum("wire.bytes_copied")));
            o.counters.emplace_back("allocs",
                                    static_cast<double>(p.counter_sum("wire.allocs")));
            o.rows.push_back(
                Row{"wire_roundtrip",
                    {{"roundtrips", static_cast<double>(p.counter_sum("wire.roundtrips"))},
                     {"MB_copied",
                      static_cast<double>(p.counter_sum("wire.bytes_copied")) / 1e6}}});
            return o;
        });

    harness.add_point(
        "simcore/crypto_auth", {auth_spec()},
        [](const std::vector<exp::RunOutput>& outputs) {
            PointOutcome o = profiled_outcome(outputs.front());
            const obs::prof::Profiler& p = *outputs.front().scenario.recorder->profiler();
            const double digests =
                static_cast<double>(p.counter_sum("crypto.digests_computed"));
            const double macs = static_cast<double>(p.counter_sum("crypto.macs_computed"));
            o.counters.emplace_back("digests_computed", digests);
            o.counters.emplace_back("macs_computed", macs);
            o.counters.emplace_back(
                "key_cache_hits",
                static_cast<double>(p.counter_sum("crypto.key_cache_hits")));
            // The memoization claim, as a row: one digest per request even
            // though every request was authenticated on f+1 instances.
            o.rows.push_back(Row{"crypto_auth",
                                 {{"digests", digests},
                                  {"macs", macs},
                                  {"digests_per_req",
                                   digests / static_cast<double>(kAuthRequests)}}});
            return o;
        });

    harness.add_point(
        "simcore/fig7_slice", {fig7_slice_spec()},
        [](const std::vector<exp::RunOutput>& outputs) {
            const exp::RunOutput& r = outputs.front();
            PointOutcome o = profiled_outcome(r);
            const obs::prof::Profiler& p = *r.scenario.recorder->profiler();
            const double dispatched =
                static_cast<double>(p.counter_sum("sim.events_dispatched"));
            o.counters.emplace_back("kreq_s", r.scenario.result.kreq_s);
            o.counters.emplace_back(
                "completed", static_cast<double>(r.scenario.result.completed));
            o.counters.emplace_back("events_dispatched", dispatched);
            if (r.wall_seconds > 0.0) {
                o.perf.emplace_back("events_per_sec", dispatched / r.wall_seconds);
                o.perf.emplace_back(
                    "requests_per_sec_wall",
                    static_cast<double>(r.scenario.result.completed) /
                        r.wall_seconds);
            }
            o.rows.push_back(
                Row{"fig7_slice f=1",
                    {{"kreq_s", r.scenario.result.kreq_s},
                     {"events", dispatched}}});
            // Hotspot table as notes — the human-readable per-zone breakdown.
            std::ostringstream hotspots;
            obs::prof::render_hotspots(hotspots, obs::prof::report_from(p), 8);
            o.notes.push_back("fig7_slice hotspots:");
            std::istringstream lines(hotspots.str());
            for (std::string line; std::getline(lines, line);) {
                o.notes.push_back("  " + line);
            }
            return o;
        });
}

}  // namespace
}  // namespace rbft::bench

RBFT_BENCH_MAIN("simcore", "Simulator core: hot-path profile and throughput")
