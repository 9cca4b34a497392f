// The three simulated workloads: sim_knee, sim_overload and sim_attack.
//
// One episode builds a fresh simulated cluster, passes the readiness gate
// (every client has one committed request), then offers an open-loop
// Poisson schedule drawn from the seed for a warm-up and a measurement
// window, and drains.  Goodput, latency and failures are simulated-time
// quantities and deterministic for a seed; the simulated length scales
// with --seconds by a fixed per-workload factor, never with host speed.
//
// --trace 0 reports the end-to-end metrics of the workload's untraced
// episodes (plus the median of many set-ups).  --trace 1 runs the first
// episode untraced, then again with the recorder's trace, profiler and the
// invariant oracles attached, checks that both produced the same
// deterministic outputs, times each layer's unit cost and reports
// per-layer metrics.
#include "sim_workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "attacks/attacks.hpp"
#include "check/oracles.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "exp/runners.hpp"
#include "obs/recorder.hpp"
#include "rbft/cluster.hpp"
#include "units.hpp"
#include "workload/client.hpp"

namespace perfbench {
namespace {

using namespace rbft;

struct Plan {
    const char* name;
    std::size_t payload_bytes;
    double load_frac;          // share of exp::capacity offered
    bool attack;               // worst-attack-2
    double warm_s;             // simulated warm-up
    double window_per_second;  // simulated window per --seconds
    double drain_cap_s;        // simulated drain limit
    int episodes;              // independent runs per measurement
    std::int64_t slices;       // simulated slices per episode's warm-up + window (~0.1 wall-s each)
};

constexpr std::uint32_t kClients = 20;
/// Set-ups per untraced run, each but the measured one in a forked child;
/// setup_s is their median.
constexpr int kSetups = 81;

std::optional<Plan> find_plan(const std::string& name) {
    static const Plan plans[] = {
        {"sim_knee", 8, 0.90, false, 0.3, 0.22, 2.0, 1, 96},
        // Past the knee the backlog amplifies small seed-to-seed goodput
        // differences into large latency and speed differences, so each
        // run measures three independent episodes.  Each keeps a window
        // long enough (1.05 s at --seconds 15) for the backlog to bring
        // retransmissions and false instance changes.
        {"sim_overload", 8, 1.20, false, 0.2, 0.07, 3.0, 3, 96},
        // Under attack the delay controller settles at a different point
        // for each seed, so latency is the median over seven episodes.
        {"sim_attack", 4096, 0.90, true, 0.5, 0.20, 2.0, 7, 24},
    };
    for (const Plan& p : plans) {
        if (name == p.name) return p;
    }
    return std::nullopt;
}

/// Everything one run produces.  The first block is deterministic for a
/// seed; the second is wall-clock.
struct RunOut {
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;  // all completions, gate included
    std::uint64_t due_window = 0;
    std::uint64_t failed = 0;     // due in window, no f+1 replies at drain end
    std::uint64_t done_in_window = 0;
    std::vector<double> window_latency_ms;  // due in window; failed ones censored
    std::uint64_t latency_fingerprint = 0;
    crypto::CryptoStats crypto{};
    std::uint64_t net_messages = 0, net_bytes = 0, net_dropped_closed_nic = 0;
    std::uint64_t sim_events = 0, sim_scheduled = 0, queue_high_water = 0;
    std::uint64_t bft_ordered = 0, bft_batches = 0, view_changes = 0;
    std::uint64_t instance_changes = 0, requests_received = 0, requests_invalid = 0;
    std::uint64_t nic_closures = 0, retransmits = 0;
    double window_s = 0.0;

    double setup_s = 0.0;  // rescaled to the host reference speed
    double run_wall_s = 0.0;  // warm-up + window + drain
    double run_cpu_s = 0.0;
    // Per simulated slice of warm-up and window: wall, CPU, completions and
    // the host reference kernel's time right after the slice.
    std::vector<double> slice_wall_s, slice_cpu_s, slice_completed, slice_ref_s;
    double rss_after_setup_mb = 0.0, rss_end_mb = 0.0;
    bool gate_passed = false;
    bool oracles_ok = true;
    std::string oracle_summary;
    std::uint64_t oracle_events = 0;
    std::string export_error;
    std::map<std::string, obs::prof::ZoneAgg> zones;
};

enum class Mode { kSetupOnly, kUntraced, kTraced };

RunOut run_once(const Plan& plan, std::uint64_t seed, double seconds_arg, Mode mode,
                Spans* spans, const std::string& obs_dir = {}) {
    RunOut out;
    const double rate = plan.load_frac * exp::capacity(exp::Protocol::kRbftTcp, plan.payload_bytes);
    out.window_s = plan.window_per_second * seconds_arg;

    auto recorder = std::make_shared<obs::Recorder>();
    std::unique_ptr<check::OracleSuite> oracles;
    if (mode == Mode::kTraced) {
        recorder->enable_trace();
        recorder->enable_profiling();
    }

    const std::uint32_t setup_span = spans ? spans->open("setup") : 0;
    const std::uint64_t setup_start = now_ns();
    core::ClusterConfig cfg;
    cfg.f = 1;
    cfg.seed = seed;
    cfg.recorder = recorder.get();
    if (mode == Mode::kTraced) {
        check::OracleConfig ocfg;
        ocfg.n = cfg.n();
        ocfg.f = cfg.f;
        ocfg.monitoring = cfg.monitoring;
        oracles = std::make_unique<check::OracleSuite>(ocfg);
        oracles->attach(*recorder);
    }
    auto cluster = std::make_unique<core::Cluster>(cfg);
    std::unique_ptr<attacks::WorstAttack2> attack;
    if (plan.attack) {
        attack = std::make_unique<attacks::WorstAttack2>(*cluster);
        attack->install();
    }
    cluster->start();
    if (attack) attack->start();

    workload::ClientBehavior behavior;
    behavior.payload_bytes = plan.payload_bytes;
    behavior.message_pool = cluster->message_pool();
    // The real driver's retransmission shape, so a request lost in an
    // instance change is sent again rather than silently abandoned.
    behavior.set_retransmit_policy(BackoffPolicy::chaos_client(milliseconds(200.0)));
    sim::Simulator& simulator = cluster->simulator();

    // Per client, per request id (1-based): due time and completion time.
    struct Req {
        std::int64_t due_ns = 0;
        std::int64_t done_ns = -1;
    };
    std::vector<std::vector<Req>> reqs(kClients);
    std::vector<std::unique_ptr<workload::ClientEndpoint>> clients;
    std::uint64_t completed = 0;
    for (std::uint32_t c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<workload::ClientEndpoint>(
            ClientId{c}, simulator, cluster->network(), cluster->keys(), cfg.n(), cfg.f, behavior));
        clients.back()->set_recorder(recorder.get());
        clients.back()->set_completion_callback([&, c](RequestId rid, Duration) {
            auto& slot = reqs[c][raw(rid) - 1];
            slot.done_ns = simulator.now().ns;
            ++completed;
        });
    }
    auto send = [&](std::uint32_t c) {
        const RequestId rid = clients[c]->send_one();
        auto& list = reqs[c];
        if (list.size() < raw(rid)) list.resize(raw(rid));
        list[raw(rid) - 1].due_ns = simulator.now().ns;
    };

    // Readiness gate: every client has one committed request.
    for (std::uint32_t c = 0; c < kClients; ++c) send(c);
    const TimePoint gate_limit = simulator.now() + seconds(5.0);
    while (completed < kClients && simulator.now() < gate_limit) {
        (void)simulator.run_for(milliseconds(1.0));
    }
    out.setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;
    // Rescaled to the host's reference speed, like the rate metrics.
    out.setup_s *= kHostRefNominalS / host_ref_s();
    out.rss_after_setup_mb = current_rss_mb();
    if (spans) spans->close(setup_span);
    out.gate_passed = completed == kClients;
    if (!out.gate_passed || mode == Mode::kSetupOnly) return out;

    // Open-loop schedule from the seed: Poisson arrivals, round-robin over
    // the clients, from the gate's end to the end of the window.  Each
    // arrival schedules the next one, so the event queue holds the
    // protocol's events plus one pending arrival, never the whole schedule.
    const TimePoint t0 = simulator.now();
    const TimePoint window_from = t0 + seconds(plan.warm_s);
    const TimePoint window_to = window_from + seconds(out.window_s);
    struct Arrivals {
        Rng rng;
        double rate;
        double t;
        double end;
        std::uint32_t next_client = 0;
        std::function<void(std::uint32_t)> send;
        sim::Simulator* simulator;

        void schedule_next() {
            t += -std::log(1.0 - rng.next_double()) / rate;
            if (t >= end) return;
            simulator->schedule_at(TimePoint{static_cast<std::int64_t>(t * 1e9)}, [this] {
                const std::uint32_t c = next_client;
                next_client = (next_client + 1) % kClients;
                send(c);
                schedule_next();
            });
        }
    };
    Arrivals arrivals{Rng(seed ^ 0x0be11c0ad5eedULL), rate, t0.seconds(), window_to.seconds(), 0,
                      send, &simulator};
    arrivals.schedule_next();

    const std::uint64_t run_start = now_ns();
    const std::uint64_t cpu_start = process_cpu_ns();
    // Warm-up and window advance in equal simulated slices; the speed
    // metrics are medians over slices, each rescaled by the host reference
    // kernel timed after it, which keeps the host's own speed swings (about
    // +-10% between back-to-back runs of one seed) from moving them.
    auto run_slices = [&](TimePoint from, TimePoint to) {
        const Duration slice = (window_to - t0) / plan.slices;
        for (TimePoint at = from; at < to;) {
            at = std::min(to, at + slice);
            const std::uint64_t wall = now_ns(), cpu = process_cpu_ns();
            const std::uint64_t done = completed;
            (void)simulator.run_until(at);
            out.slice_wall_s.push_back(static_cast<double>(now_ns() - wall) * 1e-9);
            out.slice_cpu_s.push_back(static_cast<double>(process_cpu_ns() - cpu) * 1e-9);
            out.slice_completed.push_back(static_cast<double>(completed - done));
            out.slice_ref_s.push_back(host_ref_s());
        }
    };
    {
        SpanScope s(spans, "warmup");
        run_slices(t0, window_from);
    }
    {
        SpanScope s(spans, "window");
        run_slices(window_from, window_to);
    }
    auto outstanding = [&] {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->outstanding();
        return n;
    };
    {
        SpanScope s(spans, "drain");
        const TimePoint drain_limit = window_to + seconds(plan.drain_cap_s);
        while (outstanding() > 0 && simulator.now() < drain_limit) {
            (void)simulator.run_for(milliseconds(10.0));
        }
    }
    out.run_wall_s = static_cast<double>(now_ns() - run_start) * 1e-9;
    out.run_cpu_s = static_cast<double>(process_cpu_ns() - cpu_start) * 1e-9;
    out.rss_end_mb = current_rss_mb();

    SpanScope check_span(spans, "check");
    const std::int64_t drain_end = simulator.now().ns;
    std::uint64_t fp = 1469598103934665603ULL;
    for (const auto& list : reqs) {
        for (const Req& r : list) {
            if (r.done_ns >= window_from.ns && r.done_ns < window_to.ns) ++out.done_in_window;
            if (r.due_ns < window_from.ns || r.due_ns >= window_to.ns) continue;
            ++out.due_window;
            std::int64_t latency_ns = r.done_ns - r.due_ns;
            if (r.done_ns < 0) {
                ++out.failed;
                latency_ns = drain_end - r.due_ns;
            }
            out.window_latency_ms.push_back(static_cast<double>(latency_ns) * 1e-6);
            fp = (fp ^ static_cast<std::uint64_t>(latency_ns)) * 1099511628211ULL;
        }
    }
    out.latency_fingerprint = fp;
    out.completed = completed;
    for (const auto& c : clients) {
        out.sent += c->sent();
        out.retransmits += c->retransmissions();
    }
    out.crypto = cluster->keys().stats();
    const obs::MetricsRegistry& reg = recorder->metrics();
    out.net_messages = reg.counter_sum("net.messages_sent");
    out.net_bytes = reg.counter_sum("net.bytes_sent");
    out.net_dropped_closed_nic = reg.counter_sum("net.dropped_closed_nic");
    out.sim_events = simulator.dispatched_total();
    out.sim_scheduled = reg.counter_sum("sim.events_scheduled");
    out.queue_high_water = simulator.queue_high_water();
    out.bft_ordered = reg.counter_sum("bft.requests_ordered");
    out.bft_batches = reg.counter_sum("bft.batches_delivered");
    out.view_changes = reg.counter_sum("bft.view_changes");
    out.requests_received = reg.counter_sum("rbft.requests_received");
    out.requests_invalid = reg.counter_sum("rbft.requests_invalid");
    out.nic_closures = reg.counter_sum("rbft.nic_closures");
    for (std::uint32_t i = 0; i < cluster->node_count(); ++i) {
        out.instance_changes = std::max<std::uint64_t>(
            out.instance_changes, reg.counter_value("rbft.instance_changes_done", i));
    }
    if (oracles) {
        oracles->finalize();
        out.oracles_ok = oracles->ok();
        out.oracle_summary = oracles->summary();
        out.oracle_events = oracles->events_seen();
    }
    if (recorder->profiler()) out.zones = recorder->profiler()->zones_by_path();
    std::error_code ec;
    if (mode == Mode::kTraced && !obs_dir.empty() &&
        (std::filesystem::create_directories(obs_dir, ec), !recorder->export_to_dir(obs_dir))) {
        out.export_error = "could not export the recorder to " + obs_dir;
    }
    return out;
}

/// Seed of episode `k` of a run: episode 0 runs the run's seed itself, the
/// others the k-th draw of an Rng seeded with it.  (Not an additive step
/// of 0x9E3779B97F4A7C15: Rng seeds its state words by adding that
/// constant, so such seeds share state words and their episodes move
/// together.)
std::uint64_t episode_seed(std::uint64_t seed, int k) {
    Rng rng(seed);
    std::uint64_t out = seed;
    for (int i = 0; i < k; ++i) out = rng.next_u64();
    return out;
}

/// Times one set-up in a forked child, so every set-up starts from the same
/// process state (heap, page mappings) instead of inheriting what earlier
/// set-ups left behind.  Returns a negative value if the child failed.
double setup_in_child(const Plan& plan, std::uint64_t seed, double seconds_arg) {
    int fds[2];
    if (pipe(fds) != 0) return -1.0;
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        const RunOut r = run_once(plan, seed, seconds_arg, Mode::kSetupOnly, nullptr);
        const double value = r.gate_passed ? r.setup_s : -1.0;
        const bool ok = write(fds[1], &value, sizeof value) == static_cast<ssize_t>(sizeof value);
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double value = -1.0;
    if (pid < 0 || read(fds[0], &value, sizeof value) != static_cast<ssize_t>(sizeof value)) {
        value = -1.0;
    }
    close(fds[0]);
    if (pid > 0) waitpid(pid, nullptr, 0);
    return value;
}

/// Names of the deterministic outputs on which two runs of one seed differ.
std::vector<std::string> deterministic_diff(const RunOut& a, const RunOut& b) {
    std::vector<std::string> diff;
    auto cmp = [&](const char* name, std::uint64_t x, std::uint64_t y) {
        if (x != y) {
            diff.push_back(std::string(name) + " " + std::to_string(x) + " != " + std::to_string(y));
        }
    };
    cmp("client.sent", a.sent, b.sent);
    cmp("client.completed", a.completed, b.completed);
    cmp("latency_fingerprint", a.latency_fingerprint, b.latency_fingerprint);
    cmp("crypto.digests_computed", a.crypto.digests_computed, b.crypto.digests_computed);
    cmp("crypto.macs_computed", a.crypto.macs_computed, b.crypto.macs_computed);
    cmp("crypto.sigs_computed", a.crypto.sigs_computed, b.crypto.sigs_computed);
    cmp("crypto.keys_derived", a.crypto.keys_derived, b.crypto.keys_derived);
    cmp("crypto.key_cache_hits", a.crypto.key_cache_hits, b.crypto.key_cache_hits);
    cmp("net.messages_sent", a.net_messages, b.net_messages);
    cmp("net.bytes_sent", a.net_bytes, b.net_bytes);
    cmp("net.dropped_closed_nic", a.net_dropped_closed_nic, b.net_dropped_closed_nic);
    cmp("sim.events_dispatched", a.sim_events, b.sim_events);
    cmp("sim.events_scheduled", a.sim_scheduled, b.sim_scheduled);
    cmp("sim.queue_high_water", a.queue_high_water, b.queue_high_water);
    return diff;
}

/// Output checks every run makes on its own results.
void check_run(const RunOut& r, Report& report) {
    if (!r.gate_passed) report.fail_check("readiness gate not passed within 5 simulated seconds");
    if (!r.oracles_ok) report.fail_check("oracles: " + r.oracle_summary);
    if (r.completed > r.sent) report.fail_check("more requests completed than sent");
    if (r.due_window == 0) report.fail_check("no request was due in the window");
}

/// End-to-end metrics over a run's episodes: counts and slices are pooled,
/// latency percentiles are the median of the episodes' percentiles.
void end_to_end(const std::vector<RunOut>& runs, const std::vector<double>& setups,
                Report& report) {
    std::vector<double> p50, p99, speed, cpu_per_kreq, host_ref_ms;
    std::uint64_t done_in_window = 0, latencies = 0;
    double window_s = 0.0;
    for (const RunOut& r : runs) {
        std::vector<double> lat = r.window_latency_ms;
        std::sort(lat.begin(), lat.end());
        p50.push_back(quantile_sorted(lat, 0.50));
        p99.push_back(quantile_sorted(lat, 0.99));
        latencies += lat.size();
        done_in_window += r.done_in_window;
        window_s += r.window_s;
        report.attempted += r.due_window;
        report.failed += r.failed;
        for (std::size_t i = 0; i < r.slice_wall_s.size(); ++i) {
            if (r.slice_completed[i] <= 0) continue;
            const double host = r.slice_ref_s[i] / kHostRefNominalS;  // > 1: host slower
            speed.push_back(r.slice_completed[i] / r.slice_wall_s[i] * host);
            cpu_per_kreq.push_back(r.slice_cpu_s[i] * 1e6 / r.slice_completed[i] / host);
            host_ref_ms.push_back(r.slice_ref_s[i] * 1e3);
        }
    }
    report.set("setup_s", median(setups), "s", setups.size());
    report.set("goodput_kreq_s", static_cast<double>(done_in_window) / window_s / 1000.0, "kreq/s",
               done_in_window);
    report.set("latency_p50_ms", median(p50), "ms", latencies);
    report.set("latency_p99_ms", median(p99), "ms", latencies);
    report.set("served_frac",
               report.attempted ? 1.0 - static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted)
                                : 0.0,
               "fraction", report.attempted);
    report.set("sim_speed_req_per_s", median(speed), "req/s", speed.size());
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    report.set("node_cpu_ms_per_kreq", median(cpu_per_kreq), "ms/kreq", cpu_per_kreq.size());
    report.set("bench.host_ref_ms", median(host_ref_ms), "ms", host_ref_ms.size());
}

void per_layer(const Plan& plan, const RunOut& plain, const RunOut& traced, const UnitCosts& u,
               Report& report) {
    const double req = static_cast<double>(std::max<std::uint64_t>(plain.completed, 1));
    const double wall_ns = plain.run_wall_s * 1e9;
    const crypto::CryptoStats& cs = plain.crypto;
    const double reqs_per_batch =
        plain.bft_batches ? static_cast<double>(plain.bft_ordered) / static_cast<double>(plain.bft_batches)
                          : 0.0;

    // Crypto: request-body digests are one per request sent; the rest are
    // batch digests over 32 bytes per ordered request reference.
    const double body_digests = static_cast<double>(plain.sent);
    const double other_digests = std::max(0.0, static_cast<double>(cs.digests_computed) - body_digests);
    const double crypto_ns = static_cast<double>(cs.macs_computed + cs.sigs_computed) * u.hmac_ns +
                             body_digests * u.sha256_ns(plan.payload_bytes + 16) +
                             other_digests * u.sha256_ns(static_cast<std::size_t>(32.0 * std::max(1.0, reqs_per_batch))) +
                             static_cast<double>(cs.keys_derived + cs.key_cache_hits) * u.pairwise_key_ns;
    const double sim_ns = static_cast<double>(plain.sim_events) * u.dispatch_ns;
    const double client_ns = static_cast<double>(plain.sent) * u.client_build_us * 1000.0;
    const double crypto_share = crypto_ns / wall_ns;
    const double sim_share = sim_ns / wall_ns;

    report.set("crypto.macs_per_req", static_cast<double>(cs.macs_computed) / req, "count");
    report.set("crypto.digests_per_req", static_cast<double>(cs.digests_computed) / req, "count");
    report.set("crypto.sigs_per_req", static_cast<double>(cs.sigs_computed) / req, "count");
    report.set("crypto.hmac_ns", u.hmac_ns, "ns");
    report.set("crypto.sha256_ns_per_kib", u.sha256_4k_ns / 4.0, "ns");
    report.set("crypto.est_busy_share", crypto_share, "fraction");
    report.set("sim.events_per_req", static_cast<double>(plain.sim_events) / req, "count");
    report.set("sim.ns_per_event", wall_ns / static_cast<double>(std::max<std::uint64_t>(plain.sim_events, 1)), "ns");
    report.set("sim.queue_high_water", static_cast<double>(plain.queue_high_water), "count");
    report.set("sim.dispatch_unit_ns", u.dispatch_ns, "ns");
    report.set("sim.est_busy_share", sim_share, "fraction");
    report.set("net.msgs_per_req", static_cast<double>(plain.net_messages) / req, "count");
    report.set("net.bytes_per_req", static_cast<double>(plain.net_bytes) / req, "B");
    report.set("net.dropped_closed_nic", static_cast<double>(plain.net_dropped_closed_nic), "count");
    report.set("net.request_codec_ns", u.request_codec_ns, "ns");
    report.set("runtime.fabric_hop_ns", u.fabric_hop_ns, "ns");
    report.set("bft.reqs_per_batch", reqs_per_batch, "count");
    report.set("bft.view_changes", static_cast<double>(plain.view_changes), "count");
    report.set("rbft.instance_changes", static_cast<double>(plain.instance_changes), "count");
    report.set("rbft.invalid_frac",
               plain.requests_received ? static_cast<double>(plain.requests_invalid) /
                                             static_cast<double>(plain.requests_received)
                                       : 0.0,
               "fraction");
    report.set("rbft.nic_closures", static_cast<double>(plain.nic_closures), "count");
    report.set("rbft.rss_mb_per_kreq",
               (plain.rss_end_mb - plain.rss_after_setup_mb) / (req / 1000.0), "MiB/kreq");
    report.set("client.retransmits_per_req",
               static_cast<double>(plain.retransmits) / static_cast<double>(std::max<std::uint64_t>(plain.sent, 1)),
               "count");
    report.set("client.build_us", u.client_build_us, "us");
    report.set("bench.host_ref_ms", median(plain.slice_ref_s) * 1e3, "ms",
               plain.slice_ref_s.size());
    report.set("bench.gen_lag_p99_ms", 0.0, "ms");  // arrivals fire at their due time
    report.set("bench.attributed_share", crypto_share + sim_share + client_ns / wall_ns, "fraction");
    report.set("bench.trace_overhead_pct", 100.0 * (traced.run_wall_s - plain.run_wall_s) / plain.run_wall_s,
               "%");

    // Profiler view of the traced run: self time of the simulator's
    // dispatch zone, i.e. the time no finer zone claims.
    double dispatch_self = 0.0;
    for (const auto& [path, z] : traced.zones) {
        if (path == "sim.dispatch") dispatch_self += static_cast<double>(z.wall_self_ns);
    }
    report.set("prof.dispatch_self_share", dispatch_self / (traced.run_wall_s * 1e9), "fraction");
}

void note_collapse(const RunOut& r, Report& report) {
    if (r.instance_changes > 0) {
        report.notes.push_back(std::to_string(r.instance_changes) +
                               " instance change(s) with no fault injected on this workload");
    }
    if (r.failed > 0) {
        report.notes.push_back(std::to_string(r.failed) + " of " + std::to_string(r.due_window) +
                               " window requests unanswered at drain end");
    }
}

}  // namespace

bool is_sim_workload(const std::string& name) { return find_plan(name).has_value(); }

int run_sim_workload(const std::string& name, std::uint64_t seed, double seconds_arg, bool trace,
                     const std::string& spans_path, const std::string& obs_dir) {
    const Plan plan = *find_plan(name);
    Report report;
    Spans spans;
    Spans* sp = trace ? &spans : nullptr;

    if (!trace) {
        std::vector<double> setups;
        for (int i = 0; i < kSetups - 1; ++i) {
            const double setup_s = setup_in_child(plan, seed, seconds_arg);
            if (setup_s < 0) report.fail_check("a set-up failed (fork, pipe or readiness gate)");
            setups.push_back(setup_s);
        }
        std::vector<RunOut> runs;
        for (int k = 0; k < plan.episodes; ++k) {
            runs.push_back(run_once(plan, episode_seed(seed, k), seconds_arg, Mode::kUntraced, nullptr));
            check_run(runs.back(), report);
            note_collapse(runs.back(), report);
        }
        setups.push_back(runs.front().setup_s);
        end_to_end(runs, setups, report);
        report.print();
        return report.correct ? 0 : 1;
    }

    const double fresh_ref_s = host_ref_s();
    RunOut plain, traced;
    {
        SpanScope s(sp, "untraced_run");
        plain = run_once(plan, seed, seconds_arg, Mode::kUntraced, sp);
    }
    {
        SpanScope s(sp, "traced_run");
        traced = run_once(plan, seed, seconds_arg, Mode::kTraced, sp, obs_dir);
    }
    check_run(plain, report);
    check_run(traced, report);
    report.notes.push_back("oracles checked " + std::to_string(traced.oracle_events) +
                           " events of the traced run");
    report.notes.push_back("host reference " + std::to_string(fresh_ref_s * 1e3) +
                           " ms before any cluster existed, median " +
                           std::to_string(median(plain.slice_ref_s) * 1e3) + " ms after slices");
    for (const std::string& d : deterministic_diff(plain, traced)) {
        report.fail_check("traced run differs from untraced run: " + d);
    }
    const UnitCosts units = time_units(plain.queue_high_water, plan.payload_bytes, sp);
    if (units.fabric_hop_ns <= 0.0) {
        report.fail_check("runtime fabric hop: the loopback TCP link did not carry the requests");
    }
    per_layer(plan, plain, traced, units, report);
    report.attempted = plain.due_window;
    report.failed = plain.failed;
    note_collapse(plain, report);
    if (!traced.export_error.empty()) report.notes.push_back(traced.export_error);
    if (!spans_path.empty() && !spans.write(spans_path)) {
        report.notes.push_back("could not write spans to " + spans_path);
    }
    report.print();
    return report.correct ? 0 : 1;
}

}  // namespace perfbench
