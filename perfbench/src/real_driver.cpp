// Client driver of the real_loopback workload.
//
// One single-threaded process multiplexes several ClientEndpoints on one
// SocketFabric (one connection per node), against rbft_noded processes
// that run.py started.  It passes the readiness gate (every client has one
// committed request) and prints "ready"; in full mode it then offers an
// open-loop Poisson schedule drawn from the seed at each fixed rate step,
// drains, and prints one JSON report line.
//
// Latency counts from each request's due time, so a stalled generator or
// transport shows up as latency.  The event loop is WallClockExecutor's
// step() written out, so the calls into TcpTransport::poll can be timed.
#include "real_driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "crypto/keystore.hpp"
#include "obs/recorder.hpp"
#include "runtime/clock.hpp"
#include "runtime/config.hpp"
#include "runtime/fabric.hpp"
#include "runtime/transport.hpp"
#include "sim/simulator.hpp"
#include "units.hpp"
#include "workload/client.hpp"

namespace perfbench {
namespace {

using namespace rbft;

/// Offered rate of each step, req/s.
constexpr double kRates[] = {2000.0, 4000.0, 6000.0, 8000.0};
/// The step whose latency percentiles are the end-to-end latency metrics.
constexpr std::size_t kLatencyStep = 1;
static_assert(kRates[kLatencyStep] == 4000.0, "latency metrics are taken at 4 kreq/s");
constexpr std::uint32_t kClients = 8;
/// Share of --seconds spent in the steps; the rest covers the drain.
constexpr double kStepShare = 0.8;
/// Leading share of each step not measured.
constexpr double kWarmFrac = 0.2;
constexpr double kDrainS = 3.0;
constexpr double kGateTimeoutS = 20.0;
constexpr double kLatencyLimitMs = 25.0;

struct Req {
    std::int64_t due_ns = 0;
    std::int64_t done_ns = -1;
    std::int32_t step = -1;  // -1 = readiness gate
};

struct StepOut {
    double rate = 0.0;
    std::int64_t window_from = 0, window_to = 0;  // measured part (after warm-up)
    std::uint64_t due = 0, failed = 0, done_in_window = 0;
    std::uint64_t outstanding_mid = 0, outstanding_end = 0;
    std::vector<double> latency_ms;  // due in window; failed ones censored

    [[nodiscard]] double window_s() const { return static_cast<double>(window_to - window_from) * 1e-9; }
    [[nodiscard]] double p(double q) const { return quantile_sorted(latency_ms, q); }
    /// Meets the latency limit with no growing backlog.
    [[nodiscard]] bool meets_limit() const {
        const auto slack = std::max<std::uint64_t>(50, due / 50);
        return failed == 0 && p(0.99) <= kLatencyLimitMs && outstanding_end <= outstanding_mid + slack;
    }
};

}  // namespace

int run_real_driver(const RealDriverArgs& args) {
    Report report;
    Spans spans;
    Spans* sp = args.trace ? &spans : nullptr;

    std::string error;
    auto spec = runtime::load_cluster_spec(args.config, &error);
    if (!spec.has_value()) {
        std::fprintf(stderr, "config: %s\n", error.c_str());
        return 2;
    }

    // Traced runs attach the recorder's client counters.  The profiler stays
    // off here: its per-event clock reads slow the driver enough to push
    // the cluster into retransmission collapse, which would measure the
    // profiler rather than the runtime.
    std::shared_ptr<obs::Recorder> recorder;
    if (args.trace) recorder = std::make_shared<obs::Recorder>();

    const std::uint32_t setup_span = sp ? sp->open("setup") : 0;
    runtime::SteadyClock clock;
    sim::Simulator simulator;
    crypto::KeyStore keys(spec->seed);
    runtime::TcpTransport transport(clock, spec->seed ^ 0xC11E57ULL);
    runtime::SocketFabric fabric(simulator, transport, *spec, std::nullopt);
    if (recorder) simulator.set_metrics(&recorder->metrics());

    workload::ClientBehavior behavior;
    behavior.payload_bytes = 8;
    behavior.set_retransmit_policy(BackoffPolicy::chaos_client(milliseconds(200.0)));
    std::vector<std::unique_ptr<workload::ClientEndpoint>> clients;
    std::vector<std::vector<Req>> reqs(kClients);
    std::uint64_t completed = 0;
    for (std::uint32_t c = 0; c < kClients; ++c) {
        clients.push_back(std::make_unique<workload::ClientEndpoint>(
            ClientId{args.client_base + c}, simulator, fabric, keys, spec->n(), spec->f, behavior));
        if (recorder) clients.back()->set_recorder(recorder.get());
        clients.back()->set_completion_callback([&, c](RequestId rid, Duration) {
            reqs[c][raw(rid) - 1].done_ns = clock.now().ns;
            ++completed;
        });
    }
    auto outstanding = [&] {
        std::uint64_t n = 0;
        for (const auto& c : clients) n += c->outstanding();
        return n;
    };

    std::uint64_t build_ns = 0;
    std::vector<double> lag_ms;
    auto send = [&](std::uint32_t c, std::int64_t due_ns, std::int32_t step) {
        const std::uint64_t start = now_ns();
        const RequestId rid = clients[c]->send_one();
        build_ns += now_ns() - start;
        auto& list = reqs[c];
        if (list.size() < raw(rid)) list.resize(raw(rid));
        list[raw(rid) - 1] = Req{due_ns, -1, step};
    };

    std::uint64_t poll_ns = 0;
    // One event-loop turn: due timers, then poll(2) until the next timer,
    // the next due arrival or `max_wait`, then whatever arrived.
    auto turn = [&](std::optional<std::int64_t> next_due_ns, Duration max_wait) {
        (void)simulator.run_until(clock.now());
        Duration wait = max_wait;
        const TimePoint now = clock.now();
        if (const auto next = simulator.next_event_time(); next.has_value()) {
            wait = std::min(wait, *next - now);
        }
        if (next_due_ns) wait = std::min(wait, Duration{*next_due_ns - now.ns});
        if (wait.ns < 0) wait = Duration{};
        const std::uint64_t start = now_ns();
        transport.poll(wait);
        poll_ns += now_ns() - start;
        (void)simulator.run_until(clock.now());
    };

    // Readiness gate.
    for (std::uint32_t c = 0; c < kClients; ++c) send(c, clock.now().ns, -1);
    const TimePoint gate_deadline = clock.now() + seconds(kGateTimeoutS);
    while (completed < kClients && clock.now() < gate_deadline) {
        turn(std::nullopt, milliseconds(5.0));
    }
    if (sp) sp->close(setup_span);
    if (completed < kClients) {
        std::fprintf(stderr, "readiness gate: %llu/%u clients answered\n",
                     static_cast<unsigned long long>(completed), kClients);
        return 1;
    }
    std::printf("ready\n");
    std::fflush(stdout);
    if (args.gate_only) return 0;

    std::vector<double> rss_ready;
    std::vector<std::uint64_t> cpu_start;
    for (int pid : args.node_pids) {
        rss_ready.push_back(current_rss_mb(pid));
        cpu_start.push_back(pid_cpu_ns(pid));
    }
    const std::uint64_t driver_cpu_start = process_cpu_ns();
    const std::uint64_t wall_start = now_ns();
    const std::uint64_t completed_start = completed;
    build_ns = 0;
    poll_ns = 0;
    const std::uint64_t events_start = simulator.dispatched_total();

    // Rate steps: open loop, Poisson arrivals from the seed, round-robin
    // over the clients.
    Rng rng(args.seed ^ 0x0be11c0ad5eedULL);
    std::vector<StepOut> steps;
    std::uint32_t rr = 0;
    const double step_s = args.seconds * kStepShare / static_cast<double>(std::size(kRates));
    for (std::size_t s = 0; s < std::size(kRates); ++s) {
        StepOut step;
        step.rate = kRates[s];
        const std::uint32_t step_span =
            sp ? sp->open("step_" + std::to_string(static_cast<int>(step.rate))) : 0;
        const std::int64_t start_ns = clock.now().ns;
        step.window_to = start_ns + static_cast<std::int64_t>(step_s * 1e9);
        step.window_from = start_ns + static_cast<std::int64_t>(kWarmFrac * step_s * 1e9);
        const std::int64_t mid_ns = (step.window_from + step.window_to) / 2;
        double next_due = static_cast<double>(start_ns);
        auto draw = [&] { next_due += -std::log(1.0 - rng.next_double()) / step.rate * 1e9; };
        draw();
        bool mid_taken = false;
        while (true) {
            const std::int64_t now = clock.now().ns;
            while (next_due < static_cast<double>(step.window_to) && next_due <= static_cast<double>(now)) {
                const auto due = static_cast<std::int64_t>(next_due);
                lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
                send(rr, due, static_cast<std::int32_t>(s));
                rr = (rr + 1) % kClients;
                draw();
            }
            if (!mid_taken && now >= mid_ns) {
                step.outstanding_mid = outstanding();
                mid_taken = true;
            }
            if (now >= step.window_to) break;
            turn(std::min(static_cast<std::int64_t>(next_due), step.window_to), milliseconds(5.0));
        }
        step.outstanding_end = outstanding();
        if (sp) sp->close(step_span);
        steps.push_back(std::move(step));
    }
    // Drain: wait for every outstanding request, up to the drain limit.
    const std::uint32_t drain_span = sp ? sp->open("drain") : 0;
    const TimePoint drain_deadline = clock.now() + seconds(kDrainS);
    while (outstanding() > 0 && clock.now() < drain_deadline) turn(std::nullopt, milliseconds(5.0));
    if (sp) sp->close(drain_span);
    const double wall_s = static_cast<double>(now_ns() - wall_start) * 1e-9;
    const double driver_cpu_s = static_cast<double>(process_cpu_ns() - driver_cpu_start) * 1e-9;
    const std::int64_t drain_end = clock.now().ns;

    double node_cpu_s = 0.0, node_util_max = 0.0, node_rss_peak = 0.0, node_rss_growth = 0.0;
    for (std::size_t i = 0; i < args.node_pids.size(); ++i) {
        const double used = static_cast<double>(pid_cpu_ns(args.node_pids[i]) - cpu_start[i]) * 1e-9;
        node_cpu_s += used;
        node_util_max = std::max(node_util_max, used / wall_s);
        node_rss_peak = std::max(node_rss_peak, peak_rss_mb(args.node_pids[i]));
        node_rss_growth = std::max(node_rss_growth, current_rss_mb(args.node_pids[i]) - rss_ready[i]);
    }

    const std::uint32_t check_span = sp ? sp->open("check") : 0;
    for (const auto& list : reqs) {
        for (const Req& r : list) {
            if (r.step < 0) continue;
            StepOut& step = steps[static_cast<std::size_t>(r.step)];
            if (r.done_ns >= step.window_from && r.done_ns < step.window_to) ++step.done_in_window;
            if (r.due_ns < step.window_from) continue;
            ++step.due;
            std::int64_t latency_ns = r.done_ns - r.due_ns;
            if (r.done_ns < 0) {
                ++step.failed;
                latency_ns = drain_end - r.due_ns;
            }
            step.latency_ms.push_back(static_cast<double>(latency_ns) * 1e-6);
        }
    }
    std::uint64_t sent = 0, retransmits = 0;
    for (const auto& c : clients) {
        sent += c->sent();
        retransmits += c->retransmissions();
    }
    if (completed > sent) report.fail_check("more requests completed than sent");

    double done_in_windows = 0.0, windows_s = 0.0, max_rate = 0.0;
    for (StepOut& step : steps) {
        std::sort(step.latency_ms.begin(), step.latency_ms.end());
        report.attempted += step.due;
        report.failed += step.failed;
        done_in_windows += static_cast<double>(step.done_in_window);
        windows_s += step.window_s();
        if (step.meets_limit() && (max_rate == 0.0 || step.rate > max_rate)) max_rate = step.rate;
        char line[200];
        std::snprintf(line, sizeof(line),
                      "step %.0f req/s: due %llu, failed %llu, goodput %.0f req/s, p50 %.2f ms, "
                      "p99 %.2f ms, backlog %llu -> %llu",
                      step.rate, static_cast<unsigned long long>(step.due),
                      static_cast<unsigned long long>(step.failed),
                      static_cast<double>(step.done_in_window) / step.window_s(), step.p(0.5),
                      step.p(0.99), static_cast<unsigned long long>(step.outstanding_mid),
                      static_cast<unsigned long long>(step.outstanding_end));
        report.notes.emplace_back(line);
    }
    const StepOut* latency_step = &steps[kLatencyStep];
    const double step_completions = static_cast<double>(completed - completed_start);
    const double kreq = std::max(step_completions, 1.0) / 1000.0;

    report.set("goodput_kreq_s", done_in_windows / windows_s / 1000.0, "kreq/s",
               static_cast<std::uint64_t>(done_in_windows));
    report.set("latency_p50_ms", latency_step->p(0.50), "ms", latency_step->latency_ms.size());
    report.set("latency_p99_ms", latency_step->p(0.99), "ms", latency_step->latency_ms.size());
    report.set("served_frac",
               report.attempted ? 1.0 - static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted)
                                : 0.0,
               "fraction", report.attempted);
    report.set("sim_speed_req_per_s", step_completions / wall_s, "req/s",
               static_cast<std::uint64_t>(step_completions));
    report.set("peak_rss_mb", node_rss_peak, "MiB", args.node_pids.size());
    report.set("node_cpu_ms_per_kreq", node_cpu_s * 1000.0 / kreq, "ms/kreq",
               static_cast<std::uint64_t>(step_completions));
    report.set("bench.max_rate_kreq_s", max_rate / 1000.0, "kreq/s", steps.size());

    std::sort(lag_ms.begin(), lag_ms.end());
    const runtime::TransportStats& ts = transport.stats();
    const runtime::FabricStats& fs = fabric.stats();
    const double events = static_cast<double>(simulator.dispatched_total() - events_start);
    report.set("driver.cpu_ms_per_kreq", driver_cpu_s * 1000.0 / kreq, "ms/kreq");
    report.set("runtime.poll_wait_frac", static_cast<double>(poll_ns) * 1e-9 / wall_s, "fraction");
    report.set("runtime.node_cpu_util_max", node_util_max, "fraction");
    report.set("runtime.no_route_dropped", static_cast<double>(fs.no_route_dropped), "count");
    report.set("runtime.decode_rejected", static_cast<double>(fs.decode_rejected), "count");
    report.set("net.msgs_per_req",
               static_cast<double>(ts.frames_sent + ts.frames_received) / (kreq * 1000.0), "count");
    report.set("net.bytes_per_req",
               static_cast<double>(ts.bytes_sent + ts.bytes_received) / (kreq * 1000.0), "B");
    report.set("net.dropped_closed_nic", static_cast<double>(fs.nic_closed_dropped), "count");
    report.set("client.retransmits_per_req",
               static_cast<double>(retransmits) / static_cast<double>(std::max<std::uint64_t>(sent, 1)),
               "count");
    report.set("client.build_us",
               static_cast<double>(build_ns) * 1e-3 /
                   static_cast<double>(std::max<std::uint64_t>(sent - kClients, 1)),
               "us");
    report.set("bench.gen_lag_p99_ms", quantile_sorted(lag_ms, 0.99), "ms", lag_ms.size());
    report.set("rbft.rss_mb_per_kreq", node_rss_growth / kreq, "MiB/kreq");
    const crypto::CryptoStats& cs = keys.stats();
    report.set("crypto.macs_per_req", static_cast<double>(cs.macs_computed) / static_cast<double>(sent), "count");
    report.set("crypto.digests_per_req", static_cast<double>(cs.digests_computed) / static_cast<double>(sent), "count");
    report.set("crypto.sigs_per_req", static_cast<double>(cs.sigs_computed) / static_cast<double>(sent), "count");
    report.set("sim.events_per_req", events / (kreq * 1000.0), "count");
    report.set("sim.queue_high_water", static_cast<double>(simulator.queue_high_water()), "count");
    report.set("driver.completed", static_cast<double>(completed), "count");
    if (sp) sp->close(check_span);

    if (args.trace) {
        const UnitCosts u = time_units(simulator.queue_high_water(), 8, sp);
        report.set("crypto.hmac_ns", u.hmac_ns, "ns");
        report.set("crypto.sha256_ns_per_kib", u.sha256_4k_ns / 4.0, "ns");
        report.set("sim.dispatch_unit_ns", u.dispatch_ns, "ns");
        report.set("net.request_codec_ns", u.request_codec_ns, "ns");
        report.set("runtime.fabric_hop_ns", u.fabric_hop_ns, "ns");
        // Client-side crypto of the driver process, from its keystore tally.
        const double crypto_ns = static_cast<double>(cs.macs_computed + cs.sigs_computed) * u.hmac_ns +
                                 static_cast<double>(cs.digests_computed) * u.sha256_ns(24) +
                                 static_cast<double>(cs.keys_derived + cs.key_cache_hits) * u.pairwise_key_ns;
        report.set("crypto.est_busy_share", crypto_ns / (wall_s * 1e9), "fraction");
        report.set("sim.est_busy_share", events * u.dispatch_ns / (wall_s * 1e9), "fraction");
        report.set("bench.attributed_share",
                   (static_cast<double>(poll_ns + build_ns) + events * u.dispatch_ns) / (wall_s * 1e9),
                   "fraction");
        if (!args.spans_path.empty() && !spans.write(args.spans_path)) {
            report.notes.push_back("could not write spans to " + args.spans_path);
        }
    }
    report.print();
    return report.correct ? 0 : 1;
}

}  // namespace perfbench
