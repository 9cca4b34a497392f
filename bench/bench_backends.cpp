// Execution-backend comparison on the Figure 7 workload: master-only RBFT
// (the paper's protocol) vs parallel-leader merged execution, f = 1, 8 B
// requests, fault-free.
//
// Three offered loads per backend: two below the master-only knee (60% and
// 90% of calibrated capacity, where latency is the interesting number) and
// one past it (160%, where completed throughput is).  Merged execution
// shards request verification across merge_width(f) lanes and consumes all
// f+1 committed orders, so its completed rate at the over-saturated point
// must exceed master-only's — the summary point computes that ratio
// explicitly and the nightly gate tracks it via BENCH_backends.json
// (tools/bench_diff.py --metric requests_per_sec_wall, plus
// --gate "Backends/summary/merged_vs_master:merged_over_master_pct:5" to
// pin the headline ratio).
#include "bench_util.hpp"

namespace rbft::bench {
namespace {

constexpr bft::ExecutionBackend kBackends[] = {bft::ExecutionBackend::kMasterOnly,
                                               bft::ExecutionBackend::kMerged};

/// Load fractions of master-only capacity (percent); 160 over-saturates
/// the single verification lane.
constexpr int kLoadPct[] = {60, 90, 160};

exp::RbftScenario scenario_for(bft::ExecutionBackend backend, int load_pct) {
    exp::RbftScenario s;
    s.backend = backend;
    s.payload_bytes = 8;
    s.rate = load_pct / 100.0 * exp::capacity(exp::Protocol::kRbftTcp, 8) * 0.95;
    s.warmup = seconds(0.6);
    s.measure = seconds(1.4);
    return s;
}

void add_backend_point(Harness& harness, bft::ExecutionBackend backend, int load_pct) {
    exp::RunSpec spec;
    spec.label = "fault-free";
    spec.scenario = scenario_for(backend, load_pct);

    char name[80];
    std::snprintf(name, sizeof(name), "Backends/point/backend:%s/loadpct:%d",
                  bft::backend_name(backend), load_pct);
    char label[96];
    std::snprintf(label, sizeof(label), "Fig7 %-11s offered=%3d%%",
                  bft::backend_name(backend), load_pct);
    harness.add_point(name, {spec},
                      [label = std::string(label)](const std::vector<exp::RunOutput>& outs) {
                          const exp::RunResult& result = outs[0].scenario.result;
                          PointOutcome outcome;
                          outcome.counters = {{"kreq_s", result.kreq_s},
                                              {"mean_ms", result.mean_latency_ms},
                                              {"p99_ms", result.p99_ms}};
                          outcome.rows = {{label,
                                           {{"kreq_s", result.kreq_s},
                                            {"mean_ms", result.mean_latency_ms},
                                            {"p99_ms", result.p99_ms}}}};
                          // Wall-derived rate for the bench_diff.py gate.
                          if (outs[0].wall_seconds > 0.0) {
                              outcome.perf = {{"requests_per_sec_wall",
                                               static_cast<double>(result.completed) /
                                                   outs[0].wall_seconds}};
                          }
                          return outcome;
                      });
}

/// The acceptance headline: merged vs master-only completed throughput past
/// the master-only knee, as one point so the artifact carries the ratio.
void add_summary_point(Harness& harness) {
    exp::RunSpec master;
    master.label = "master-only oversaturated";
    master.scenario = scenario_for(bft::ExecutionBackend::kMasterOnly, 160);
    exp::RunSpec merged;
    merged.label = "merged oversaturated";
    merged.scenario = scenario_for(bft::ExecutionBackend::kMerged, 160);

    harness.add_point(
        "Backends/summary/merged_vs_master", {master, merged},
        [](const std::vector<exp::RunOutput>& outs) {
            const exp::RunResult& master_result = outs[0].scenario.result;
            const exp::RunResult& merged_result = outs[1].scenario.result;
            const double pct = master_result.kreq_s > 0.0
                                   ? 100.0 * merged_result.kreq_s / master_result.kreq_s
                                   : 0.0;
            PointOutcome outcome;
            outcome.counters = {{"master_kreq_s", master_result.kreq_s},
                                {"merged_kreq_s", merged_result.kreq_s},
                                {"merged_over_master_pct", pct}};
            outcome.rows = {{"Fig7 merged vs master-only @160%",
                             {{"master_kreq_s", master_result.kreq_s},
                              {"merged_kreq_s", merged_result.kreq_s},
                              {"merged_over_master_pct", pct}}}};
            // Deterministic ratio doubles as a perf gate: a merged-path
            // regression that erodes the parallel-leader win trips it even
            // when wall rates drift with the host.
            outcome.perf = {{"merged_over_master_pct", pct}};
            char note[128];
            std::snprintf(note, sizeof(note),
                          "# merged/master-only completed throughput at 160%% load: %.1f%%", pct);
            outcome.notes = {note};
            return outcome;
        });
}

void register_points(Harness& harness) {
    for (bft::ExecutionBackend backend : kBackends) {
        for (int load_pct : kLoadPct) add_backend_point(harness, backend, load_pct);
    }
    add_summary_point(harness);
}

}  // namespace
}  // namespace rbft::bench

RBFT_BENCH_MAIN("backends", "Execution backends on the Fig. 7 workload, fault-free, f=1")
