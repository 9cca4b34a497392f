// Shared scaffolding for the paper-reproduction benches.
//
// A bench is a list of *points*; each point owns the RunSpecs (deterministic
// simulations) it needs and a fold that turns their outputs into summary
// rows and google-benchmark counters.  The harness executes every spec of
// every point on the exp::parallel worker pool (`--jobs N`, default
// hardware concurrency — a point is one deterministic simulation, not a
// timing sample, so parallel execution changes wall-clock only), then
// registers one google-benchmark entry per point (Iterations(1)) to report
// the counters, prints the paper-style table, and writes a machine-readable
// BENCH_<name>.json artifact ($RBFT_BENCH_DIR or the working directory).
// `--backend merged` re-runs every RBFT scenario of the bench under that
// execution backend (suffixing the artifact name), so each paper figure can
// be re-swept per backend without a dedicated binary.
//
// All collected state lives in the Harness instance — there is no
// header-global storage, so nothing here is shared across concurrent runs.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bft/execution.hpp"
#include "exp/parallel.hpp"
#include "exp/runners.hpp"
#include "obs/prof.hpp"

namespace rbft::bench {

/// One collected row for the summary printed after the benchmarks run.
struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> values;
};

/// Per-zone wall-clock time of a profiled point (schema v2 "wall" block).
struct WallZone {
    std::string path;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
};

/// What a point's fold produced from its runs.
struct PointOutcome {
    std::vector<Row> rows;
    /// Reported as google-benchmark counters and in the JSON artifact.
    std::vector<std::pair<std::string, double>> counters;
    /// Free-form lines printed after the summary (e.g. Fig. 12's series).
    std::vector<std::string> notes;

    // -- Optional profiling blocks (schema v2; omitted from the artifact
    //    when empty, so unprofiled benches keep their v1-shaped points). ----

    /// Deterministic profile: profiler counters and per-zone call counts,
    /// both aggregated over node/instance scopes.  Pure functions of the
    /// run seeds — byte-identical across identical-seed artifact writes.
    std::vector<std::pair<std::string, std::uint64_t>> profile_counters;
    std::vector<std::pair<std::string, std::uint64_t>> profile_zone_calls;
    /// Wall-derived rates (events_per_sec, requests_per_sec_wall, ...).
    /// Host-dependent: never byte-compared, but gated by tools/bench_diff.py.
    std::vector<std::pair<std::string, double>> perf;
    /// Per-zone wall self/total time (host-dependent, non-compared).
    std::vector<WallZone> wall_zones;

    /// Fills the profiling blocks from a run's live profiler: counters and
    /// zone calls into the deterministic block, zone times into `wall_zones`.
    void capture_profile(const obs::prof::Profiler& profiler) {
        std::map<std::string, std::uint64_t> counter_agg;
        for (const auto& [key, counter] : profiler.counters()) {
            counter_agg[key.name] += counter.value();
        }
        for (const auto& [name, value] : counter_agg) {
            profile_counters.emplace_back(name, value);
        }
        for (const auto& [path, agg] : profiler.zones_by_path()) {
            profile_zone_calls.emplace_back(path, agg.calls);
            wall_zones.push_back(WallZone{path, agg.wall_self_ns, agg.wall_total_ns});
        }
    }
};

/// One experimental point: a benchmark name, the runs it needs, and the
/// fold combining their outputs (outputs[i] corresponds to specs[i]).
struct Point {
    std::string name;
    std::vector<exp::RunSpec> specs;
    std::function<PointOutcome(const std::vector<exp::RunOutput>&)> fold;
};

class Harness {
public:
    Harness(std::string bench_name, std::string title)
        : bench_name_(std::move(bench_name)), title_(std::move(title)) {}

    void add_point(std::string name, std::vector<exp::RunSpec> specs,
                   std::function<PointOutcome(const std::vector<exp::RunOutput>&)> fold) {
        points_.push_back(Point{std::move(name), std::move(specs), std::move(fold)});
    }

    /// A top-level string field of the artifact describing the host or
    /// build (e.g. the SHA-256 kernel), printed with the run summary.  Not a
    /// result: the perf gate never compares it.
    void add_info(std::string key, std::string value) {
        info_.emplace_back(std::move(key), std::move(value));
    }

    /// Executes all points and reports.  Returns the process exit code.
    int run(int argc, char** argv) {
        // `--backend merged|master-only` re-sweeps every RBFT scenario of
        // this bench under that execution backend (registry names from
        // src/protocols; baseline-protocol specs are untouched).
        // The artifact name gains a `_<backend>` suffix so sweeps never
        // clobber the master-only baseline JSON.
        bool backend_ok = true;
        const std::optional<bft::ExecutionBackend> backend =
            parse_backend_flag(argc, argv, backend_ok);
        if (!backend_ok) return 2;
        if (backend && *backend != bft::ExecutionBackend::kMasterOnly) {
            bench_name_ += std::string("_") + bft::backend_name(*backend);
            std::printf("# --backend %s: re-sweeping RBFT scenarios\n",
                        bft::backend_name(*backend));
            for (Point& point : points_) {
                for (exp::RunSpec& spec : point.specs) {
                    if (auto* rbft = std::get_if<exp::RbftScenario>(&spec.scenario)) {
                        rbft->backend = *backend;
                    }
                }
            }
        }

        const unsigned jobs = exp::parse_jobs_flag(argc, argv, exp::default_jobs());
        const std::size_t max_points = parse_max_points(argc, argv);
        if (max_points < points_.size()) {
            std::printf("# --max-points %zu: dropping %zu of %zu points\n", max_points,
                        points_.size() - max_points, points_.size());
            points_.resize(max_points);
        }

        // Phase 1 — all simulations, flattened across points, on the pool.
        // Results land by submission index, so folds see the same inputs at
        // any job count.
        std::vector<exp::RunSpec> all;
        std::vector<std::size_t> first_spec(points_.size(), 0);
        for (std::size_t p = 0; p < points_.size(); ++p) {
            first_spec[p] = all.size();
            for (const exp::RunSpec& spec : points_[p].specs) all.push_back(spec);
        }
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<exp::RunOutput> outputs = exp::run_specs(all, jobs);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

        // Phase 2 — serial folds, in point order.
        outcomes_.resize(points_.size());
        for (std::size_t p = 0; p < points_.size(); ++p) {
            const std::vector<exp::RunOutput> slice(
                outputs.begin() + static_cast<std::ptrdiff_t>(first_spec[p]),
                outputs.begin() +
                    static_cast<std::ptrdiff_t>(first_spec[p] + points_[p].specs.size()));
            outcomes_[p] = points_[p].fold(slice);
        }

        // Phase 3 — report through google-benchmark (counters per point).
        for (std::size_t p = 0; p < points_.size(); ++p) {
            const PointOutcome* outcome = &outcomes_[p];
            benchmark::RegisterBenchmark(points_[p].name.c_str(),
                                         [outcome](benchmark::State& state) {
                                             for (auto _ : state) {
                                             }
                                             for (const auto& [name, value] : outcome->counters) {
                                                 state.counters[name] = value;
                                             }
                                         })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();

        print_summary();
        std::printf("# %zu run(s) across %zu point(s) on %u job(s): %.2f s wall\n", all.size(),
                    points_.size(), jobs, wall);
        for (const auto& [key, value] : info_) std::printf("# %s: %s\n", key.c_str(), value.c_str());
        write_artifact(jobs, outputs, first_spec);
        return 0;
    }

private:
    static std::optional<bft::ExecutionBackend> parse_backend_flag(int& argc, char** argv,
                                                                   bool& ok) {
        std::optional<bft::ExecutionBackend> backend;
        int out = 0;
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string value;
            if (arg == "--backend" && i + 1 < argc) {
                value = argv[++i];
            } else if (arg.rfind("--backend=", 0) == 0) {
                value = arg.substr(10);
            } else {
                argv[out++] = argv[i];
                continue;
            }
            backend = bft::parse_backend(value);
            if (!backend) {
                std::fprintf(stderr,
                             "bench: unknown --backend %s "
                             "(want master-only or merged)\n",
                             value.c_str());
                ok = false;
            }
        }
        argc = out;
        return backend;
    }

    static std::size_t parse_max_points(int& argc, char** argv) {
        std::size_t max_points = static_cast<std::size_t>(-1);
        int out = 0;
        for (int i = 0; i < argc; ++i) {
            const std::string arg = argv[i];
            long parsed = -1;
            if (arg == "--max-points" && i + 1 < argc) {
                parsed = std::strtol(argv[++i], nullptr, 10);
            } else if (arg.rfind("--max-points=", 0) == 0) {
                parsed = std::strtol(arg.c_str() + 13, nullptr, 10);
            } else {
                argv[out++] = argv[i];
                continue;
            }
            if (parsed >= 0) max_points = static_cast<std::size_t>(parsed);
        }
        argc = out;
        return max_points;
    }

    void print_summary() const {
        std::printf("\n==== %s ====\n", title_.c_str());
        for (const PointOutcome& outcome : outcomes_) {
            for (const Row& row : outcome.rows) {
                std::printf("%-42s", row.label.c_str());
                for (const auto& [name, value] : row.values) {
                    std::printf("  %s=%.2f", name.c_str(), value);
                }
                std::printf("\n");
            }
        }
        std::printf("\n");
        for (const PointOutcome& outcome : outcomes_) {
            for (const std::string& note : outcome.notes) std::printf("%s\n", note.c_str());
        }
    }

    static void append_escaped(std::string& out, const std::string& s) {
        out += '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        out += '"';
    }

    /// The optional v2 point blocks: ",\"profile\":{...}" (deterministic),
    /// ",\"perf\":{...}" and ",\"wall\":{...}" (host-dependent).
    static void append_profile_blocks(std::string& json, const PointOutcome& outcome) {
        if (!outcome.profile_counters.empty() || !outcome.profile_zone_calls.empty()) {
            json += ",\"profile\":{\"counters\":{";
            for (std::size_t i = 0; i < outcome.profile_counters.size(); ++i) {
                if (i) json += ',';
                append_escaped(json, outcome.profile_counters[i].first);
                json += ':' + std::to_string(outcome.profile_counters[i].second);
            }
            json += "},\"zones\":[";
            for (std::size_t i = 0; i < outcome.profile_zone_calls.size(); ++i) {
                if (i) json += ',';
                json += "{\"path\":";
                append_escaped(json, outcome.profile_zone_calls[i].first);
                json += ",\"calls\":" + std::to_string(outcome.profile_zone_calls[i].second) + "}";
            }
            json += "]}";
        }
        if (!outcome.perf.empty()) {
            json += ",\"perf\":{";
            for (std::size_t i = 0; i < outcome.perf.size(); ++i) {
                if (i) json += ',';
                append_escaped(json, outcome.perf[i].first);
                json += ':';
                append_number(json, outcome.perf[i].second);
            }
            json += "}";
        }
        if (!outcome.wall_zones.empty()) {
            json += ",\"wall\":{\"zones\":[";
            for (std::size_t i = 0; i < outcome.wall_zones.size(); ++i) {
                if (i) json += ',';
                const WallZone& z = outcome.wall_zones[i];
                json += "{\"path\":";
                append_escaped(json, z.path);
                json += ",\"self_ns\":" + std::to_string(z.self_ns);
                json += ",\"total_ns\":" + std::to_string(z.total_ns) + "}";
            }
            json += "]}";
        }
    }

    static void append_number(std::string& out, double v) {
        if (!std::isfinite(v)) {
            out += "0";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        out += buf;
    }

    /// BENCH_<name>.json, schema rbft-bench-v2 (v1 plus optional per-point
    /// "profile" / "perf" / "wall" blocks).  Every field is deterministic
    /// for a given build except wall_time_s, the perf rates, and the wall
    /// zone times.
    void write_artifact(unsigned jobs, const std::vector<exp::RunOutput>& outputs,
                        const std::vector<std::size_t>& first_spec) const {
        std::string json = "{\"schema\":\"rbft-bench-v2\",\"bench\":";
        append_escaped(json, bench_name_);
        json += ",\"title\":";
        append_escaped(json, title_);
        json += ",\"jobs\":" + std::to_string(jobs);
        for (const auto& [key, value] : info_) {
            json += ',';
            append_escaped(json, key);
            json += ':';
            append_escaped(json, value);
        }
        json += ",\"points\":[";
        for (std::size_t p = 0; p < points_.size(); ++p) {
            if (p) json += ',';
            json += "{\"name\":";
            append_escaped(json, points_[p].name);
            json += ",\"counters\":{";
            for (std::size_t c = 0; c < outcomes_[p].counters.size(); ++c) {
                if (c) json += ',';
                append_escaped(json, outcomes_[p].counters[c].first);
                json += ':';
                append_number(json, outcomes_[p].counters[c].second);
            }
            json += "},\"runs\":[";
            for (std::size_t s = 0; s < points_[p].specs.size(); ++s) {
                if (s) json += ',';
                const exp::RunSpec& spec = points_[p].specs[s];
                json += "{\"label\":";
                append_escaped(json, spec.label);
                json += ",\"seed\":" + std::to_string(spec.seed());
                json += ",\"sim_time_s\":";
                append_number(json, spec.sim_seconds());
                json += ",\"wall_time_s\":";
                append_number(json, outputs[first_spec[p] + s].wall_seconds);
                json += '}';
            }
            json += "],\"rows\":[";
            for (std::size_t r = 0; r < outcomes_[p].rows.size(); ++r) {
                if (r) json += ',';
                const Row& row = outcomes_[p].rows[r];
                json += "{\"label\":";
                append_escaped(json, row.label);
                json += ",\"values\":{";
                for (std::size_t v = 0; v < row.values.size(); ++v) {
                    if (v) json += ',';
                    append_escaped(json, row.values[v].first);
                    json += ':';
                    append_number(json, row.values[v].second);
                }
                json += "}}";
            }
            json += "]";
            append_profile_blocks(json, outcomes_[p]);
            json += "}";
        }
        json += "]}\n";

        const char* dir = std::getenv("RBFT_BENCH_DIR");
        const std::string path =
            (dir ? std::string(dir) + "/" : std::string()) + "BENCH_" + bench_name_ + ".json";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
            return;
        }
        out << json;
        std::printf("# artifact: %s\n", path.c_str());
    }

    std::string bench_name_;
    std::string title_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::vector<Point> points_;
    std::vector<PointOutcome> outcomes_;
};

inline const char* load_name(exp::LoadShape load) {
    return load == exp::LoadShape::kStatic ? "static" : "dynamic";
}

}  // namespace rbft::bench

/// Standard main: each bench defines register_points(Harness&); the harness
/// runs every spec on the worker pool, reports through google-benchmark,
/// prints the paper-style summary, and writes BENCH_<name>.json.
#define RBFT_BENCH_MAIN(name, title)                              \
    int main(int argc, char** argv) {                             \
        ::rbft::bench::Harness harness{name, title};              \
        ::rbft::bench::register_points(harness);                  \
        return harness.run(argc, argv);                           \
    }
