// perfbench: the benchmark's driver program.  run.py builds and runs it;
// see README.md.
//
//   perfbench sim --workload sim_knee --seed 1 --seconds 10 --trace 0
//                 [--spans FILE] [--obs-dir DIR]
//   perfbench real --config cluster.json --seed 1 --seconds 10 --pids 11,12,13,14
//                  [--client-base 0] [--gate-only] [--trace 0|1] [--spans FILE]
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "real_driver.hpp"
#include "sim_workloads.hpp"

namespace {

std::vector<int> split_pids(const std::string& text) {
    std::vector<int> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(std::atoi(item.c_str()));
    }
    return out;
}

int usage() {
    std::fprintf(stderr, "usage: perfbench sim|real [options] (see main.cpp)\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    std::string workload, spans, obs_dir;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    perfbench::RealDriverArgs real;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--gate-only") {
            real.gate_only = true;
            continue;
        }
        if (i + 1 >= argc) return usage();
        const std::string value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            trace = value != "0";
        } else if (arg == "--spans") {
            spans = value;
        } else if (arg == "--obs-dir") {
            obs_dir = value;
        } else if (arg == "--config") {
            real.config = value;
        } else if (arg == "--pids") {
            real.node_pids = split_pids(value);
        } else if (arg == "--client-base") {
            real.client_base = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return usage();
        }
    }
    if (command == "sim") {
        if (!perfbench::is_sim_workload(workload)) {
            std::fprintf(stderr, "unknown simulated workload: %s\n", workload.c_str());
            return 2;
        }
        return perfbench::run_sim_workload(workload, seed, seconds, trace, spans, obs_dir);
    }
    if (command == "real") {
        if (real.config.empty()) return usage();
        real.seed = seed;
        real.seconds = seconds;
        real.trace = trace;
        real.spans_path = spans;
        return perfbench::run_real_driver(real);
    }
    return usage();
}
