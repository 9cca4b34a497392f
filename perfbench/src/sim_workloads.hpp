// Simulated workloads of the benchmark (see sim_workloads.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

[[nodiscard]] bool is_sim_workload(const std::string& name);

/// Runs one simulated workload and prints its report; returns the exit
/// code.  With `trace`, spans go to `spans_path` and the traced run's
/// recorder exports (metrics, trace, profile) to `obs_dir`.
int run_sim_workload(const std::string& name, std::uint64_t seed, double seconds, bool trace,
                     const std::string& spans_path, const std::string& obs_dir);

}  // namespace perfbench
