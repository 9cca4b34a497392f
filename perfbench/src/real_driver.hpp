// Client driver of the real_loopback workload (see real_driver.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct RealDriverArgs {
    std::string config;              // cluster spec shared with the nodes
    std::uint64_t seed = 1;          // arrival schedule seed
    std::uint32_t client_base = 0;   // first client id
    double seconds = 10.0;           // the run's length; the rate steps share it
    std::vector<int> node_pids;      // for /proc CPU and memory readings
    bool gate_only = false;          // stop after the readiness gate
    bool trace = false;
    std::string spans_path;
};

/// Runs the driver; prints "ready" after the gate and, in full mode, the
/// report line.  Returns the exit code.
int run_real_driver(const RealDriverArgs& args);

}  // namespace perfbench
