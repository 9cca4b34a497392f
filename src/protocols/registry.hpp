// Single protocol/backend registry: the one list of runnable contenders
// shared by the experiment runners, the chaos soak, differential
// conformance and the bench `--backend` flag.  Before this existed every
// driver hard-coded its own protocol list; adding a backend meant touching
// all of them.
//
// Two orthogonal axes are registered:
//  - the protocol family (RBFT vs the Aardvark / Spinning / Prime
//    baselines), and
//  - for the RBFT family, the ordering→execution backend
//    (master-only / merged, src/protocols/execution).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "bft/execution.hpp"
#include "rbft/cluster.hpp"

namespace rbft::protocols {

enum class Family : std::uint32_t { kRbft = 0, kAardvark = 1, kSpinning = 2, kPrime = 3 };

struct ProtocolEntry {
    const char* name;  // registry key, also the CLI spelling
    Family family;
    /// Meaningful for the RBFT family only (baselines have a fixed path).
    bft::ExecutionBackend backend = bft::ExecutionBackend::kMasterOnly;

    [[nodiscard]] bool rbft_family() const noexcept { return family == Family::kRbft; }
};

/// Every runnable contender, in canonical order (RBFT backends first, then
/// the baselines).
[[nodiscard]] const std::vector<ProtocolEntry>& protocol_registry();

[[nodiscard]] std::optional<ProtocolEntry> find_protocol(std::string_view name);

/// Factory for the given backend's per-node ExecutionPolicy.  Null factory
/// for kMasterOnly: NodeConfig treats null as the paper's policy, keeping
/// the default path byte-identical to the seed.
[[nodiscard]] bft::ExecutionPolicyFactory make_execution_policy(bft::ExecutionBackend backend);

/// Applies a backend to a cluster config: installs the policy factory and,
/// for merged mode, widens the client-facing pipeline to merge_width(f) so
/// the extra execution capacity is actually reachable.
void apply_backend(core::ClusterConfig& config, bft::ExecutionBackend backend);

}  // namespace rbft::protocols
