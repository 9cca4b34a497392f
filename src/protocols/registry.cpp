#include "protocols/registry.hpp"

#include "protocols/execution/merged.hpp"

namespace rbft::protocols {

const std::vector<ProtocolEntry>& protocol_registry() {
    static const std::vector<ProtocolEntry> kRegistry = {
        {"rbft", Family::kRbft, bft::ExecutionBackend::kMasterOnly},
        {"rbft-merged", Family::kRbft, bft::ExecutionBackend::kMerged},
        {"aardvark", Family::kAardvark},
        {"spinning", Family::kSpinning},
        {"prime", Family::kPrime},
    };
    return kRegistry;
}

std::optional<ProtocolEntry> find_protocol(std::string_view name) {
    for (const auto& entry : protocol_registry()) {
        if (name == entry.name) return entry;
    }
    return std::nullopt;
}

bft::ExecutionPolicyFactory make_execution_policy(bft::ExecutionBackend backend) {
    switch (backend) {
        case bft::ExecutionBackend::kMasterOnly:
            return nullptr;  // null = MasterOnlyExecution, the seed-identical path
        case bft::ExecutionBackend::kMerged:
            return [](std::uint32_t f, std::uint32_t instances) {
                return std::make_unique<MergedExecution>(f, instances);
            };
    }
    return nullptr;
}

void apply_backend(core::ClusterConfig& config, bft::ExecutionBackend backend) {
    config.execution_policy = make_execution_policy(backend);
    config.pipeline_lanes =
        backend == bft::ExecutionBackend::kMerged ? merge_width(config.f) : 1;
}

}  // namespace rbft::protocols
