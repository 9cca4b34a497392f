// The ordering→execution seam: a pluggable policy deciding which committed
// per-instance orders reach the Execution module, decoupled from the
// per-instance three-phase ordering itself.
//
// RBFT as published executes only the master instance's committed batches —
// the f+1 redundant orderings exist purely so the monitoring layer can
// police the master.  Post-2013 work shows the same architecture supports
// richer execution disciplines, e.g. RCC-style parallel leaders (execute a
// deterministic merge of *all* instances' committed orders).  The
// ExecutionPolicy interface captures exactly the decision points those
// variants differ on; the hosting node keeps all mechanism (CPU accounting,
// reply caching, monitoring inputs) and exposes it through ExecutionSink.
//
// Layering: this header sits in src/bft next to the engine because the
// policy hooks are called from the node's EngineHost callbacks; concrete
// non-paper backends (merged) live in src/protocols/execution and are
// injected via ExecutionPolicyFactory, so src/rbft never depends on
// src/protocols.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bft/messages.hpp"
#include "common/types.hpp"

namespace rbft::bft {

/// Selector for the ordering→execution backend (registry + --backend flag).
enum class ExecutionBackend : std::uint32_t {
    kMasterOnly = 0,  // the paper's RBFT: execute master-instance commits
    kMerged = 1,      // parallel-leader: merge all f+1 committed orders
};

[[nodiscard]] constexpr const char* backend_name(ExecutionBackend b) noexcept {
    switch (b) {
        case ExecutionBackend::kMasterOnly: return "master-only";
        case ExecutionBackend::kMerged: return "merged";
    }
    return "?";
}

[[nodiscard]] inline std::optional<ExecutionBackend> parse_backend(std::string_view name) {
    if (name == "master-only" || name == "rbft") return ExecutionBackend::kMasterOnly;
    if (name == "merged") return ExecutionBackend::kMerged;
    return std::nullopt;
}

/// FNV-1a over the request identities of a batch: the content fingerprint
/// used by the commit safety log and the agreement oracle (one formula,
/// defined once).
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;
inline constexpr std::uint64_t kFingerprintPrime = 1099511628211ULL;

[[nodiscard]] inline std::uint64_t fingerprint_refs(const std::vector<RequestRef>& refs) {
    std::uint64_t h = kFingerprintSeed;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= kFingerprintPrime;
    };
    for (const auto& ref : refs) {
        mix(raw(ref.client));
        mix(raw(ref.rid));
    }
    return h;
}

/// Node-side services an ExecutionPolicy drives.  The node owns all
/// mechanism: sink_execute charges the Execution core, dedupes re-executions
/// and replies to the client; sink_log_commit appends to the cross-node
/// safety log.
class ExecutionSink {
public:
    virtual ~ExecutionSink() = default;

    /// Executes one request (idempotent: already-executed keys are dropped).
    virtual void sink_execute(const RequestRef& ref) = 0;

    /// Appends (seq, fingerprint) to the node's commit safety log.
    virtual void sink_log_commit(std::uint64_t seq, std::uint64_t fingerprint) = 0;

    [[nodiscard]] virtual InstanceId sink_master_instance() const = 0;
};

/// Strategy for turning per-instance ordering events into execution.  The
/// node calls the hooks in a fixed pattern for every committed batch:
///
///   on_batch_committed(batch)            once, before any per-request work
///   on_ref_committed(batch, ref)         once per request, after latency
///                                        bookkeeping for that request
///   after_batch(batch)                   once, after the request loop
///
/// One policy instance serves one node and is recreated on restart (its
/// state is volatile, like the rest of the node).
class ExecutionPolicy {
public:
    virtual ~ExecutionPolicy() = default;

    [[nodiscard]] virtual const char* name() const noexcept = 0;

    virtual void on_batch_committed(const OrderedBatch& batch, ExecutionSink& sink) = 0;
    virtual void on_ref_committed(const OrderedBatch& batch, const RequestRef& ref,
                                  ExecutionSink& sink) = 0;
    virtual void after_batch(const OrderedBatch& batch, ExecutionSink& sink) {
        (void)batch;
        (void)sink;
    }
};

/// The paper's behavior: master-instance batches go to execution, everything
/// else only feeds monitoring.  This is the default policy and is
/// byte-identical to the pre-seam RBFT node (its check_explore output and
/// deterministic bench sections were diffed across the seam).
class MasterOnlyExecution final : public ExecutionPolicy {
public:
    [[nodiscard]] const char* name() const noexcept override { return "master-only"; }

    void on_batch_committed(const OrderedBatch& batch, ExecutionSink& sink) override {
        if (batch.instance == sink.sink_master_instance()) {
            sink.sink_log_commit(raw(batch.seq), fingerprint_refs(batch.requests));
        }
    }

    void on_ref_committed(const OrderedBatch& batch, const RequestRef& ref,
                          ExecutionSink& sink) override {
        if (batch.instance == sink.sink_master_instance()) sink.sink_execute(ref);
    }
};

/// Builds the per-node policy; receives the node's f and its instance count
/// (which the ablation benches override away from f+1).  A null factory
/// means MasterOnlyExecution.
using ExecutionPolicyFactory =
    std::function<std::unique_ptr<ExecutionPolicy>(std::uint32_t f, std::uint32_t instances)>;

}  // namespace rbft::bft
