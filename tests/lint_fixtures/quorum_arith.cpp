// Fixture: quorum-arith — hand-spelled quorum thresholds.  Expected
// findings: exactly 6 (3*f+1, 2*f+1 twice, 2*f, f+1 twice); the
// named-helper calls and the non-f arithmetic are clean.  The f+1 shape
// names every helper that spells that arithmetic (propagate quorum /
// instance count / merge width) — the lint cannot tell intent apart, the
// fix-up human can.
#include <cstdint>

std::uint32_t cluster_size(std::uint32_t f);
std::uint32_t commit_quorum(std::uint32_t f);
std::uint32_t merge_width(std::uint32_t f);

struct QuorumState {
    std::uint32_t f = 1;

    std::uint32_t n_bad() const { return 3 * f + 1; }          // FLAG
    std::uint32_t commit_bad() const { return 2 * f + 1; }     // FLAG
    std::uint32_t prepare_bad() const { return 2 * f; }        // FLAG
    std::uint32_t instances_bad() const { return f + 1; }      // FLAG
    std::uint32_t commit_bad2() const { return f * 2 + 1; }    // FLAG
    std::uint32_t merge_bad() const { return f + 1; }          // FLAG

    std::uint32_t n_good() const { return cluster_size(f); }
    std::uint32_t commit_good() const { return commit_quorum(f); }
    std::uint32_t merge_good() const { return merge_width(f); }
    std::uint32_t unrelated(std::uint32_t g) const { return 2 * g + 1; }  // not f
    std::uint32_t offset(std::uint32_t frames) const { return frames + 1; }  // not f
};
