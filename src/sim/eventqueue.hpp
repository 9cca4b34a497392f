// Event queue for the deterministic simulator: a two-level hierarchical
// timing wheel (1.024 µs × 512-slot inner wheel, 524 µs × 512-slot outer
// wheel, min-heap overflow for timers beyond ~268 ms) with O(1)
// schedule/cancel.
//
// Events dispatch strictly in (time, seq) order where `seq` is the
// caller's monotonically increasing insertion counter, so FIFO among
// same-time events is preserved.  live() is the number of events scheduled
// but neither fired nor cancelled, computed eagerly so the sim.queue_depth
// gauge never depends on when cancelled entries are reclaimed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/smallfn.hpp"
#include "common/time.hpp"

namespace rbft::sim {

/// Scheduled closure.  SmallFunc's 64-byte inline buffer fits every
/// protocol/network lambda in the tree, so scheduling does not allocate.
using Action = common::SmallFunc<64>;

/// Two-level timing wheel with a heap fallback for far-future timers.
///
/// Level 0 buckets 2^10 ns (≈1 µs) × 512 slots (≈524 µs window); level 1
/// buckets 2^19 ns × 512 slots (≈268 ms window); anything further sits in
/// a min-heap until the cursor approaches.  Exact (at, seq) order — finer
/// than bucket granularity — is restored by min-scanning the inner head
/// slot, which stays short because live events spread across 512 slots.
/// The outer head slot is scanned only when the inner minimum is not
/// strictly before that slot's bucket start.  With the cascade below, a
/// pop that needs the scan dispatches into a new outer bucket, so such
/// scans number about one per bucket crossing (plus peeks and pops that
/// find nothing due), and a pop's cost does not grow with the number of
/// timers the outer wheel holds.
///
/// Invariants (see DESIGN.md):
///  - cursor_ <= at for every live event (the cursor only advances to the
///    due time of the event about to be dispatched, which is the global
///    minimum, and the Simulator clamps schedules to now >= cursor_).
///  - level membership is decided against the cursor at insertion and only
///    becomes *more* local as the cursor advances, so slot indices
///    (at >> granularity) & 511 never alias two buckets within a window.
///  - every outer-wheel event lies in a bucket after the cursor's: when a
///    dispatch moves the cursor into a new outer bucket, that bucket's
///    slot cascades into the inner wheel first.  Only pop_due() moves the
///    cursor; next_event_time() never does, so peeking cannot perturb
///    wheel state.
class WheelQueue {
public:
    WheelQueue();

    /// Enqueues `action` at `at` with tie-break counter `seq` (strictly
    /// increasing across calls; the caller owns the counter).  Returns a
    /// nonzero cancellation id.
    std::uint64_t schedule(TimePoint at, std::uint64_t seq, Action action);

    /// Cancels a pending event.  Returns true iff `id` named a live
    /// (scheduled, unfired, uncancelled) event.
    bool cancel(std::uint64_t id);

    /// Extracts the earliest live event if its due time is <= `limit`.
    bool pop_due(TimePoint limit, TimePoint& at_out, Action& action_out);

    /// Due time of the earliest live event without dispatching or advancing
    /// the cursor (the wall-clock runtime polls this).
    std::optional<TimePoint> next_event_time();

    /// Number of live events (scheduled − fired − cancelled).
    [[nodiscard]] std::size_t live() const { return live_; }

    /// Nodes visited by bucket min-scans so far, both levels; a cost tally
    /// for tests, not a simulated quantity.
    [[nodiscard]] std::uint64_t scan_visits() const { return scan_visits_; }

private:
    static constexpr unsigned kSlotBits = 9;                  // 512 slots per level
    static constexpr unsigned kSlots = 1u << kSlotBits;
    static constexpr unsigned kG0Bits = 10;                   // level-0 bucket = 1.024 us
    static constexpr unsigned kG1Bits = kG0Bits + kSlotBits;  // level-1 bucket = 524 us
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    static constexpr std::uint16_t kLocFree = 0xFFFF;
    static constexpr std::uint16_t kLocOverflow = 0xFFFE;

    struct Node {
        TimePoint at{};
        std::uint64_t seq = 0;
        Action action;
        std::uint32_t next = kNil;  // intrusive slot-list link / free-list link
        std::uint32_t gen = 1;      // bumped on free; ids embed it to defuse reuse
        std::uint16_t loc = kLocFree;  // (level << kSlotBits) | slot, or kLocFree/kLocOverflow
        bool cancelled = false;        // only meaningful while parked in the overflow heap
    };

    struct OverflowEntry {
        TimePoint at{};
        std::uint64_t seq = 0;
        std::uint32_t node = kNil;
    };
    struct OverflowLater {
        bool operator()(const OverflowEntry& a, const OverflowEntry& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    using Bitmap = std::array<std::uint64_t, kSlots / 64>;

    [[nodiscard]] std::uint32_t alloc_node();
    void free_node(std::uint32_t idx);
    void place(std::uint32_t idx);                       // link node into L0/L1/overflow
    void unlink(std::uint32_t idx);                      // remove from its L0/L1 slot list
    void drop_dead_overflow_heads();                     // pop cancelled entries off the heap
    void cascade(unsigned slot);                         // move an outer slot inward
    [[nodiscard]] std::uint32_t slot_min(unsigned level, unsigned slot);
    [[nodiscard]] static int first_occupied(const Bitmap& bits, unsigned start) noexcept;

    /// Finds the live global minimum: returns node index (kNil if empty)
    /// and the level it lives on (0, 1, or 2 = overflow).
    [[nodiscard]] std::uint32_t find_min(unsigned& level_out);

    std::vector<Node> nodes_;
    std::uint32_t free_head_ = kNil;
    std::array<std::uint32_t, kSlots> l0_{};
    std::array<std::uint32_t, kSlots> l1_{};
    Bitmap l0_bits_{};
    Bitmap l1_bits_{};
    std::vector<OverflowEntry> overflow_;  // min-heap under OverflowLater
    std::int64_t cursor_ = 0;              // ns; processed-up-to watermark
    std::size_t live_ = 0;
    std::uint64_t scan_visits_ = 0;
};

}  // namespace rbft::sim
