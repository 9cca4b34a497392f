#include "sim/eventqueue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace rbft::sim {

WheelQueue::WheelQueue() {
    l0_.fill(kNil);
    l1_.fill(kNil);
    nodes_.reserve(256);
}

std::uint32_t WheelQueue::alloc_node() {
    if (free_head_ != kNil) {
        const std::uint32_t idx = free_head_;
        free_head_ = nodes_[idx].next;
        return idx;
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void WheelQueue::free_node(std::uint32_t idx) {
    Node& n = nodes_[idx];
    n.action.reset();
    n.cancelled = false;
    n.loc = kLocFree;
    if (++n.gen == 0) n.gen = 1;  // ids embed gen; 0 stays the invalid id
    n.next = free_head_;
    free_head_ = idx;
}

void WheelQueue::place(std::uint32_t idx) {
    Node& n = nodes_[idx];
    const std::uint64_t a0 = static_cast<std::uint64_t>(n.at.ns) >> kG0Bits;
    const std::uint64_t c0 = static_cast<std::uint64_t>(cursor_) >> kG0Bits;
    if (a0 - c0 < kSlots) {
        const unsigned slot = static_cast<unsigned>(a0) & (kSlots - 1);
        n.next = l0_[slot];
        l0_[slot] = idx;
        n.loc = static_cast<std::uint16_t>(slot);
        l0_bits_[slot >> 6] |= 1ull << (slot & 63);
        return;
    }
    const std::uint64_t a1 = a0 >> kSlotBits;
    const std::uint64_t c1 = c0 >> kSlotBits;
    if (a1 - c1 < kSlots) {
        const unsigned slot = static_cast<unsigned>(a1) & (kSlots - 1);
        n.next = l1_[slot];
        l1_[slot] = idx;
        n.loc = static_cast<std::uint16_t>((1u << kSlotBits) | slot);
        l1_bits_[slot >> 6] |= 1ull << (slot & 63);
        return;
    }
    n.loc = kLocOverflow;
    n.next = kNil;
    overflow_.push_back(OverflowEntry{n.at, n.seq, idx});
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
}

void WheelQueue::unlink(std::uint32_t idx) {
    const Node& n = nodes_[idx];
    const unsigned level = n.loc >> kSlotBits;
    const unsigned slot = n.loc & (kSlots - 1);
    auto& heads = (level == 0) ? l0_ : l1_;
    auto& bits = (level == 0) ? l0_bits_ : l1_bits_;
    std::uint32_t* link = &heads[slot];
    while (*link != idx) link = &nodes_[*link].next;
    *link = n.next;
    if (heads[slot] == kNil) bits[slot >> 6] &= ~(1ull << (slot & 63));
}

void WheelQueue::drop_dead_overflow_heads() {
    while (!overflow_.empty() && nodes_[overflow_.front().node].cancelled) {
        const std::uint32_t idx = overflow_.front().node;
        std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
        overflow_.pop_back();
        free_node(idx);
    }
}

void WheelQueue::cascade(unsigned slot) {
    std::uint32_t head = l1_[slot];
    l1_[slot] = kNil;
    l1_bits_[slot >> 6] &= ~(1ull << (slot & 63));
    while (head != kNil) {
        const std::uint32_t next = nodes_[head].next;
        place(head);
        head = next;
    }
}

std::uint32_t WheelQueue::slot_min(unsigned level, unsigned slot) {
    const auto& heads = (level == 0) ? l0_ : l1_;
    std::uint32_t best = kNil;
    for (std::uint32_t i = heads[slot]; i != kNil; i = nodes_[i].next) {
        ++scan_visits_;
        if (best == kNil) {
            best = i;
            continue;
        }
        const Node& a = nodes_[i];
        const Node& b = nodes_[best];
        if (a.at < b.at || (a.at == b.at && a.seq < b.seq)) best = i;
    }
    return best;
}

int WheelQueue::first_occupied(const Bitmap& bits, unsigned start) noexcept {
    const unsigned w = start >> 6;
    const unsigned b = start & 63;
    const std::uint64_t head = bits[w] & (~0ull << b);
    if (head != 0) return static_cast<int>((w << 6) + std::countr_zero(head));
    for (unsigned k = 1; k <= bits.size(); ++k) {
        const unsigned i = (w + k) & (static_cast<unsigned>(bits.size()) - 1);
        std::uint64_t word = bits[i];
        if (k == bits.size()) word &= (b == 0) ? 0 : ((1ull << b) - 1);
        if (word != 0) return static_cast<int>((i << 6) + std::countr_zero(word));
    }
    return -1;
}

std::uint32_t WheelQueue::find_min(unsigned& level_out) {
    std::uint32_t best = kNil;
    unsigned best_level = 0;
    const unsigned c0 = (static_cast<std::uint64_t>(cursor_) >> kG0Bits) & (kSlots - 1);
    if (const int s = first_occupied(l0_bits_, c0); s >= 0) {
        best = slot_min(0, static_cast<unsigned>(s));
        best_level = 0;
    }
    const std::uint64_t b1 = static_cast<std::uint64_t>(cursor_) >> kG1Bits;
    const unsigned c1 = static_cast<unsigned>(b1) & (kSlots - 1);
    if (const int s = first_occupied(l1_bits_, c1); s >= 0) {
        // Every event in outer slot s lies in bucket b1 + dist, so that
        // bucket's start bounds them all from below: an inner minimum
        // strictly before it wins without scanning.  A tie at the bound
        // still scans, for the seq tie-break.
        const std::uint64_t dist = (static_cast<unsigned>(s) - c1) & (kSlots - 1);
        const auto lower = static_cast<std::int64_t>((b1 + dist) << kG1Bits);
        if (best == kNil || nodes_[best].at.ns >= lower) {
            const std::uint32_t m = slot_min(1, static_cast<unsigned>(s));
            if (best == kNil || nodes_[m].at < nodes_[best].at ||
                (nodes_[m].at == nodes_[best].at && nodes_[m].seq < nodes_[best].seq)) {
                best = m;
                best_level = 1;
            }
        }
    }
    drop_dead_overflow_heads();
    if (!overflow_.empty()) {
        const OverflowEntry& top = overflow_.front();
        if (best == kNil || top.at < nodes_[best].at ||
            (top.at == nodes_[best].at && top.seq < nodes_[best].seq)) {
            best = top.node;
            best_level = 2;
        }
    }
    level_out = best_level;
    return best;
}

std::uint64_t WheelQueue::schedule(TimePoint at, std::uint64_t seq, Action action) {
    if (at.ns < cursor_) at.ns = cursor_;  // defensive; the Simulator clamps to now >= cursor
    const std::uint32_t idx = alloc_node();
    Node& n = nodes_[idx];
    n.at = at;
    n.seq = seq;
    n.action = std::move(action);
    n.cancelled = false;
    place(idx);
    ++live_;
    return (static_cast<std::uint64_t>(idx) << 32) | n.gen;
}

bool WheelQueue::cancel(std::uint64_t id) {
    const std::uint32_t idx = static_cast<std::uint32_t>(id >> 32);
    const std::uint32_t gen = static_cast<std::uint32_t>(id);
    if (gen == 0 || idx >= nodes_.size()) return false;
    Node& n = nodes_[idx];
    if (n.gen != gen || n.loc == kLocFree || n.cancelled) return false;
    if (n.loc == kLocOverflow) {
        n.cancelled = true;   // its heap entry is dropped lazily
        n.action.reset();     // but captures are released now, like the unlink path
    } else {
        unlink(idx);
        free_node(idx);
    }
    --live_;
    return true;
}

bool WheelQueue::pop_due(TimePoint limit, TimePoint& at_out, Action& action_out) {
    if (live_ == 0) return false;
    unsigned level = 0;
    const std::uint32_t idx = find_min(level);
    if (idx == kNil) return false;
    Node& n = nodes_[idx];
    if (n.at > limit) return false;
    // Committed to dispatch at n.at: the cursor may advance (n is the
    // global minimum, so every live event stays at or after it).  On
    // entering a new outer bucket, cascade its slot: all of it lands on
    // level 0, an outer-wheel n included.  Buckets skipped on the way
    // hold nothing, since n is the global minimum.
    const std::uint64_t from1 = static_cast<std::uint64_t>(cursor_) >> kG1Bits;
    cursor_ = n.at.ns;
    const std::uint64_t to1 = static_cast<std::uint64_t>(cursor_) >> kG1Bits;
    if (to1 != from1) cascade(static_cast<unsigned>(to1) & (kSlots - 1));
    if (level == 2) {
        std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
        overflow_.pop_back();
    } else {
        unlink(idx);
    }
    at_out = n.at;
    action_out = std::move(n.action);
    free_node(idx);
    --live_;
    return true;
}

std::optional<TimePoint> WheelQueue::next_event_time() {
    if (live_ == 0) return std::nullopt;
    unsigned level = 0;
    const std::uint32_t idx = find_min(level);
    if (idx == kNil) return std::nullopt;
    return nodes_[idx].at;
}

}  // namespace rbft::sim
