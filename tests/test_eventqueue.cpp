// Component tests for the timing-wheel event queue (tier 1).
//
// Randomized schedule/cancel/pop workloads are replayed against a naive
// sorted-vector oracle, and the wheel must match it event-for-event —
// including FIFO tie-break among same-time events, next_event_time()
// agreement (the real-node runtime's poll deadline), and the live-count
// bookkeeping behind sim.queue_depth.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/eventqueue.hpp"
#include "sim/simulator.hpp"

namespace rbft::sim {
namespace {

// Deterministic xorshift so the fuzz schedule is reproducible (tests must
// not consult std::random_device / host entropy).
struct Rng {
    std::uint64_t state;
    explicit Rng(std::uint64_t seed) : state(seed * 2654435761u + 1) {}
    std::uint64_t next() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// Naive reference: a sorted vector popped from the front, cancelled by
/// erasing.  Obviously correct; quadratic; test-only.
class OracleQueue {
public:
    std::uint64_t schedule(TimePoint at, std::uint64_t seq, std::uint64_t payload) {
        const std::uint64_t id = next_id_++;
        events_.push_back(Entry{at, seq, id, payload});
        std::sort(events_.begin(), events_.end(), [](const Entry& a, const Entry& b) {
            if (a.at != b.at) return a.at < b.at;
            return a.seq < b.seq;
        });
        return id;
    }
    bool cancel(std::uint64_t id) {
        for (auto it = events_.begin(); it != events_.end(); ++it) {
            if (it->id == id) {
                events_.erase(it);
                return true;
            }
        }
        return false;
    }
    std::optional<std::uint64_t> pop_due(TimePoint limit, TimePoint& at_out) {
        if (events_.empty() || events_.front().at > limit) return std::nullopt;
        const Entry e = events_.front();
        events_.erase(events_.begin());
        at_out = e.at;
        return e.payload;
    }
    [[nodiscard]] std::optional<TimePoint> next_event_time() const {
        if (events_.empty()) return std::nullopt;
        return events_.front().at;
    }
    [[nodiscard]] std::size_t live() const { return events_.size(); }

private:
    struct Entry {
        TimePoint at;
        std::uint64_t seq;
        std::uint64_t id;
        std::uint64_t payload;
    };
    std::vector<Entry> events_;
    std::uint64_t next_id_ = 1;
};

/// Due time of a fuzz schedule: mixes horizons across same-tick bursts,
/// the inner-wheel range, the outer-wheel range, and far-future overflow.
std::int64_t mixed_horizon(Rng& rng, std::int64_t clock) {
    const std::uint64_t h = rng.below(100);
    std::int64_t delta = 0;
    if (h < 25) {
        delta = static_cast<std::int64_t>(rng.below(4));  // same-bucket collisions
    } else if (h < 70) {
        delta = static_cast<std::int64_t>(rng.below(500'000));  // inner wheel
    } else if (h < 92) {
        delta = static_cast<std::int64_t>(rng.below(200'000'000));  // outer wheel
    } else {
        delta = static_cast<std::int64_t>(rng.below(4'000'000'000));  // overflow
    }
    return clock + delta;
}

/// Drives the wheel and the oracle through an identical randomized
/// workload, checking agreement at every step.  `due` picks each
/// schedule's time from the current clock.
void fuzz_against_oracle(std::uint64_t seed, int ops,
                         std::int64_t (*due)(Rng&, std::int64_t) = mixed_horizon) {
    WheelQueue queue;
    OracleQueue oracle;
    Rng rng(seed);

    std::uint64_t next_seq = 0;
    std::uint64_t next_payload = 0;
    TimePoint clock{};
    // Parallel id maps: cancelling the k-th oldest live handle must hit the
    // same event in both worlds.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> handles;  // {queue id, oracle id}

    std::vector<std::uint64_t> popped;  // payloads dispatched by `queue`

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t dice = rng.below(100);
        if (dice < 55) {
            const TimePoint at{due(rng, clock.ns)};
            const std::uint64_t seq = next_seq++;
            const std::uint64_t payload = next_payload++;
            const std::uint64_t qid =
                queue.schedule(at, seq, [payload, &popped] { popped.push_back(payload); });
            const std::uint64_t oid = oracle.schedule(at, seq, payload);
            handles.emplace_back(qid, oid);
        } else if (dice < 75) {
            // Cancel a random outstanding handle (may already have fired).
            if (!handles.empty()) {
                const std::size_t k = rng.below(handles.size());
                const bool q_hit = queue.cancel(handles[k].first);
                const bool o_hit = oracle.cancel(handles[k].second);
                EXPECT_EQ(q_hit, o_hit);
                handles.erase(handles.begin() + static_cast<std::ptrdiff_t>(k));
            }
        } else if (dice < 85) {
            // Double-cancel / stale-cancel probes must agree (always no-op
            // for made-up ids).
            EXPECT_FALSE(queue.cancel(0));
        } else {
            // Pop everything due within a random horizon.
            const TimePoint limit{clock.ns + static_cast<std::int64_t>(rng.below(2'000'000))};
            TimePoint at{};
            Action action;
            for (;;) {
                TimePoint oracle_at{};
                const auto expected = oracle.pop_due(limit, oracle_at);
                const bool got = queue.pop_due(limit, at, action);
                ASSERT_EQ(got, expected.has_value());
                if (!got) break;
                EXPECT_EQ(at.ns, oracle_at.ns);
                clock = at;
                const std::size_t before = popped.size();
                action();
                ASSERT_EQ(popped.size(), before + 1);
                EXPECT_EQ(popped.back(), *expected);
            }
            clock = limit;
        }
        ASSERT_EQ(queue.live(), oracle.live());
        const auto q_next = queue.next_event_time();
        const auto o_next = oracle.next_event_time();
        ASSERT_EQ(q_next.has_value(), o_next.has_value());
        if (q_next) {
            EXPECT_EQ(q_next->ns, o_next->ns);
        }
    }
}

TEST(EventQueue, WheelMatchesOracleAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        fuzz_against_oracle(seed, 1500);
    }
}

TEST(EventQueue, SameTimestampFifoOrder) {
    WheelQueue queue;
    std::vector<int> order;
    // Same due time, interleaved with other times, scheduled out of order.
    queue.schedule(TimePoint{500}, 0, [&] { order.push_back(0); });
    queue.schedule(TimePoint{100}, 1, [&] { order.push_back(1); });
    queue.schedule(TimePoint{500}, 2, [&] { order.push_back(2); });
    queue.schedule(TimePoint{500}, 3, [&] { order.push_back(3); });
    queue.schedule(TimePoint{100}, 4, [&] { order.push_back(4); });
    TimePoint at{};
    Action action;
    while (queue.pop_due(TimePoint{1'000'000}, at, action)) action();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 0, 2, 3}));
}

TEST(EventQueue, FarFutureEventsCrossAllLevels) {
    // One event per wheel level plus one beyond the outer window; they must
    // come back in time order as the limit sweeps forward.
    WheelQueue queue;
    std::vector<int> order;
    queue.schedule(TimePoint{500'000'000}, 0, [&] { order.push_back(3); });   // overflow
    queue.schedule(TimePoint{10'000'000}, 1, [&] { order.push_back(2); });    // outer wheel
    queue.schedule(TimePoint{300'000}, 2, [&] { order.push_back(1); });       // inner wheel
    queue.schedule(TimePoint{10}, 3, [&] { order.push_back(0); });            // immediate
    TimePoint at{};
    Action action;
    // Sweep in small steps so migration happens under many pop calls.
    for (std::int64_t limit = 0; limit <= 600'000'000; limit += 7'777'777) {
        while (queue.pop_due(TimePoint{limit}, at, action)) action();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(queue.live(), 0u);
}

TEST(EventQueue, CancelOverflowEventIsLive) {
    // Cancelling a far-future (overflow-parked) event drops live() eagerly
    // and next_event_time() never reports it.
    WheelQueue queue;
    const std::uint64_t id = queue.schedule(TimePoint{1'000'000'000}, 0, [] {});
    queue.schedule(TimePoint{2'000'000'000}, 1, [] {});
    EXPECT_EQ(queue.live(), 2u);
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_EQ(queue.live(), 1u);
    EXPECT_FALSE(queue.cancel(id));  // double-cancel is a no-op
    ASSERT_TRUE(queue.next_event_time().has_value());
    EXPECT_EQ(queue.next_event_time()->ns, 2'000'000'000);
    TimePoint at{};
    Action action;
    ASSERT_TRUE(queue.pop_due(TimePoint{3'000'000'000}, at, action));
    EXPECT_EQ(at.ns, 2'000'000'000);
    EXPECT_FALSE(queue.pop_due(TimePoint{3'000'000'000}, at, action));
}

TEST(EventQueue, IdReuseDoesNotCrossCancel) {
    // After an event fires, its (recycled) id must not cancel a newer event.
    WheelQueue queue;
    const std::uint64_t first = queue.schedule(TimePoint{10}, 0, [] {});
    TimePoint at{};
    Action action;
    ASSERT_TRUE(queue.pop_due(TimePoint{100}, at, action));
    const std::uint64_t second = queue.schedule(TimePoint{200}, 1, [] {});
    EXPECT_FALSE(queue.cancel(first));  // stale id: same slot, older generation
    EXPECT_EQ(queue.live(), 1u);
    EXPECT_TRUE(queue.cancel(second));
}

TEST(EventQueue, NextEventTimeDoesNotPerturbOrder) {
    // Peeking between every operation must not change what pops (the wheel
    // must never migrate slots from next_event_time()).
    WheelQueue peeked;
    WheelQueue plain;
    Rng rng(42);
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    std::uint64_t seq = 0;
    for (int i = 0; i < 300; ++i) {
        const std::int64_t delta = static_cast<std::int64_t>(rng.below(300'000'000));
        const std::uint64_t payload = seq;
        peeked.schedule(TimePoint{delta}, seq, [payload, &a] { a.push_back(payload); });
        plain.schedule(TimePoint{delta}, seq, [payload, &b] { b.push_back(payload); });
        ++seq;
        (void)peeked.next_event_time();
    }
    TimePoint at{};
    Action action;
    for (std::int64_t limit = 0; limit <= 300'000'000; limit += 999'999) {
        (void)peeked.next_event_time();
        while (peeked.pop_due(TimePoint{limit}, at, action)) {
            action();
            (void)peeked.next_event_time();
        }
        while (plain.pop_due(TimePoint{limit}, at, action)) action();
        ASSERT_EQ(a, b);
    }
}

// ---------------------------------------------------------------------------
// Outer-bucket boundaries.  find_min skips the outer head slot while the
// inner minimum is strictly before that slot's bucket start, and a
// dispatch that moves the cursor into a new outer bucket cascades the
// bucket's slot inward first.  These cases sit right at those edges.

constexpr std::int64_t kOuterBucket = std::int64_t{1} << 19;  // level-1 granularity, ns
constexpr std::int64_t kInnerBucket = std::int64_t{1} << 10;  // level-0 granularity, ns

/// A wheel and the oracle fed the same schedule; every pop and every peek
/// must agree.
class Twin {
public:
    Twin() = default;
    Twin(const Twin&) = delete;  // queued actions capture `this`
    Twin& operator=(const Twin&) = delete;

    void add(std::int64_t at) { add(at, next_seq_++); }
    void add(std::int64_t at, std::uint64_t seq) {
        const std::uint64_t payload = next_payload_++;
        queue_.schedule(TimePoint{at}, seq, [payload, this] { popped_.push_back(payload); });
        oracle_.schedule(TimePoint{at}, seq, payload);
    }
    /// Pops everything due by `limit`; returns the payloads in order.
    std::vector<std::uint64_t> pop_to(std::int64_t limit, bool peek_between = false) {
        std::vector<std::uint64_t> order;
        TimePoint at{};
        Action action;
        for (;;) {
            if (peek_between) peek();
            TimePoint oracle_at{};
            const auto expected = oracle_.pop_due(TimePoint{limit}, oracle_at);
            const bool got = queue_.pop_due(TimePoint{limit}, at, action);
            EXPECT_EQ(got, expected.has_value());
            if (!got || !expected) break;
            EXPECT_EQ(at.ns, oracle_at.ns);
            action();
            EXPECT_EQ(popped_.back(), *expected);
            order.push_back(*expected);
        }
        EXPECT_EQ(queue_.live(), oracle_.live());
        return order;
    }
    void peek() {
        const auto q = queue_.next_event_time();
        const auto o = oracle_.next_event_time();
        ASSERT_EQ(q.has_value(), o.has_value());
        if (q) {
            EXPECT_EQ(q->ns, o->ns);
        }
    }
private:
    WheelQueue queue_;
    OracleQueue oracle_;
    std::vector<std::uint64_t> popped_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t next_payload_ = 0;
};

TEST(EventQueue, InnerEventAtOuterBucketStartTiesOnSeq) {
    // An outer event sits at the start of bucket 2; after the cursor moves
    // into bucket 1, an inner event lands on that exact nanosecond.  The
    // lower bound ties, so the outer slot must still be scanned and seq
    // decides.  The Simulator's counter only increases, which gives the
    // later (inner) event the higher seq; hand-picked seqs also reach the
    // reverse order, which the comparison must get right as well.
    for (const bool inner_first : {false, true}) {
        SCOPED_TRACE(inner_first);
        Twin twin;
        const std::int64_t start = 2 * kOuterBucket;
        twin.add(start, 10);                                // outer: 1024 inner buckets ahead
        twin.add(start + 5, 11);                            // outer, same slot
        twin.add(kOuterBucket + 100 * kInnerBucket, 12);    // moves the cursor into bucket 1
        EXPECT_EQ(twin.pop_to(kOuterBucket + 100 * kInnerBucket), (std::vector<std::uint64_t>{2}));
        twin.add(start, inner_first ? 9 : 13);              // inner: 412 inner buckets ahead
        const std::vector<std::uint64_t> want =
            inner_first ? std::vector<std::uint64_t>{3, 0, 1} : std::vector<std::uint64_t>{0, 3, 1};
        EXPECT_EQ(twin.pop_to(3 * kOuterBucket), want);
    }
}

TEST(EventQueue, CursorJumpsSeveralOuterBucketsAfterIdleGap) {
    // Nothing is due for several outer buckets; one pop carries the cursor
    // across all of them, and only the landing bucket's slot may cascade.
    Twin twin;
    twin.add(10);
    for (const std::int64_t bucket : {7, 8, 20, 21}) {
        for (std::int64_t k = 0; k < 4; ++k) {
            twin.add(bucket * kOuterBucket + (3 - k) * 1000 + bucket);  // reverse time order
        }
    }
    EXPECT_EQ(twin.pop_to(10).size(), 1u);
    // Cursor at 10 ns; the next pop lands in bucket 7.
    EXPECT_EQ(twin.pop_to(7 * kOuterBucket + 1000 + 7).size(), 2u);
    // New events behind and ahead of the landing point, inside bucket 7
    // and across the next boundary.
    twin.add(7 * kOuterBucket + 2000);
    twin.add(8 * kOuterBucket);
    twin.add(8 * kOuterBucket - 1);
    twin.add(19 * kOuterBucket + 3);
    EXPECT_EQ(twin.pop_to(30 * kOuterBucket).size(), 2u + 4u + 3u * 4u);
}

TEST(EventQueue, CascadeOnOverflowPullInAndLevelZeroPop) {
    {
        // Overflow pull-in: the overflow head is due and the cursor enters
        // its bucket, where outer events scheduled later are waiting.
        Twin twin;
        const std::int64_t far = 300'000'000;  // > 268 ms: overflow from t = 0
        twin.add(far);
        twin.add(100'000'000);  // moves the cursor to 100 ms
        EXPECT_EQ(twin.pop_to(100'000'000).size(), 1u);
        twin.add(far);          // same time as the overflow head, higher seq: outer wheel
        twin.add(far + 1000);   // outer wheel, same bucket
        twin.add(far - (far % kOuterBucket) + kOuterBucket - 1);  // last ns of the bucket
        twin.add(far + kOuterBucket);                              // next bucket
        EXPECT_EQ(twin.pop_to(far), (std::vector<std::uint64_t>{0, 2}));
        twin.add(far + 1000);   // ties the cascaded event, after it
        EXPECT_EQ(twin.pop_to(far + 2 * kOuterBucket), (std::vector<std::uint64_t>{3, 6, 4, 5}));
    }
    {
        // Level-0 pop: an inner event in the next outer bucket is the
        // minimum, and dispatching it enters a bucket that outer events
        // already occupy.
        Twin twin;
        const std::int64_t bucket2 = 2 * kOuterBucket;
        twin.add(bucket2 + 100 * kInnerBucket + 1);  // outer (placed from t = 0)
        twin.add(bucket2 + 300 * kInnerBucket);      // outer
        twin.add(kOuterBucket + 400 * kInnerBucket); // moves the cursor into bucket 1
        EXPECT_EQ(twin.pop_to(kOuterBucket + 400 * kInnerBucket), (std::vector<std::uint64_t>{2}));
        twin.add(bucket2 + 100 * kInnerBucket);      // inner: 212 inner buckets ahead
        twin.add(bucket2 + 100 * kInnerBucket + 1);  // inner, ties the first outer event
        EXPECT_EQ(twin.pop_to(bucket2 + 100 * kInnerBucket), (std::vector<std::uint64_t>{3}));
        twin.add(bucket2 + 300 * kInnerBucket);      // ties the second, after it
        EXPECT_EQ(twin.pop_to(3 * kOuterBucket), (std::vector<std::uint64_t>{0, 4, 1, 5}));
    }
}

TEST(EventQueue, NextEventTimeAcrossBucketCrossingKeepsOrder) {
    // Peeking between pops, including right before a pop that crosses
    // into a new outer bucket, must not change the dispatch sequence.
    Twin peeked;
    Twin plain;
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        const std::int64_t at = static_cast<std::int64_t>(rng.below(40)) * kOuterBucket +
                                static_cast<std::int64_t>(rng.below(3)) - 1;
        peeked.add(std::max<std::int64_t>(at, 0));
        plain.add(std::max<std::int64_t>(at, 0));
    }
    for (std::int64_t b = 0; b <= 41; ++b) {
        const std::int64_t limit = b * kOuterBucket + static_cast<std::int64_t>(rng.below(3)) - 1;
        peeked.peek();
        const auto a = peeked.pop_to(limit, /*peek_between=*/true);
        const auto p = plain.pop_to(limit);
        ASSERT_EQ(a, p);
        // New work just ahead of the cursor, across the next boundary.
        const std::int64_t next = (b + 1) * kOuterBucket;
        peeked.add(next);
        plain.add(next);
        peeked.add(next - 1);
        plain.add(next - 1);
    }
}

/// Fuzz due times snapped to outer-bucket starts ± 0–3 ns, so ties with a
/// bucket's lower bound are common.  Horizons span the inner window, the
/// outer window and the overflow heap.
std::int64_t bucket_snapped(Rng& rng, std::int64_t clock) {
    const std::uint64_t h = rng.below(100);
    std::int64_t ahead = 0;
    if (h < 45) {
        ahead = static_cast<std::int64_t>(rng.below(4));
    } else if (h < 92) {
        ahead = static_cast<std::int64_t>(rng.below(512));
    } else {
        ahead = 512 + static_cast<std::int64_t>(rng.below(600));
    }
    const std::int64_t start = ((clock >> 19) + ahead) << 19;
    const std::int64_t at = start + static_cast<std::int64_t>(rng.below(7)) - 3;
    return std::max(at, clock);
}

TEST(EventQueue, BucketBoundaryFuzzMatchesOracle) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        fuzz_against_oracle(seed, 1500, bucket_snapped);
    }
}

// ---------------------------------------------------------------------------
// Cost property: a pop's scan work must not grow with the number of timers
// parked on the outer wheel.

TEST(EventQueue, PopCostIndependentOfOuterTimerCount) {
    // A standing population of 2 000 one-shot timers 1–250 ms out, each
    // re-armed when it fires, under a stream of 100 000 near events 1–50 µs
    // out (16 in flight), the shape of protocol timeouts under message
    // traffic.  The mean number of nodes the bucket scans visit per pop
    // must stay small: it may not track the ~4 timers per outer slot.
    constexpr int kTimers = 2000;
    constexpr int kInFlight = 16;
    constexpr std::uint64_t kNearEvents = 100'000;
    constexpr std::int64_t kMs = 1'000'000;
    WheelQueue queue;
    Rng rng(11);
    std::uint64_t seq = 0;
    bool fired_timer = false;
    const auto timer_due = [&rng](std::int64_t now) {
        return now + kMs + static_cast<std::int64_t>(rng.below(249 * kMs));
    };
    const auto near_due = [&rng](std::int64_t now) {
        return now + 1000 + static_cast<std::int64_t>(rng.below(49'000));
    };
    for (int i = 0; i < kTimers; ++i) {
        queue.schedule(TimePoint{timer_due(0)}, seq++, [&fired_timer] { fired_timer = true; });
    }
    for (int i = 0; i < kInFlight; ++i) {
        queue.schedule(TimePoint{near_due(0)}, seq++, [&fired_timer] { fired_timer = false; });
    }
    std::uint64_t near_scheduled = kInFlight;
    std::uint64_t pops = 0;
    std::uint64_t timer_pops = 0;
    constexpr TimePoint kForever{std::numeric_limits<std::int64_t>::max()};
    TimePoint at{};
    TimePoint last{};
    Action action;
    while (near_scheduled < kNearEvents && queue.pop_due(kForever, at, action)) {
        ASSERT_GE(at.ns, last.ns);
        last = at;
        action();
        ++pops;
        if (fired_timer) {
            ++timer_pops;
            queue.schedule(TimePoint{timer_due(at.ns)}, seq++, [&fired_timer] { fired_timer = true; });
        } else {
            queue.schedule(TimePoint{near_due(at.ns)}, seq++, [&fired_timer] { fired_timer = false; });
            ++near_scheduled;
        }
    }
    ASSERT_GT(timer_pops, 0u);  // the outer wheel really was exercised
    const double visits_per_pop =
        static_cast<double>(queue.scan_visits()) / static_cast<double>(pops);
    EXPECT_LE(visits_per_pop, 4.0) << "over " << pops << " pops";
}

TEST(SimulatorOracle, DispatchMatchesOracleQueue) {
    // End-to-end: the Simulator facade and the oracle, fed the same
    // schedule/cancel script, produce identical dispatch sequences, clocks,
    // and high-water marks.
    using Dispatch = std::pair<std::uint64_t, std::int64_t>;  // {payload, clock}
    std::vector<Dispatch> seen;
    std::vector<Dispatch> expected;
    Simulator simulator;
    OracleQueue oracle;
    std::size_t oracle_high_water = 0;
    Rng rng(7);
    std::vector<std::pair<EventId, std::uint64_t>> cancellable;  // {sim id, oracle id}
    for (std::uint64_t p = 0; p < 400; ++p) {
        const Duration delay{static_cast<std::int64_t>(rng.below(50'000'000))};
        const EventId id = simulator.schedule_after(
            delay, [p, &seen, &simulator] { seen.emplace_back(p, simulator.now().ns); });
        const std::uint64_t oid = oracle.schedule(TimePoint{} + delay, p, p);
        oracle_high_water = std::max(oracle_high_water, oracle.live());
        if (rng.below(4) == 0) cancellable.emplace_back(id, oid);
        if (rng.below(8) == 0 && !cancellable.empty()) {
            simulator.cancel(cancellable.back().first);
            EXPECT_TRUE(oracle.cancel(cancellable.back().second));
            cancellable.pop_back();
        }
    }
    simulator.run_all();
    constexpr TimePoint kForever{std::numeric_limits<std::int64_t>::max()};
    TimePoint at{};
    while (const auto p = oracle.pop_due(kForever, at)) expected.emplace_back(*p, at.ns);
    EXPECT_FALSE(seen.empty());
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(simulator.queue_high_water(), oracle_high_water);
    EXPECT_EQ(simulator.pending(), 0u);
}

}  // namespace
}  // namespace rbft::sim
