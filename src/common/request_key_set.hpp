// Exact set of request keys, stored as per-client rid ranges.
//
// Clients number their requests with increasing rids, so the keys a node
// has executed, ordered or retired form, per client, one contiguous run
// plus a few stragglers.  `RequestKeySet` stores exactly that: for each
// client a run [lo, hi] of rids and a sparse remainder of disjoint ranges
// outside it.  Membership answers are identical to a hash set of every key
// ever inserted, including for clients that send rids out of order, start
// anywhere or pick arbitrary 64-bit values; only the memory differs, which
// is O(clients + gaps) instead of O(requests).
//
// The set offers contains/insert/clear and no iteration, so hash order
// never reaches the schedule (see common/det.hpp).  `RequestKeyTimes`
// keeps one time per key in the same per-client layout.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <unordered_map>

#include "common/time.hpp"
#include "common/types.hpp"

namespace rbft {

class RequestKeySet {
public:
    [[nodiscard]] bool contains(const RequestKey& key) const {
        const auto it = rids_by_client_.find(raw(key.client));
        if (it == rids_by_client_.end()) return false;
        const ClientRids& c = it->second;
        const std::uint64_t rid = raw(key.rid);
        if (rid >= c.lo && rid <= c.hi) return true;
        auto after = c.rest.upper_bound(rid);
        if (after == c.rest.begin()) return false;
        return rid <= std::prev(after)->second;
    }

    /// Adds `key`; returns false if it was already present.
    bool insert(const RequestKey& key) {
        const std::uint64_t rid = raw(key.rid);
        auto [it, fresh] = rids_by_client_.try_emplace(raw(key.client), ClientRids{rid, rid, {}});
        if (fresh) return true;
        ClientRids& c = it->second;
        if (rid >= c.lo && rid <= c.hi) return false;
        if (c.hi != kMaxRid && rid == c.hi + 1) {
            c.hi = rid;
            // Absorb the remainder range that now touches the run.
            if (c.hi != kMaxRid) {
                if (auto up = c.rest.find(c.hi + 1); up != c.rest.end()) {
                    c.hi = up->second;
                    c.rest.erase(up);
                }
            }
            return true;
        }
        if (c.lo != 0 && rid == c.lo - 1) {
            c.lo = rid;
            if (c.lo != 0) {
                if (auto down = c.rest.lower_bound(c.lo); down != c.rest.begin()) {
                    --down;
                    if (down->second + 1 == c.lo) {
                        c.lo = down->first;
                        c.rest.erase(down);
                    }
                }
            }
            return true;
        }
        return insert_rest(c, rid);
    }

    void clear() noexcept { rids_by_client_.clear(); }

private:
    static constexpr std::uint64_t kMaxRid = std::numeric_limits<std::uint64_t>::max();

    struct ClientRids {
        /// The run [lo, hi] (inclusive) that in-order inserts extend.
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        /// Disjoint, non-adjacent ranges outside the run: first rid → last.
        std::map<std::uint64_t, std::uint64_t> rest;
    };

    /// Adds `rid`, which is neither in nor adjacent to the run, to the
    /// remainder.  A remainder range that grows upwards becomes the run (the
    /// old run moves to the remainder), so a client that skipped a rid
    /// goes back to the O(1) path on its next in-order request.
    static bool insert_rest(ClientRids& c, std::uint64_t rid) {
        auto after = c.rest.upper_bound(rid);
        if (after != c.rest.begin()) {
            auto before = std::prev(after);
            if (rid <= before->second) return false;
            if (rid == before->second + 1) {
                std::uint64_t last = rid;
                if (after != c.rest.end() && after->first == rid + 1) {
                    last = after->second;
                    c.rest.erase(after);
                }
                const std::uint64_t first = before->first;
                c.rest.erase(before);
                c.rest.emplace(c.lo, c.hi);
                c.lo = first;
                c.hi = last;
                return true;
            }
        }
        if (after != c.rest.end() && after->first == rid + 1) {
            const std::uint64_t last = after->second;
            c.rest.emplace_hint(c.rest.erase(after), rid, last);
            return true;
        }
        c.rest.emplace_hint(after, rid, rid);
        return true;
    }

    // Lookup-only (never iterated), so hashed.
    std::unordered_map<std::uint32_t, ClientRids> rids_by_client_;
};

/// One time per request key, each key recorded at most once (between
/// clears): per client, a deque indexed by rid from the lowest recorded
/// rid, 8 B per key.  A rid more than kMaxGap beyond either end of its
/// client's window goes to a hash map instead, so a client cannot make the
/// table pad much more than that per key by spacing its rids.
class RequestKeyTimes {
public:
    void record(const RequestKey& key, TimePoint at) {
        const std::uint64_t rid = raw(key.rid);
        auto [it, fresh] = windows_.try_emplace(raw(key.client));
        Window& w = it->second;
        if (fresh) w.base = rid;
        if (rid >= w.base && rid - w.base <= w.at.size() + kMaxGap) {
            if (rid - w.base >= w.at.size()) w.at.resize(rid - w.base + 1);
            w.at[rid - w.base] = at;
        } else if (rid < w.base && w.base - rid <= kMaxGap) {
            w.at.insert(w.at.begin(), w.base - rid, TimePoint{});
            w.base = rid;
            w.at.front() = at;
        } else {
            far_.emplace(key, at);
        }
    }

    /// Precondition: `key` was recorded since the last clear().
    [[nodiscard]] TimePoint at(const RequestKey& key) const {
        // A key lands in far_ only while its window does not cover it, and
        // windows only grow, so far_ is checked first.
        if (!far_.empty()) {
            if (auto it = far_.find(key); it != far_.end()) return it->second;
        }
        const Window& w = windows_.at(raw(key.client));
        return w.at[raw(key.rid) - w.base];
    }

    void clear() noexcept {
        windows_.clear();
        far_.clear();
    }

private:
    static constexpr std::uint64_t kMaxGap = 64;

    struct Window {
        std::uint64_t base = 0;
        std::deque<TimePoint> at;  // O(1) growth at both ends
    };
    // Lookup-only (never iterated), so hashed.
    std::unordered_map<std::uint32_t, Window> windows_;
    std::unordered_map<RequestKey, TimePoint> far_;
};

}  // namespace rbft
