/**
 * @file
 * A set of half-open tick intervals [begin, end) with union/intersect/
 * subtract operations.
 *
 * The paper's runtime breakdowns (Figures 2b, 5, 6) classify every
 * accelerator cycle by which activities (flush, DMA, compute) were in
 * flight. Each activity records its busy intervals; the breakdown is
 * then computed with set algebra over those intervals.
 */

#ifndef GENIE_SIM_INTERVAL_SET_HH
#define GENIE_SIM_INTERVAL_SET_HH

#include <algorithm>
#include <vector>

#include "sim/types.hh"

namespace genie
{

/** A normalized (sorted, disjoint, non-empty) set of [begin,end). */
class IntervalSet
{
  public:
    struct Interval
    {
        Tick begin;
        Tick end;
        bool operator==(const Interval &) const = default;
    };

    IntervalSet() = default;

    /** Add an interval; empty intervals are ignored. */
    void
    add(Tick begin, Tick end)
    {
        if (begin >= end)
            return;
        // Activities record intervals in time order, so most adds
        // touch the last one: extend it in place (the union, and
        // whether raw is normalized, are unchanged).
        if (!raw.empty() && begin >= raw.back().begin &&
            begin <= raw.back().end) {
            raw.back().end = std::max(raw.back().end, end);
            return;
        }
        raw.push_back({begin, end});
        normalized = false;
    }

    bool empty() const { return raw.empty(); }

    /** Total covered ticks. */
    Tick
    measure() const
    {
        normalize();
        Tick total = 0;
        for (const auto &iv : raw)
            total += iv.end - iv.begin;
        return total;
    }

    /** Earliest covered tick (maxTick if empty). */
    Tick
    lo() const
    {
        normalize();
        return raw.empty() ? maxTick : raw.front().begin;
    }

    /** One past the latest covered tick (0 if empty). */
    Tick
    hi() const
    {
        normalize();
        return raw.empty() ? 0 : raw.back().end;
    }

    /** The normalized intervals. */
    const std::vector<Interval> &
    intervals() const
    {
        normalize();
        return raw;
    }

    /** Set union. */
    IntervalSet
    unionWith(const IntervalSet &other) const
    {
        IntervalSet r;
        normalize();
        other.normalize();
        r.raw = raw;
        r.raw.insert(r.raw.end(), other.raw.begin(), other.raw.end());
        r.normalized = false;
        return r;
    }

    /** Set intersection. */
    IntervalSet
    intersectWith(const IntervalSet &other) const
    {
        normalize();
        other.normalize();
        IntervalSet r;
        std::size_t i = 0, j = 0;
        while (i < raw.size() && j < other.raw.size()) {
            Tick lo = std::max(raw[i].begin, other.raw[j].begin);
            Tick hi = std::min(raw[i].end, other.raw[j].end);
            if (lo < hi)
                r.add(lo, hi);
            if (raw[i].end < other.raw[j].end)
                ++i;
            else
                ++j;
        }
        return r;
    }

    /** Set difference (this minus other). */
    IntervalSet
    subtract(const IntervalSet &other) const
    {
        normalize();
        other.normalize();
        IntervalSet r;
        std::size_t j = 0;
        for (const auto &iv : raw) {
            Tick cur = iv.begin;
            while (j < other.raw.size() &&
                   other.raw[j].end <= cur) {
                ++j;
            }
            std::size_t k = j;
            while (cur < iv.end) {
                if (k >= other.raw.size() ||
                    other.raw[k].begin >= iv.end) {
                    r.add(cur, iv.end);
                    break;
                }
                const auto &cut = other.raw[k];
                if (cut.begin > cur)
                    r.add(cur, cut.begin);
                cur = std::max(cur, cut.end);
                ++k;
            }
        }
        return r;
    }

    /** True if @p tick is covered. */
    bool
    contains(Tick tick) const
    {
        normalize();
        auto it = std::upper_bound(
            raw.begin(), raw.end(), tick,
            [](Tick t, const Interval &iv) { return t < iv.begin; });
        if (it == raw.begin())
            return false;
        --it;
        return tick >= it->begin && tick < it->end;
    }

  private:
    void
    normalize() const
    {
        if (normalized)
            return;
        auto &v = raw;
        std::sort(v.begin(), v.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.begin < b.begin ||
                             (a.begin == b.begin && a.end < b.end);
                  });
        std::vector<Interval> merged;
        for (const auto &iv : v) {
            if (!merged.empty() && iv.begin <= merged.back().end)
                merged.back().end = std::max(merged.back().end, iv.end);
            else
                merged.push_back(iv);
        }
        v = std::move(merged);
        normalized = true;
    }

    mutable std::vector<Interval> raw;
    mutable bool normalized = true;
};

} // namespace genie

#endif // GENIE_SIM_INTERVAL_SET_HH
