#include "mem/irlp.h"

#include <algorithm>

#include "sim/log.h"

namespace pcmap {

void
IrlpTracker::addOp(Tick sched_now, Tick start, Tick end,
                   ChipMask data_chips, bool is_write)
{
    pcmap_assert(start <= end);
    pcmap_assert(start >= sched_now);
    // All edges at ticks <= sched_now are already queued (every op is
    // announced at or before its start), so integration can safely
    // advance to the announcement time first.
    advanceTo(sched_now);
    if (start == end)
        return;
    const int writes = is_write ? 1 : 0;
    edges.push(Edge{start, data_chips, +1, writes});
    edges.push(Edge{end, data_chips, -1, -writes});
}

void
IrlpTracker::truncateWrite(Tick sched_now, Tick start, Tick end, Tick cut,
                           ChipMask data_chips)
{
    pcmap_assert(cut < end);
    advanceTo(sched_now);
    if (start == end)
        return;
    // The original end edge is still queued: end the op at the cut
    // and add a begin edge at the old end that cancels it.
    const Tick stop = std::max(cut, start);
    pcmap_assert(stop >= cursor);
    edges.push(Edge{stop, data_chips, -1, -1});
    edges.push(Edge{end, data_chips, +1, 1});
}

void
IrlpTracker::applyEdge(const Edge &e)
{
    forEachSetBit(e.chips, [&](unsigned c) {
        const int before = chipRefs[c];
        chipRefs[c] += e.delta;
        pcmap_assert(chipRefs[c] >= 0);
        if (before == 0 && chipRefs[c] > 0)
            ++activeChips;
        else if (before > 0 && chipRefs[c] == 0)
            --activeChips;
    });
    writesInService += e.dWrites;
    pcmap_assert(writesInService >= 0);
}

void
IrlpTracker::advanceTo(Tick t)
{
    while (!edges.empty() && edges.top().when <= t) {
        const Tick when = edges.top().when;
        pcmap_assert(when >= cursor);
        if (writesInService > 0) {
            const double dt = static_cast<double>(when - cursor);
            area += static_cast<double>(activeChips) * dt;
            windowSpan += dt;
        }
        cursor = when;
        // Batch all edges sharing this tick so that an operation
        // ending exactly when another starts never produces a
        // transient double-count in the maximum.
        while (!edges.empty() && edges.top().when == when) {
            applyEdge(edges.top());
            edges.pop();
        }
        if (writesInService > 0 &&
            static_cast<unsigned>(activeChips) > maxActive) {
            maxActive = static_cast<unsigned>(activeChips);
        }
    }
    if (t > cursor) {
        if (writesInService > 0) {
            const double dt = static_cast<double>(t - cursor);
            area += static_cast<double>(activeChips) * dt;
            windowSpan += dt;
        }
        cursor = t;
    }
}

void
IrlpTracker::finalize(Tick end_of_sim)
{
    advanceTo(end_of_sim);
}

double
IrlpTracker::mean() const
{
    return windowSpan > 0.0 ? area / windowSpan : 0.0;
}

} // namespace pcmap
