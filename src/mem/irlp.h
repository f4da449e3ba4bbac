/**
 * @file
 * Intra-Rank-Level Parallelism (IRLP) instrumentation.
 *
 * Footnote 2 of the paper defines IRLP during a write as "the number
 * of chips in the rank that are actively serving some request during
 * that period".  The tracker integrates the count of distinct busy
 * *data* chips (the metric's maximum is 8 — a chip working for two
 * banks at once still counts once) over all intervals in which at
 * least one write is in service, and reports the time-weighted mean
 * and the maximum.
 *
 * Operations are announced at reservation time with their future
 * [start, end) windows; the tracker merges the resulting edge events
 * through a lazily drained min-heap, which is exact because an
 * operation is always announced no later than its start tick.
 */

#ifndef PCMAP_MEM_IRLP_H
#define PCMAP_MEM_IRLP_H

#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "mem/line.h"
#include "sim/types.h"

namespace pcmap {

/** Time-weighted IRLP accumulator for one rank. */
class IrlpTracker
{
  public:
    IrlpTracker() = default;

    /**
     * Announce an operation reserved at simulation time @p sched_now
     * actively using the *data* chips in @p data_chips over
     * [start, end).
     *
     * @param sched_now  Current simulation time (>= all earlier
     *                   announcement times).
     * @param start      Tick the chips begin actively working.
     * @param end        Tick they finish.
     * @param data_chips Mask of data chips doing array work (ECC/PCC
     *                   chips are excluded from the metric).
     * @param is_write   True when the operation is (part of) a write
     *                   service — it opens/extends a write window.
     */
    void addOp(Tick sched_now, Tick start, Tick end, ChipMask data_chips,
               bool is_write);

    /**
     * Cut short a write announced as addOp(_, @p start, @p end,
     * @p data_chips, true): from @p sched_now on it ends at
     * max(@p cut, @p start) instead of @p end (a cancelled write
     * releases its chips early; one cancelled before it started never
     * ran).  Requires @p cut < @p end.
     */
    void truncateWrite(Tick sched_now, Tick start, Tick end, Tick cut,
                       ChipMask data_chips);

    /** Drain all edges up to @p end_of_sim and close the window. */
    void finalize(Tick end_of_sim);

    /** Time-weighted mean busy data chips during write windows. */
    double mean() const;

    /** Maximum concurrently busy data chips seen during a write. */
    unsigned maxSeen() const { return maxActive; }

    /** Total simulated time with >= 1 write in service, in ticks. */
    double writeWindowTicks() const { return windowSpan; }

  private:
    struct Edge
    {
        Tick when;
        ChipMask chips;
        int delta;   ///< +1 begin / -1 end, applied per chip in mask
        int dWrites;
    };

    /**
     * Min-heap order on the tick; within a tick, begin edges pop
     * before end edges, so a truncation's end edge at an op's start
     * tick (or its begin edge cancelling the original end) never
     * drives a count below zero.  The order inside a tick changes no
     * result otherwise: a batch is integrated as a whole.
     */
    struct Later
    {
        bool operator()(const Edge &a, const Edge &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.delta < b.delta;
        }
    };

    void advanceTo(Tick t);
    void applyEdge(const Edge &e);

    std::priority_queue<Edge, std::vector<Edge>, Later> edges;
    Tick cursor = 0;
    std::array<int, kChipsPerRank> chipRefs{}; ///< ops per chip
    int activeChips = 0;   ///< chips with refcount > 0
    int writesInService = 0;
    unsigned maxActive = 0;
    double area = 0.0;       ///< integral of activeChips over windows
    double windowSpan = 0.0; ///< total window duration
};

} // namespace pcmap

#endif // PCMAP_MEM_IRLP_H
