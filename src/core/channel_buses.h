/**
 * @file
 * Bus-level timing state of one channel: the per-chip data lanes and
 * the read/write turnaround, with the window arithmetic every
 * transaction is placed by.  Command-bus slots are not modelled.
 *
 * Rank (mem/rank.h) holds the array side of a channel's timing state;
 * this class holds the bus side.  Both bump the channel's timing-state
 * epoch on every mutation, which is what lets the access scheduler
 * keep a queued read's plan across planning passes.
 */

#ifndef PCMAP_CORE_CHANNEL_BUSES_H
#define PCMAP_CORE_CHANNEL_BUSES_H

#include <array>
#include <cstdint>

#include "core/policy/access_scheduler.h"
#include "mem/line.h"
#include "mem/timing.h"
#include "sim/types.h"

namespace pcmap {

/** Lanes and turnaround of one channel. */
class ChannelBuses final : public ReadWindowModel
{
  public:
    /**
     * @param timing Device timing (aliased; must outlive this object).
     * @param epoch  The channel's timing-state epoch, bumped by occupy().
     */
    ChannelBuses(const PcmTiming &timing, std::uint64_t &epoch)
        : tm(timing), timingEpoch(epoch)
    {
    }

    /**
     * Earliest feasible [start, end) of an array read on @p chips from
     * @p lower_bound, honouring lanes and write-to-read turnaround.
     * The start is max(lower_bound, the start at lower bound 0), and
     * end - start depends only on @p row_hit.
     */
    void computeReadWindow(ChipMask chips, unsigned bank,
                           std::uint64_t row, Tick lower_bound,
                           bool row_hit, Tick &start,
                           Tick &end) const override;

    /** Same for a write transaction (column write + burst + pulse). */
    void computeWriteWindow(ChipMask chips, Tick lower_bound, Tick &start,
                            Tick &end) const;

    /**
     * Commit the bus occupancy of an issued transaction whose data
     * burst ends at @p burst_end.
     */
    void occupy(ChipMask chips, Tick burst_end, bool is_write);

    /** Number of data lanes still carrying a burst at @p now. */
    unsigned busyLanes(Tick now) const;

  private:
    const PcmTiming &tm;
    std::uint64_t &timingEpoch;
    std::array<Tick, kChipsPerRank> laneFreeAt{};
    /** max over laneFreeAt: a burst at or past it skips the lane walk. */
    Tick laneMaxFree = 0;
    Tick lastReadBurstEnd = 0;
    Tick lastWriteBurstEnd = 0;
};

} // namespace pcmap

#endif // PCMAP_CORE_CHANNEL_BUSES_H
