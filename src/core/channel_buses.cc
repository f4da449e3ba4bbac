#include "core/channel_buses.h"

#include <algorithm>

namespace pcmap {

void
ChannelBuses::computeReadWindow(ChipMask chips, unsigned bank,
                                std::uint64_t row, Tick lower_bound,
                                bool row_hit, Tick &start, Tick &end) const
{
    (void)bank;
    (void)row;
    const Tick act = row_hit ? 0 : tm.actTicks();
    const Tick lead = act + tm.readColTicks();
    Tick burst_start = lower_bound + lead;
    // Write-to-read bus turnaround.
    burst_start =
        std::max(burst_start, lastWriteBurstEnd + tm.turnaroundTicks());
    // Per-chip data lanes (no lane can push past laneMaxFree).
    if (burst_start < laneMaxFree) {
        forEachSetBit(chips, [&](unsigned c) {
            burst_start = std::max(burst_start, laneFreeAt[c]);
        });
    }
    start = burst_start - lead;
    end = burst_start + tm.burstTicks();
}

void
ChannelBuses::computeWriteWindow(ChipMask chips, Tick lower_bound,
                                 Tick &start, Tick &end) const
{
    const Tick lead = tm.writeColTicks();
    Tick burst_start = lower_bound + lead;
    // Read-to-write turnaround (same penalty class as tWTR).
    burst_start =
        std::max(burst_start, lastReadBurstEnd + tm.turnaroundTicks());
    if (burst_start < laneMaxFree) {
        forEachSetBit(chips, [&](unsigned c) {
            burst_start = std::max(burst_start, laneFreeAt[c]);
        });
    }
    start = burst_start - lead;
    // Array occupancy covers every programming round of the write
    // (one round for SLC; the full program-and-verify train for MLC+).
    end = burst_start + tm.burstTicks() + tm.totalWritePulseTicks();
}

void
ChannelBuses::occupy(ChipMask chips, Tick burst_end, bool is_write)
{
    // Lanes are held conservatively from now to burst_end.
    forEachSetBit(chips, [&](unsigned c) {
        laneFreeAt[c] = std::max(laneFreeAt[c], burst_end);
    });
    if (chips)
        laneMaxFree = std::max(laneMaxFree, burst_end);
    if (is_write)
        lastWriteBurstEnd = std::max(lastWriteBurstEnd, burst_end);
    else
        lastReadBurstEnd = std::max(lastReadBurstEnd, burst_end);
    ++timingEpoch;
}

unsigned
ChannelBuses::busyLanes(Tick now) const
{
    unsigned busy = 0;
    for (const Tick free_at : laneFreeAt) {
        if (free_at > now)
            ++busy;
    }
    return busy;
}

} // namespace pcmap
