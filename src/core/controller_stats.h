/**
 * @file
 * Aggregate counters exposed by a memory controller for harvesting.
 *
 * Lives in its own header so the policy objects (access scheduler,
 * write coalescer) can account into the counters without depending on
 * the full controller.
 */

#ifndef PCMAP_CORE_CONTROLLER_STATS_H
#define PCMAP_CORE_CONTROLLER_STATS_H

#include <cstdint>

#include "mem/line.h"
#include "obs/histogram.h"
#include "sim/types.h"

namespace pcmap {

/** Aggregate counters exposed by a controller for harvesting. */
struct ControllerStats
{
    std::uint64_t readsCompleted = 0;
    std::uint64_t readsForwardedFromWq = 0;
    std::uint64_t readsDelayedByWrite = 0;
    std::uint64_t readsRejected = 0;

    std::uint64_t writesEnqueued = 0;
    std::uint64_t writesCoalesced = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t writesSilent = 0;
    std::uint64_t writesRejected = 0;

    double readLatencySum = 0.0;  ///< ticks, completion - enqueue
    double readQueueWaitSum = 0.0; ///< ticks, issue-start - enqueue

    std::uint64_t essentialWordsSum = 0;
    std::uint64_t essentialHist[kWordsPerLine + 1] = {};

    std::uint64_t rowReads = 0;        ///< reads served by reconstruction
    std::uint64_t deferredEccReads = 0;///< reads with ECC check deferred
    std::uint64_t verifiesCompleted = 0;
    std::uint64_t faultsDetected = 0;

    std::uint64_t twoStepWrites = 0;   ///< 1-word writes split for RoW
    std::uint64_t multiStepWrites = 0; ///< §IV-B4 serialized writes
    std::uint64_t writesCancelled = 0; ///< write-cancellation events
    std::uint64_t presetsIssued = 0;   ///< background line pre-SETs
    std::uint64_t presetWrites = 0;    ///< writes served RESET-only
    std::uint64_t wowGroups = 0;       ///< write groups with >= 2 writes
    std::uint64_t wowMergedWrites = 0; ///< writes that joined a group
    std::uint64_t statusPolls = 0;

    // Multi-round (MLC+) write programming.  Both stay zero for
    // single-round organizations, so org=slc output is unchanged and
    // downstream exporters gate on writeRoundsIssued > 0.
    std::uint64_t writeRoundsIssued = 0; ///< programming rounds issued
    std::uint64_t writeRoundPauses = 0;  ///< round-boundary pauses/cancels

    // Latency-class distributions (always sampled; the log-bucketed
    // histogram is a few ALU ops per sample and never allocates, so
    // there is no toggle to invalidate the percentile exports).
    obs::LogHistogram readLatencyHist;    ///< ticks, completion - enqueue
    obs::LogHistogram writeLatencyHist;   ///< ticks, commit - enqueue
    obs::LogHistogram queueResidencyHist; ///< ticks, service - enqueue
    obs::LogHistogram writeIrlpHist;      ///< busy data chips per write

    /** Mean effective read latency in nanoseconds. */
    double
    avgReadLatencyNs() const
    {
        return readsCompleted
                   ? ticksToNs(static_cast<Tick>(
                         readLatencySum /
                         static_cast<double>(readsCompleted)))
                   : 0.0;
    }
};

} // namespace pcmap

#endif // PCMAP_CORE_CONTROLLER_STATS_H
