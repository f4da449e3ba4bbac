/**
 * @file
 * Configuration of a PCMap memory controller.  Its mechanism switches
 * are the system; ControllerPolicy names their combinations, the six
 * systems of Section V among them.
 */

#ifndef PCMAP_CORE_CONTROLLER_CONFIG_H
#define PCMAP_CORE_CONTROLLER_CONFIG_H

#include "core/layout.h"
#include "mem/timing.h"

namespace pcmap {

/** Row-buffer management policy. */
enum class PagePolicy : std::uint8_t
{
    Open,   ///< rows stay open until a conflict (FR-FCFS exploits hits)
    Closed, ///< rows close after every access (no hit/conflict skew)
};

/** Read scheduling discipline. */
enum class ReadScheduling : std::uint8_t
{
    FrFcfs, ///< first-ready FCFS: startable/row-hit reads first
    Fcfs,   ///< strict arrival order
};

/** Full parameterization of one channel's memory controller. */
struct ControllerConfig
{
    // --- Mechanism switches ---
    bool enableRoW = false;  ///< Serve reads during 1-word writes.
    bool enableWoW = false;  ///< Consolidate disjoint-chip writes.
    RotationMode rotation = RotationMode::None;
    /**
     * True for PCMap DIMMs: rank subsetting is available, writes touch
     * only essential chips, and the tenth (PCC) chip is populated.
     * False models the conventional 9-chip ECC DIMM baseline whose
     * writes occupy the whole bank for the full write latency.
     */
    bool fineGrained = false;

    // --- Queueing policy (Section II-B, Table I) ---
    unsigned readQueueCap = 8;
    unsigned writeQueueCap = 32;
    /**
     * Table I reads "32x64B write queue ... for banks", which can be
     * parsed as one 32-entry queue per controller (default) or one
     * per bank.  Per-bank queues buffer 8x more write-backs, expose
     * many more same-bank WoW merge candidates, and push IRLP toward
     * the paper's near-8 values for MP1-MP3 (see EXPERIMENTS.md).
     */
    bool perBankWriteQueues = false;
    /** Drain writes when the WQ is more than this fraction full. */
    double drainHighWatermark = 0.8;
    /** Stop draining when the WQ falls to this fraction. */
    double drainLowWatermark = 0.25;

    // --- WoW tuning ---
    /** Max writes consolidated into one group (incl. the trigger). */
    unsigned wowMaxMerge = 8;
    /** How many WQ entries past the head the scheduler examines. */
    unsigned wowScanDepth = 32;

    // --- Ablation switches (modelling studies; keep true for the
    //     paper-faithful system) ---
    /** Charge chip time for deferred ECC/PCC code updates. */
    bool modelCodeUpdateTraffic = true;
    /** Charge chip time for deferred SECDED verification reads. */
    bool modelVerifyTraffic = true;
    /** Let RoW configurations serve reads while draining writes. */
    bool serveReadsDuringDrain = true;
    /** Split one-word writes into data+ECC then PCC steps (RoW). */
    bool enableTwoStep = true;
    /**
     * Section IV-B4 extension: serialize multi-essential-word writes
     * into one-chip partial writes so RoW stays applicable.  The
     * paper discusses but does not enable this (it stretches write
     * latency); off by default, exercised by the ablation harness.
     * Only applies when WoW is disabled (WoW prefers consolidating
     * such writes in parallel instead).
     */
    bool rowMultiWordWrites = false;
    /**
     * Related-work comparator (Qureshi et al., HPCA 2010): an arriving
     * read may cancel an in-progress coarse write, which then restarts
     * from scratch later.  Only meaningful on the conventional
     * (non-fine-grained) DIMM — PCMap overlaps instead of cancelling.
     */
    bool enableWriteCancellation = false;
    /** Cancels allowed per write before it runs to completion. */
    unsigned maxWriteCancels = 3;
    /**
     * Related-work comparator (Qureshi et al., ISCA 2012): while a
     * write-back sits in the queue, a background operation SETs the
     * whole line; the eventual write then only needs the fast RESET
     * pulse (50 ns vs 120 ns).  The trade: the preset occupies every
     * chip of the bank in the background and destroys the line's
     * differential-write savings (every word is rewritten).  Only
     * meaningful on the conventional DIMM.
     */
    bool enablePreset = false;
    /**
     * Cancel only when at least this fraction of the write remains
     * (cancelling an almost-done write wastes more than it saves).
     */
    double cancelMinRemainingFrac = 0.4;
    /**
     * Buffer entries for ECC/PCC updates awaiting background
     * propagation.  When full, write service stalls until the busy
     * code chips catch up — the serialization on the fixed ECC/PCC
     * chips that Section IV-C2's rotation removes.
     */
    unsigned codeUpdateBacklogCap = 16;
    /**
     * Outstanding speculative (not yet SECDED-verified) reads the
     * controller can track.  Each needs a buffer entry holding the
     * delivered line until its deferred check completes, so the
     * resource is small; when exhausted, reads wait for the busy
     * ECC/data chip instead of speculating.
     */
    unsigned specReadBufferCap = 8;

    // --- Scheduling variants (Section II-B describes FR-FCFS with
    //     open rows; the alternatives quantify what that buys) ---
    PagePolicy pagePolicy = PagePolicy::Open;
    ReadScheduling readScheduling = ReadScheduling::FrFcfs;

    // --- Host-side sizing hint (no effect on simulated behaviour) ---
    /**
     * Expected distinct lines written over the run (0 = unknown).
     * Pre-sizes the backing store's page directory so warm-up avoids
     * rehash storms; the simulated results are identical either way.
     */
    std::uint64_t footprintLinesHint = 0;

    // --- Device timing ---
    PcmTiming timing{};

    // --- Rank/bank geometry (per channel) ---
    unsigned banksPerRank = 8;

    /** Derived: does this configuration populate the PCC chip? */
    bool hasPcc() const { return fineGrained; }

    /** Build the chip layout implied by this config. */
    ChipLayout layout() const { return ChipLayout(rotation, hasPcc()); }

    /** Sanity checks; fatal() on inconsistent settings. */
    void validate() const;
};

} // namespace pcmap

#endif // PCMAP_CORE_CONTROLLER_CONFIG_H
