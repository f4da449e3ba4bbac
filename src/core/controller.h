/**
 * @file
 * The PCMap memory controller: one instance per channel.
 *
 * Implements the baseline PCM scheduling policy of Section II-B
 * (read-over-write priority with write-queue watermarks, FR-FCFS) and
 * the PCMap mechanisms of Section IV:
 *
 *  - fine-grained (sub-ranked) writes confined to essential chips;
 *  - RoW: during a one-essential-word write, reads to the same bank
 *    are served by reading the seven free data chips plus the PCC
 *    chip and XOR-reconstructing the busy chip's word; SECDED
 *    verification is deferred to a background operation;
 *  - WoW: consolidation of queued writes to the same bank whose
 *    essential chip sets are disjoint;
 *  - address-based rotation of data words and of the ECC/PCC words.
 *
 * Policy layer
 * ------------
 * The mechanisms are not hard-coded: the controller composes three
 * policy objects built by ControllerPolicy from its configuration —
 * an AccessScheduler (read planning, drain behaviour, page policy),
 * a WriteCoalescer (WoW grouping, two-/multi-step splitting) and a
 * LineLayout (word/code placement, read materialization).  The
 * controller keeps all timing-state mutation (reservations, buses,
 * event scheduling); the policies only plan.  See DESIGN.md,
 * "Controller policy layer".
 *
 * Timing model
 * ------------
 * Transaction level with per-(chip, bank) reservations, per-chip data
 * lanes, a shared command bus, and write-to-read turnaround — the same
 * abstraction level as DRAMSim2.  ECC/PCC code updates that the paper
 * propagates "in the background during idle periods" are modelled as
 * background operations that yield to pending reads; deferred SECDED
 * verifications of speculative reads use the same machinery, which is
 * exactly what makes the single ECC chip a bottleneck in the -NR
 * configurations and what the RDE rotation relieves.
 */

#ifndef PCMAP_CORE_CONTROLLER_H
#define PCMAP_CORE_CONTROLLER_H

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/channel_buses.h"
#include "core/controller_config.h"
#include "core/controller_stats.h"
#include "core/policy/access_scheduler.h"
#include "core/policy/controller_policy.h"
#include "core/policy/line_layout.h"
#include "core/policy/write_coalescer.h"
#include "mem/address.h"
#include "mem/backing_store.h"
#include "mem/bank_state.h"
#include "mem/energy.h"
#include "mem/irlp.h"
#include "mem/rank.h"
#include "mem/request.h"
#include "mem/wear.h"
#include "obs/trace_event.h"
#include "sim/event_queue.h"
#include "sim/types.h"

namespace pcmap {

namespace obs {
class TraceRecorder;
namespace attrib {
class AttribCollector;
} // namespace attrib
} // namespace obs

/**
 * One channel's memory controller (Figure 7).
 *
 * Owns the timing state of its single rank, its read/write queues and
 * the background-operation list, and drives everything from the shared
 * event queue.
 */
class MemoryController
{
  public:
    using ReadCallback = MemoryPort::ReadCallback;
    using VerifyCallback = MemoryPort::VerifyCallback;
    using RetryCallback = MemoryPort::RetryCallback;
    using WriteCompleteCallback = MemoryPort::WriteCompleteCallback;

    /**
     * @param name    Instance name for diagnostics ("mc0", ...).
     * @param cfg     Full controller configuration (validated here).
     * @param eq      Shared simulation event queue.
     * @param store   Functional memory image (shared across channels).
     * @param mapper  Address mapper (shared; defines bank/row decode).
     * @param channel Channel index this controller serves.
     */
    MemoryController(std::string name, const ControllerConfig &cfg,
                     EventQueue &eq, BackingStore &store,
                     const AddressMapper &mapper, unsigned channel);

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /** Try to enqueue a read; false when the read queue is full. */
    bool enqueueRead(const MemRequest &req, ReadCallback cb);

    /** Try to enqueue a write-back; false when the WQ is full. */
    bool enqueueWrite(const MemRequest &req);

    void setRetryCallback(RetryCallback cb) { retryCb = std::move(cb); }
    void setVerifyCallback(VerifyCallback cb) { verifyCb = std::move(cb); }
    void
    setWriteCompleteCallback(WriteCompleteCallback cb)
    {
        writeCompleteCb = std::move(cb);
    }

    /**
     * Attach the run's trace recorder (null detaches).  Propagated to
     * the composed scheduler/coalescer so policy decisions trace too.
     */
    void setTraceRecorder(obs::TraceRecorder *rec);

    /** Attach the run's attribution collector (null detaches). */
    void setAttrib(obs::attrib::AttribCollector *collector)
    {
        attrib = collector;
    }

    /** Counters (live; finalize() closes time-weighted windows). */
    const ControllerStats &stats() const { return counters; }

    /** Number of ranks this controller manages. */
    unsigned numRanks() const { return static_cast<unsigned>(ranks.size()); }

    /** Time-weighted IRLP tracker of one rank (default: rank 0). */
    const IrlpTracker &irlp(unsigned rank = 0) const
    {
        return irlpTrackers[rank];
    }

    /** Total write-service window time across ranks, in ticks. */
    double irlpWindowTicks() const;

    /** Integral of busy chips over all write windows (mean * window). */
    double irlpArea() const;

    /** Peak concurrent busy data chips across ranks. */
    unsigned irlpMaxSeen() const;

    /** Energy accounting for this channel. */
    const EnergyModel &energy() const { return energyModel; }

    /** Per-chip/per-line endurance accounting for this channel. */
    const WearTracker &wear() const { return wearTracker; }

    /** Close out time-integrated statistics at @p end_of_sim. */
    void finalize(Tick end_of_sim);

    /** True when no request is queued or in flight and no write train
     *  is live. */
    bool idle() const;

    std::size_t readQueueDepth() const { return readQ.size(); }
    std::size_t writeQueueDepth() const { return writeQ.size(); }

    /**
     * (rank, bank) pairs with any chip busy at @p now, for the epoch
     * sampler's bank-busy fraction.  Uses the monotone busy ceiling,
     * so write cancellation can leave it transiently stale-high.
     */
    unsigned busyBankCount(Tick now) const;

    /** Total (rank, bank) pairs this controller manages. */
    unsigned
    totalBankCount() const
    {
        return static_cast<unsigned>(ranks.size()) * cfg.banksPerRank;
    }

    const std::string &name() const { return instName; }
    const ControllerConfig &config() const { return cfg; }

    // --- Composed policy objects (read-only; for tests/diagnostics) ---
    const LineLayout &layoutPolicy() const { return *lineLayout; }
    const AccessScheduler &schedulerPolicy() const { return *scheduler; }
    const WriteCoalescer &coalescerPolicy() const { return *coalescer; }

  private:
    /**
     * A deferred code update, verification or pre-SET on specific
     * chips.  Its completion is plain data: completeBgOp() switches on
     * the kind.
     */
    struct BgOp
    {
        ChipMask chips = 0;
        unsigned rank = 0;
        unsigned bank = 0;
        std::uint64_t row = 0;
        Tick duration = 0;
        Tick created = 0;
        obs::BgKind kind = obs::BgKind::CodeUpdate;
        /** Verify only: the speculative read and its precomputed
         *  outcome, reported when the check completes. */
        bool fault = false;
        unsigned core = 0;
        ReqId id = 0;
        obs::attrib::LedgerRef ledger;
        /** Preset only: the line the pulse targets. */
        std::uint64_t presetLine = 0;

        /** Code updates and pre-SETs write the array; verifies read. */
        bool isWrite() const { return kind != obs::BgKind::Verify; }
    };

    /**
     * One in-flight split or round-chained write (DESIGN.md §7).  A
     * step train issues one chip step per event, the PCC step last
     * (two-step and multi-step writes); a round chain issues one
     * programming round of its WoW group per event.  Each event
     * carries only the train's slot; slots and their member vectors
     * are reused through a free list.
     */
    struct WriteTrain
    {
        unsigned rank = 0;
        unsigned bank = 0;
        std::uint64_t row = 0;
        /** Step chip masks, ending in the PCC step; none (nSteps 0)
         *  for a round chain, whose round count and pulse are the
         *  timing config's. */
        std::array<ChipMask, kWordsPerLine + 1> steps{};
        unsigned nSteps = 0;
        /** Next step index, or the round the next event starts. */
        unsigned next = 0;
        /** The group (round chain) or the one split write (multi-step;
         *  a two-step write schedules its completion at issue, so its
         *  train keeps none). */
        std::vector<WriteGroupMember> members;
    };

    // --- Scheduling ---
    void kick();
    void scheduleKick(Tick when);
    void issueRead(const ReadPlan &plan);
    /**
     * Try to issue the head-of-queue write (plus WoW merges).
     * @return true when something issued; otherwise sets
     * @p earliest to the first tick worth retrying at.
     */
    bool tryIssueWrites(Tick now, Tick &earliest);
    void tryIssueBgOps(Tick now);
    /** Finish a background op: at its end tick, or one read hit after
     *  issue for a verify when verify traffic is not modelled. */
    void completeBgOp(const BgOp &op);

    // --- Write trains ---
    /** Take a free train slot (or grow the pool) for one write. */
    std::uint32_t acquireTrain(unsigned rank, unsigned bank,
                               std::uint64_t row);
    void releaseTrain(std::uint32_t slot);
    /** Schedule the train's next step or round at @p when. */
    void scheduleTrain(Tick when, std::uint32_t slot);
    /** Issue the train's next step or round (the train's event). */
    void advanceTrain(std::uint32_t slot);

    // --- Timing helpers ---
    /** Reserve every chip in @p chips for [start, end). */
    void reserveChips(unsigned rank, ChipMask chips, unsigned bank,
                      std::uint64_t row, Tick start, Tick end,
                      bool is_write);

    // --- Write service pieces ---
    void completeSilentWrite(const WriteEntry &entry);
    /** Queue background ECC/PCC updates for a committed write. */
    void queueCodeUpdates(std::uint64_t line_addr, unsigned rank,
                          unsigned bank, std::uint64_t row, bool ecc,
                          bool pcc, Tick created);
    /**
     * Schedule the functional commit + completion of one write.
     * @param kind How the write was served (trace/latency labelling).
     * @param track_active When true the completion clears the
     *        cancellable activeWrite record.
     * @return Handle usable to cancel the completion.
     */
    EventHandle scheduleWriteCompletion(const WriteEntry &entry,
                                        Tick done, obs::WriteKind kind,
                                        bool track_active = false);

    /**
     * Queue the deferred SECDED verification of a speculative read;
     * @p fault is the functionally precomputed outcome delivered when
     * the background check completes.
     */
    void queueVerifyOp(const ReadPlan &plan, const MemRequest &req,
                       const DecodedAddr &loc, bool fault);

    void updateDrainState();
    void notifyRetry();

    /** Cancel the in-flight coarse write for a waiting read. */
    void maybeCancelActiveWrite(Tick now);

    /** Queue a background pre-SET for a freshly buffered write. */
    void queuePreset(std::uint64_t line_addr, unsigned rank,
                     unsigned bank, std::uint64_t row);

    /** True when a queued read needs any of @p chips there. */
    bool readWantsChips(unsigned rank, unsigned bank,
                        ChipMask chips) const;

    // --- Construction-time state ---
    std::string instName;
    ControllerConfig cfg;
    EventQueue &eventq;
    BackingStore &backing;
    const AddressMapper &addrMap;
    unsigned channelId;

    // --- Composed policies (built from cfg by ControllerPolicy) ---
    std::unique_ptr<LineLayout> lineLayout;
    std::unique_ptr<AccessScheduler> scheduler;
    std::unique_ptr<WriteCoalescer> coalescer;

    // --- Timing state ---
    /**
     * Bumped by every mutation of ranks or buses: the scheduler keeps
     * each queued read's plan while it holds still (DESIGN.md §9).
     */
    std::uint64_t timingEpoch = 0;
    std::vector<Rank> ranks;
    /** Read-only facade the policies plan over (aliases ranks). */
    BankStateView bankView{ranks, timingEpoch};
    /** Lanes, command bus and turnaround; the scheduler's windows. */
    ChannelBuses buses{cfg.timing, timingEpoch};
    /** One write group in service per rank. */
    std::vector<Tick> writeSlotFreeAt;

    /** In-flight coarse write, cancellable under write cancellation. */
    struct ActiveCoarseWrite
    {
        bool valid = false;
        unsigned rank = 0;
        unsigned bank = 0;
        Tick start = 0;
        Tick end = 0;
        /** First tick of the array pulse train (after column + burst). */
        Tick pulseStart = 0;
        /** One programming round's pulse length; 0 for single-round
         *  (SLC) writes, which cancel immediately as before. */
        Tick roundTicks = 0;
        /** Data chips announced to the rank's IRLP tracker. */
        ChipMask irlpChips = 0;
        EventHandle completion;
        WriteEntry entry;
    };
    ActiveCoarseWrite activeWrite;

    // --- Queues ---
    ReadQueue readQ;
    WriteQueue writeQ;
    std::vector<BgOp> bgOps;
    unsigned codeBacklog = 0; ///< code updates within bgOps
    unsigned pendingVerifies = 0; ///< speculative reads not yet checked
    bool draining = false;

    // --- Bookkeeping ---
    unsigned inFlight = 0; ///< issued but not yet completed transactions
    EventHandle kickEvent;
    Tick kickAt = kTickMax;

    RetryCallback retryCb;
    VerifyCallback verifyCb;
    WriteCompleteCallback writeCompleteCb;

    ControllerStats counters;
    std::vector<IrlpTracker> irlpTrackers;
    EnergyModel energyModel;
    WearTracker wearTracker;

    /**
     * Write-train slots and their free list; the pool grows to the
     * peak number of live trains.  Growth moves the records, so no
     * reference to one is held across a kick().
     */
    std::vector<WriteTrain> trains;
    std::vector<std::uint32_t> freeTrains;

    /** Run-level trace recorder; null when tracing is off. */
    obs::TraceRecorder *trace = nullptr;

    /** Run-level attribution collector; null when attribution is off. */
    obs::attrib::AttribCollector *attrib = nullptr;

    /** Age beyond which a background code update goes foreground. */
    static constexpr Tick kBgForceAge = 3 * kMicrosecond;
    /** Deferred verifications are forced much sooner (rollback window). */
    static constexpr Tick kVerifyForceAge = 2 * kMicrosecond;
};

} // namespace pcmap

#endif // PCMAP_CORE_CONTROLLER_H
