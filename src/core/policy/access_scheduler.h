/**
 * @file
 * AccessScheduler policy: read/write queue arbitration for the memory
 * controller.
 *
 * One of the three pluggable policy interfaces the controller composes
 * (with WriteCoalescer and LineLayout).  A scheduler decides
 *
 *  - which queued read to issue next and over which chips (the
 *    FR-FCFS / FCFS scan, the open/closed page policy, and — in the
 *    RoW scheduler — the speculative read-under-write plans of
 *    Section IV-B);
 *  - which queued write may enter service (oldest-first among ranks
 *    whose write slot is free);
 *  - whether reads may still be served while the write queue drains.
 *
 * Planning is pure: schedulers look at queues and the read-only
 * BankStateView but never reserve chips or touch buses — issuing and
 * all timing-state mutation stay with the controller, which hands the
 * scheduler its window arithmetic through the ReadWindowModel
 * interface.
 */

#ifndef PCMAP_CORE_POLICY_ACCESS_SCHEDULER_H
#define PCMAP_CORE_POLICY_ACCESS_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller_config.h"
#include "core/policy/line_layout.h"
#include "core/policy/write_coalescer.h"
#include "mem/address.h"
#include "mem/bank_state.h"
#include "mem/request.h"
#include "sim/types.h"

namespace pcmap {

/** Candidate plan for issuing one read. */
struct ReadPlan
{
    bool feasible = false;
    std::size_t index = 0;   ///< position in the read queue
    unsigned rank = 0;
    Tick start = kTickMax;
    Tick end = 0;
    ChipMask chips = 0;      ///< chips read inline
    bool rowHit = false;
    bool speculative = false;///< some check deferred
    bool reconstruct = false;///< RoW: one data word rebuilt via PCC
    unsigned missingWord = kNoWord;
    unsigned busyChip = kNoWord;
    bool eccDeferred = false;///< ECC chip not read inline
};

/**
 * A queued read's last plan, kept across planning passes while the
 * channel's timing state holds still (see FrFcfsScheduler::planRead).
 */
struct PlanRecord
{
    static constexpr std::uint64_t kNoEpoch = ~0ull;

    /**
     * The plan with a now-independent start: at any tick the record
     * is valid, the read starts at max(now, plan.start) and ends as
     * much later than plan.end.
     */
    ReadPlan plan;
    std::uint64_t epoch = kNoEpoch; ///< timing epoch planned in
    Tick expireAt = 0;        ///< re-plan from this tick on
    bool specCapable = false; ///< spec buffer had room when planned
};

/** One queued read awaiting service. */
struct ReadEntry
{
    MemRequest req;
    MemoryPort::ReadCallback cb;
    bool delayedByWrite = false;

    // Address-derived invariants, primed once at enqueue, so that
    // re-planning an entry costs no decode or virtual layout query.
    DecodedAddr loc;
    std::uint64_t line = 0;
    ChipMask dataMask = 0;   ///< chips holding the 8 data words
    ChipMask inlineMask = 0; ///< dataMask plus the ECC chip
    unsigned eccChip = 0;
    unsigned pccChip = kNoWord; ///< kNoWord on a rank without PCC

    /** The scheduler's plan for this entry (reset = none yet). */
    PlanRecord record;

    /** Fill the cached fields from req.addr; call once at enqueue. */
    void
    prime(const AddressMapper &map, const LineLayout &ll)
    {
        loc = map.decode(req.addr);
        line = map.lineAddr(req.addr);
        dataMask = ll.dataChips(line);
        eccChip = ll.eccChip(line);
        inlineMask = dataMask | static_cast<ChipMask>(1u << eccChip);
        pccChip = ll.hasPcc() ? ll.pccChip(line) : kNoWord;
    }
};

/**
 * Bounded by readQueueCap, so the controller reserves it once: a
 * contiguous buffer, where a deque would allocate a node per entry
 * (an entry is larger than half of a deque's 512-byte node).
 */
using ReadQueue = std::vector<ReadEntry>;

/**
 * Window arithmetic the controller lends to its scheduler: the
 * earliest feasible [start, end) of an array read on @p chips,
 * honouring the lane and turnaround state of the channel's buses
 * (ChannelBuses), which only the controller mutates.  The scheduler
 * relies on its shape: start is max(lower_bound, the start at lower
 * bound 0), and end - start does not depend on lower_bound.
 */
class ReadWindowModel
{
  public:
    virtual void computeReadWindow(ChipMask chips, unsigned bank,
                                   std::uint64_t row, Tick lower_bound,
                                   bool row_hit, Tick &start,
                                   Tick &end) const = 0;

  protected:
    ~ReadWindowModel() = default;
};

/** Abstract read/write arbitration policy. */
class AccessScheduler
{
  public:
    AccessScheduler(const ControllerConfig &config,
                    const AddressMapper &mapper, const LineLayout &ll)
        : cfg(config), addrMap(mapper), layout(ll)
    {
    }

    virtual ~AccessScheduler() = default;

    /** Component name as used in policy compositions ("row"). */
    virtual const char *name() const = 0;

    /**
     * Plan the best read to issue; mutates only the entries'
     * delayedByWrite marks and plan records.  With @p immediate_only,
     * plans that cannot start at @p now are reported infeasible.
     */
    virtual ReadPlan planRead(ReadQueue &read_queue,
                              const BankStateView &banks,
                              const ReadWindowModel &windows, Tick now,
                              bool immediate_only,
                              unsigned pending_verifies) const = 0;

    /**
     * May reads still be served while the write queue drains?  The
     * RoW scheduler keeps serving reads that can start immediately
     * (Section IV-B); the conventional scheduler serves none.
     */
    virtual bool servesReadsDuringDrain() const { return false; }

    /** True when the page policy closes rows after every access. */
    bool
    closesRowAfterAccess() const
    {
        return cfg.pagePolicy == PagePolicy::Closed;
    }

    /**
     * Oldest-first write selection among ranks whose write slot is
     * free (one write group in service per rank).
     *
     * @return Index into @p write_queue, or write_queue.size() when
     *         no rank is free; @p soonest then holds the earliest
     *         slot-free tick worth retrying at.
     */
    std::size_t selectWrite(const WriteQueue &write_queue,
                            const std::vector<Tick> &slot_free_at,
                            Tick now, Tick &soonest) const;

    /** Attach the run's trace recorder (null = tracing off). */
    void
    setTrace(obs::TraceRecorder *rec, unsigned channel)
    {
        traceRec = rec;
        traceChannel = channel;
    }

  protected:
    const ControllerConfig &cfg;
    const AddressMapper &addrMap;
    const LineLayout &layout;
    obs::TraceRecorder *traceRec = nullptr;
    unsigned traceChannel = 0;
};

/**
 * The conventional scheduler: FR-FCFS (or strict FCFS) over inline
 * reads that touch all data chips plus the ECC chip in lockstep.
 */
class FrFcfsScheduler : public AccessScheduler
{
  public:
    using AccessScheduler::AccessScheduler;

    const char *name() const override { return "frfcfs"; }

    /**
     * Keeps each entry's plan in its PlanRecord and re-plans only the
     * entries whose record is stale: planned in another timing epoch
     * or with the other spec-buffer capability, or blocked and
     * speculating past the next change of their bank's busy chips.
     * Every other plan depends on now only through max(now, start),
     * so a pass over valid records picks exactly the plan a full
     * re-plan would.
     */
    ReadPlan planRead(ReadQueue &read_queue, const BankStateView &banks,
                      const ReadWindowModel &windows, Tick now,
                      bool immediate_only,
                      unsigned pending_verifies) const override;

  protected:
    /**
     * Does considerSpeculative ever produce a plan?  When it cannot,
     * blocked entries keep their plan until the timing state changes.
     */
    virtual bool speculates() const { return false; }

    /**
     * Hook invoked when re-planning a read whose inline chips are
     * blocked at @p now (while speculative buffer entries remain): a
     * subclass may offer a speculative plan to replace @p candidate.
     * Plans carry now-independent starts (see PlanRecord); the
     * candidate is blocked, so its start is above @p now.
     */
    virtual void
    considerSpeculative(const ReadEntry &entry, const BankStateView &banks,
                        const ReadWindowModel &windows, Tick now,
                        ReadPlan &candidate) const
    {
        (void)entry;
        (void)banks;
        (void)windows;
        (void)now;
        (void)candidate;
    }

  private:
    /** Recompute @p entry's PlanRecord at @p now. */
    void replan(ReadEntry &entry, const BankStateView &banks,
                const ReadWindowModel &windows, Tick now,
                bool spec_capable) const;
};

/**
 * The PCMap RoW scheduler (Section IV-B): on top of FR-FCFS, a read
 * blocked by a fine-grained write may be served speculatively — by
 * deferring the ECC check when only the ECC chip is busy, or by
 * XOR-reconstructing the one busy data chip's word from the other
 * seven plus PCC.
 */
class RowScheduler final : public FrFcfsScheduler
{
  public:
    using FrFcfsScheduler::FrFcfsScheduler;

    const char *name() const override { return "row"; }

    bool
    servesReadsDuringDrain() const override
    {
        return cfg.serveReadsDuringDrain;
    }

  protected:
    bool speculates() const override { return true; }

    void considerSpeculative(const ReadEntry &entry,
                             const BankStateView &banks,
                             const ReadWindowModel &windows, Tick now,
                             ReadPlan &candidate) const override;
};

/** Factory: the scheduler implied by @p cfg (RoW on/off). */
std::unique_ptr<AccessScheduler>
makeAccessScheduler(const ControllerConfig &cfg,
                    const AddressMapper &mapper, const LineLayout &ll);

} // namespace pcmap

#endif // PCMAP_CORE_POLICY_ACCESS_SCHEDULER_H
