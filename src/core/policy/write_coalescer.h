/**
 * @file
 * WriteCoalescer policy: how queued write-backs combine into (or split
 * out of) one fine-grained write-service group.
 *
 * One of the three pluggable policy interfaces the memory controller
 * composes (with AccessScheduler and LineLayout).  Once the scheduler
 * has picked the head write, the coalescer decides
 *
 *  - whether the write splits into partial steps to keep RoW reads
 *    flowing (the two-step 1-word split of Section IV-B1, or the
 *    multi-step serialization of Section IV-B4);
 *  - which further queued writes join its service window (the WoW
 *    disjoint-chip-set consolidation of Section IV-C).
 *
 * The coalescer inspects queues and the read-only BankStateView and
 * accounts into ControllerStats, but never reserves chips — all
 * timing-state mutation stays with the controller.
 */

#ifndef PCMAP_CORE_POLICY_WRITE_COALESCER_H
#define PCMAP_CORE_POLICY_WRITE_COALESCER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/controller_config.h"
#include "core/controller_stats.h"
#include "core/policy/line_layout.h"
#include "mem/address.h"
#include "mem/backing_store.h"
#include "mem/bank_state.h"
#include "mem/request.h"
#include "sim/types.h"

namespace pcmap {

namespace obs {
class TraceRecorder;
} // namespace obs

/** One queued write-back awaiting service. */
struct WriteEntry
{
    MemRequest req;
    unsigned cancels = 0;    ///< times cancelled by a read
    bool presetDone = false; ///< line pre-SET while buffered
    /**
     * Programming rounds already committed to the array.  Only ever
     * non-zero for MLC+ organizations (timing.writeRounds > 1): a
     * round-boundary cancellation keeps the finished rounds, so the
     * re-issued write programs only the remainder.
     */
    unsigned roundsDone = 0;

    // Address-derived invariants, primed once at enqueue (the write
    // selection and coalescing scans would otherwise re-decode every
    // queued entry on every kick).
    DecodedAddr loc;
    std::uint64_t line = 0;

    /** Fill the cached fields from req.addr; call once at enqueue. */
    void
    prime(const AddressMapper &map)
    {
        loc = map.decode(req.addr);
        line = map.lineAddr(req.addr);
    }
};

using WriteQueue = std::deque<WriteEntry>;

/** One write admitted to a common fine-grained service window. */
struct WriteGroupMember
{
    WriteEntry entry;
    WordMask essential = 0;
    ChipMask chips = 0;
    std::uint64_t line = 0;
    std::uint64_t row = 0;
    unsigned nEssential = 0;
};

/** Abstract write grouping/splitting policy. */
class WriteCoalescer
{
  public:
    WriteCoalescer(const ControllerConfig &config,
                   const AddressMapper &mapper, const LineLayout &ll,
                   BackingStore &store)
        : cfg(config), addrMap(mapper), layout(ll), backing(store)
    {
    }

    virtual ~WriteCoalescer() = default;

    /** Component name as used in policy compositions ("wow"). */
    virtual const char *name() const = 0;

    /**
     * Should this write split into data+ECC then PCC steps so a
     * concurrent RoW read can reconstruct around its one busy chip
     * (Section IV-B1)?  The same rule for every coalescer.
     */
    bool
    splitTwoStep(unsigned n_essential, bool reads_waiting) const
    {
        return cfg.enableRoW && cfg.enableTwoStep && n_essential == 1 &&
               reads_waiting;
    }

    /**
     * Should this write serialize into one-chip partial steps
     * (Section IV-B4)?  Mutually exclusive with consolidation — a
     * merging coalescer prefers writing the words in parallel.
     */
    virtual bool splitMultiStep(unsigned n_essential,
                                bool reads_waiting) const = 0;

    /**
     * Admit further queued writes into the head write's service
     * window starting at @p window_start on (@p rank, @p bank).
     * Admitted entries are removed from @p write_queue and appended
     * to @p group; @p occupied accumulates their chips.
     */
    virtual void collect(WriteQueue &write_queue, unsigned rank,
                         unsigned bank, Tick window_start,
                         const BankStateView &banks,
                         std::vector<WriteGroupMember> &group,
                         ChipMask &occupied,
                         ControllerStats &stats) const = 0;

    /**
     * Should an in-flight multi-round (MLC+) write pause at the next
     * round boundary so waiting reads can slip in (the write-pausing
     * generalization of RoW)?  Never consulted for single-round
     * organizations.  The default ties pausing to the RoW switch:
     * a controller that cannot serve reads around writes gains
     * nothing from pausing them.
     */
    virtual bool
    pauseAtRoundBoundary(bool reads_waiting) const
    {
        return cfg.enableRoW && reads_waiting;
    }

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
    BackingStore &backing;
    obs::TraceRecorder *traceRec = nullptr;
    unsigned traceChannel = 0;
};

/**
 * No consolidation: every write is served alone.  Splitting follows
 * the RoW switches (two-step for 1-word writes; the §IV-B4 multi-step
 * extension when enabled).
 */
class PassThroughCoalescer final : public WriteCoalescer
{
  public:
    using WriteCoalescer::WriteCoalescer;

    const char *name() const override { return "solo"; }

    bool splitMultiStep(unsigned n_essential,
                        bool reads_waiting) const override;
    void collect(WriteQueue &write_queue, unsigned rank, unsigned bank,
                 Tick window_start, const BankStateView &banks,
                 std::vector<WriteGroupMember> &group, ChipMask &occupied,
                 ControllerStats &stats) const override;
};

/**
 * WoW consolidation (Section IV-C): scan the queue for same-bank
 * writes whose essential chip sets are disjoint from the group's and
 * already free, and serve them all in one window.
 */
class WowCoalescer final : public WriteCoalescer
{
  public:
    using WriteCoalescer::WriteCoalescer;

    const char *name() const override { return "wow"; }

    bool splitMultiStep(unsigned n_essential,
                        bool reads_waiting) const override;
    void collect(WriteQueue &write_queue, unsigned rank, unsigned bank,
                 Tick window_start, const BankStateView &banks,
                 std::vector<WriteGroupMember> &group, ChipMask &occupied,
                 ControllerStats &stats) const override;
};

/** Factory: the coalescer implied by @p cfg (WoW on/off). */
std::unique_ptr<WriteCoalescer>
makeWriteCoalescer(const ControllerConfig &cfg, const AddressMapper &mapper,
                   const LineLayout &ll, BackingStore &store);

} // namespace pcmap

#endif // PCMAP_CORE_POLICY_WRITE_COALESCER_H
