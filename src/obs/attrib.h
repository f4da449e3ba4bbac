/**
 * @file
 * Cross-layer latency attribution: per-request phase ledgers.
 *
 * When enabled (obs attrib=true) every request that completes through
 * the stack carries a PhaseLedger that splits its enqueue->completion
 * latency into exact, non-overlapping phase spans:
 *
 *   linkWait       fabric arrival -> link grant (queued links only)
 *   cacheLookup    DRAM-tier hit window (enqueue -> hit delivery)
 *   mshrWait       parked behind an in-flight tier fill
 *   wbBufferStall  dirty victim parked in the tier's wb buffer
 *   queueResidency controller queue wait not explained by bank state
 *   bankWait       controller wait for the planned chips/bank to free
 *   arrayAccess    issue -> array completion (the device service time)
 *   roundPause     MLC+ group-write wait at round boundaries
 *   verifyDefer    annex: completion -> clean deferred-ECC verdict
 *   rollbackRedo   annex: faulted verify / cancelled-write redo time
 *
 * Accounting is cursor-based: account(p, until) charges [cursor,
 * until) to phase p and advances the cursor, so the core phases
 * partition [start, close] exactly — whatever no layer claimed lands
 * in an internal "unattributed" bucket that tests pin to zero.  The
 * two annex phases extend past the completion tick (a speculative
 * read completes before its deferred check), so the conservation rule
 * is: core phases + unattributed == close - start, always.
 *
 * Ledgers live in the AttribCollector's slab and are referenced from
 * MemRequest (and every op, buffer entry and event that outlives one)
 * by an 8-byte LedgerRef {slot, generation}; layers attach ledgers
 * only to request copies they store themselves.  A ledger's slot goes
 * back to the free list the moment it is sampled or discarded, so the
 * slab grows to the in-flight peak, not with run length.  A ref that
 * outlives its ledger is stale and resolves to nothing, so every call
 * through it is a no-op — exactly what the same call on an already
 * sampled ledger was.  Zero cost when disabled: no collector is
 * constructed, every ref is null, and every instrumentation site is
 * one compare.
 */

#ifndef PCMAP_OBS_ATTRIB_H
#define PCMAP_OBS_ATTRIB_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/ledger_ref.h"
#include "sim/types.h"

namespace pcmap::stats {
class Writer;
} // namespace pcmap::stats

namespace pcmap::obs::attrib {

/** Where one slice of a request's latency was spent. */
enum class Phase : std::uint8_t
{
    LinkWait,
    CacheLookup,
    MshrWait,
    WbBufferStall,
    QueueResidency,
    BankWait,
    ArrayAccess,
    RoundPause,
    VerifyDefer,
    RollbackRedo,
    Unattributed, ///< residual; conservation tests pin this to zero
};

constexpr std::size_t kPhaseCount = 11;
/** Phases that partition [start, close]; annex phases come after. */
constexpr std::size_t kCorePhaseCount = 8;

/** Stable lower-camel phase key used in stats, JSONL and tools. */
const char *phaseName(Phase p);

/** Operation class a ledger is attributed under. */
enum class AttribOp : std::uint8_t
{
    Read,
    Write,
    Writeback, ///< DRAM-tier dirty-victim drain toward PCM
};

constexpr std::size_t kOpCount = 3;

const char *attribOpName(AttribOp op);

/**
 * One request's phase accounting.  Opened, closed and sampled by the
 * collector; instrumentation sites reach it through a LedgerRef.
 */
class PhaseLedger
{
  public:
    /**
     * Charge [cursor, until) to @p p.  Clamped: a site may pass a
     * tick the cursor has already reached (another layer claimed the
     * span first) and the call is a no-op.  Closed ledgers ignore it.
     */
    void
    account(Phase p, Tick until)
    {
        if (closed || until <= cursor)
            return;
        spans[static_cast<std::size_t>(p)] += until - cursor;
        cursor = until;
    }

    Tick startTick() const { return start; }
    Tick closeTick() const { return closedAt; }
    Tick span(Phase p) const
    {
        return spans[static_cast<std::size_t>(p)];
    }
    std::uint64_t reqId() const { return id; }
    /** Late identity: a tier write-back learns its id at drain time. */
    void setReqId(std::uint64_t v) { id = v; }
    unsigned tenantId() const { return tenant; }
    AttribOp op() const { return opKind; }

  private:
    friend class AttribCollector;

    Tick start = 0;
    Tick cursor = 0;
    Tick closedAt = 0;
    std::array<Tick, kPhaseCount> spans{};
    std::uint64_t id = 0;
    unsigned tenant = 0;
    AttribOp opKind = AttribOp::Read;
    bool closed = false; ///< completion reached; spans frozen (annex aside)
    bool held = false;   ///< sampling deferred until the verify verdict
};

/** One of the K slowest requests, with its full ledger. */
struct TailExemplar
{
    Tick start = 0;
    Tick total = 0; ///< enqueue -> completion (annex excluded)
    std::uint64_t id = 0;
    unsigned tenant = 0;
    AttribOp op = AttribOp::Read;
    std::array<Tick, kPhaseCount> spans{};
};

/**
 * Owns the live ledgers of one run (a slab recycled through a free
 * list) plus the per-(tenant, op, phase) histograms and the bounded
 * tail-exemplar reservoir.
 */
class AttribCollector
{
  public:
    /** Per-(tenant, op) family: one histogram per phase + the total. */
    struct PhaseHists
    {
        std::array<LogHistogram, kPhaseCount> phase;
        std::array<std::uint64_t, kPhaseCount> sumTicks{};
        LogHistogram total;
        std::uint64_t totalSumTicks = 0;
    };

    /** @param exemplars Reservoir size K (0 disables exemplars). */
    explicit AttribCollector(unsigned exemplars);

    AttribCollector(const AttribCollector &) = delete;
    AttribCollector &operator=(const AttribCollector &) = delete;

    /**
     * Declare the tenant space: @p tenant_count tenants with
     * @p core_tenant mapping core id -> tenant id (the fabric's
     * contiguous-block partition; one tenant when the fabric is off).
     */
    void configureTenants(unsigned tenant_count,
                          std::vector<unsigned> core_tenant);

    /**
     * The ledger for @p req: the one it already carries, or a fresh
     * one opened at @p now (start = cursor = now) and attached to
     * @p req.  A non-null ref is returned unchanged even when stale:
     * a request never gets a second ledger.  @p Req is any struct
     * with coreId/id/ledger members (MemRequest; templated so this
     * header stays below mem/).
     */
    template <typename Req>
    LedgerRef
    ensure(Req &req, Tick now, AttribOp op)
    {
        if (!req.ledger)
            req.ledger = open(op, req.coreId, req.id, now);
        return req.ledger;
    }

    /** Open a ledger with no request to attach it to (tier wb). */
    LedgerRef open(AttribOp op, unsigned core_id, std::uint64_t id,
                   Tick now);

    /** The live ledger @p ref names; null when @p ref is null or stale. */
    PhaseLedger *
    find(LedgerRef ref)
    {
        if (ref.slot >= slotsUsed)
            return nullptr;
        Slot &s = slotAt(ref.slot);
        return s.generation == ref.generation ? &s.ledger : nullptr;
    }

    /** PhaseLedger::account() through @p ref (no-op when stale). */
    void
    account(LedgerRef ref, Phase p, Tick until)
    {
        if (PhaseLedger *led = find(ref))
            led->account(p, until);
    }

    /**
     * Close at the completion tick @p at: charge the residual to
     * Unattributed, freeze the core spans and fold the ledger into
     * the histograms — unless held for a deferred verify, in which
     * case sampling waits for finishSpec().  Idempotent: later calls
     * (a fill fan-out re-closing the primary waiter) are no-ops.
     */
    void close(LedgerRef ref, Tick at);

    /** Defer sampling until the deferred-ECC verdict (RoW reads). */
    void
    holdForVerify(LedgerRef ref)
    {
        if (PhaseLedger *led = find(ref))
            led->held = true;
    }

    /**
     * The deferred verify of a held ledger resolved at @p now:
     * charge [close, now) to the annex phase (VerifyDefer when clean,
     * RollbackRedo when faulted) and sample.
     */
    void finishSpec(LedgerRef ref, Tick now, bool fault);

    /**
     * Drop a ledger that will never complete as its own request (a
     * write absorbed by coalescing); it is never sampled, keeping the
     * histogram populations identical to the completion trace points.
     */
    void discard(LedgerRef ref);

    /** End of run: drop still-open ledgers (parked dirty victims). */
    void finalize();

    unsigned tenants() const { return tenantCount; }
    unsigned
    tenantOf(unsigned core_id) const
    {
        return core_id < coreTenant.size() ? coreTenant[core_id] : 0;
    }

    const PhaseHists &
    hists(unsigned tenant, AttribOp op) const
    {
        return families[tenant * kOpCount +
                        static_cast<std::size_t>(op)];
    }

    /**
     * Write the histograms as the "attrib." group: one "t<T>." group
     * per tenant and one "<op>." group per (tenant, op) family, each
     * with a percentile summary and an exact sum (ns) per phase and
     * for the total.  Only families that sampled a request appear, so
     * the key set depends on simulation results alone.
     */
    void exportStats(stats::Writer &w) const;

    /** Exemplars, slowest first (deterministic total/start/id order). */
    std::vector<TailExemplar> exemplars() const;

    std::uint64_t sampledCount() const { return numSampled; }
    std::uint64_t discardedCount() const { return numDiscarded; }
    /** Ledgers opened and not yet sampled or discarded. */
    std::size_t liveLedgers() const { return numLive; }
    /** Slab high-water mark: the most ledgers ever live at once. */
    std::size_t slabSlots() const { return slotsUsed; }

  private:
    /** A slab slot; its generation is odd while a ledger lives in it. */
    struct Slot
    {
        PhaseLedger ledger;
        std::uint32_t generation = 0;
        std::uint32_t nextFree = 0;
    };

    static constexpr std::uint32_t kChunkSlots = 64;
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    /** Fixed-size slab chunk: slot addresses never move. */
    struct Chunk
    {
        Slot slots[kChunkSlots];
    };

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks[slot / kChunkSlots]->slots[slot % kChunkSlots];
    }

    /** Return @p slot to the free list; refs to it go stale. */
    void release(std::uint32_t slot);
    /** Fold the closed ledger in @p slot into the histograms, free it. */
    void sample(std::uint32_t slot, const PhaseLedger &led);
    void offerExemplar(const PhaseLedger &led);

    unsigned tenantCount = 1;
    std::vector<unsigned> coreTenant;
    /** Ledger slab; grows a chunk at a time, never presized. */
    std::vector<std::unique_ptr<Chunk>> chunks;
    std::uint32_t slotsUsed = 0;
    std::uint32_t freeHead = kNoSlot;
    std::size_t numLive = 0;
    std::vector<PhaseHists> families; ///< [tenant * kOpCount + op]
    std::vector<TailExemplar> reservoir;
    unsigned reservoirCap;
    std::uint64_t numSampled = 0;
    std::uint64_t numDiscarded = 0;
};

/**
 * The collector's results as JSONL: one "phase" row per (tenant, op,
 * phase), one "total" row per (tenant, op), then "exemplar" rows
 * slowest-first.  All values are exact integers (ticks), so the text
 * is bit-reproducible across hosts and thread counts.
 */
std::string attribJsonl(const AttribCollector &collector);

} // namespace pcmap::obs::attrib

#endif // PCMAP_OBS_ATTRIB_H
