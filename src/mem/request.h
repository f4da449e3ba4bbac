/**
 * @file
 * Memory request types and the port interface between request sources
 * (cores, tenants, the DRAM cache tier) and the memory controllers.
 */

#ifndef PCMAP_MEM_REQUEST_H
#define PCMAP_MEM_REQUEST_H

#include <cstdint>
#include <functional>

#include "mem/line.h"
#include "obs/ledger_ref.h"
#include "sim/types.h"

namespace pcmap {

/** Kind of main-memory access. */
enum class ReqType : std::uint8_t { Read, Write };

/** Unique, monotonically assigned request identifier. */
using ReqId = std::uint64_t;

/**
 * A main-memory request at cache-line granularity.
 *
 * Reads carry no payload; the controller functionally fetches the line
 * and hands it to the completion callback.  Writes carry the full new
 * line content (the write-back data); the controller discovers the
 * essential words by comparing against the stored content, which
 * models the paper's read-before-write-on-chip scheme.
 */
struct MemRequest
{
    ReqId id = 0;
    ReqType type = ReqType::Read;
    std::uint64_t addr = 0;      ///< Byte address, line aligned.
    unsigned coreId = 0;         ///< Issuing core (for callbacks/stats).
    Tick enqueueTick = 0;        ///< Filled by the controller.
    /**
     * Latency-attribution ledger handle (null unless obs attrib is
     * on).  The ledger lives in the run's AttribCollector; layers
     * attach ledgers only to request copies they store themselves,
     * and copying a request copies the handle so the ledger follows
     * the request downstream.  The handle goes stale once the ledger
     * is sampled or discarded, and every call through it is then a
     * no-op.
     */
    obs::attrib::LedgerRef ledger;
    CacheLine data{};            ///< Write payload (writes only).
};

/** Completion notice delivered to the read issuer. */
struct ReadResponse
{
    ReqId id = 0;
    std::uint64_t addr = 0;
    unsigned coreId = 0;
    Tick completionTick = 0;
    CacheLine data{};
    /**
     * True when the line was delivered before its SECDED check could
     * complete — either a RoW read whose missing word was PCC-
     * reconstructed, or a read whose ECC chip was busy so the check
     * was deferred.  A VerifyCallback will fire later with the
     * outcome; a consumer that used the data before then must roll
     * back if the check fails (Section IV-B3).
     */
    bool speculative = false;
};

/**
 * Interface the memory system presents to request sources.
 *
 * Both enqueue calls return false when the corresponding queue is
 * full; the source must retry (sources register a retry callback so
 * the controller can signal free space — modelling the back-pressure
 * a full write queue exerts on the LLC).
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    using ReadCallback = std::function<void(const ReadResponse &)>;
    /**
     * Outcome of the deferred check of a speculative read:
     * @p fault is true when the delivered data failed SECDED and the
     * consumer must discard/roll back.
     */
    using VerifyCallback =
        std::function<void(ReqId id, unsigned core_id, bool fault)>;
    using RetryCallback = std::function<void()>;
    /**
     * Commit notice for a write-back that actually reached the array:
     * the request's identity plus its controller enqueue and commit
     * ticks.  Writes absorbed by in-queue coalescing never fire.
     */
    using WriteCompleteCallback = std::function<void(
        ReqId id, unsigned core_id, Tick enqueue, Tick commit)>;

    /** Try to enqueue a read; @p cb fires at completion. */
    virtual bool enqueueRead(const MemRequest &req, ReadCallback cb) = 0;

    /** Try to enqueue a write-back. */
    virtual bool enqueueWrite(const MemRequest &req) = 0;

    /**
     * Register a callback invoked whenever queue space frees up after
     * a rejected enqueue.
     */
    virtual void setRetryCallback(RetryCallback cb) = 0;

    /**
     * Register a callback fired when the deferred verification of a
     * speculatively delivered read completes (Section IV-B3).
     */
    virtual void setVerifyCallback(VerifyCallback cb) = 0;

    /**
     * Register a callback fired when a write-back commits to the
     * array.  Optional: the default implementation discards it, so
     * ports that have no write-side observers need not override.
     */
    virtual void setWriteCompleteCallback(WriteCompleteCallback cb)
    {
        (void)cb;
    }
};

/**
 * A MemoryPort layered on top of another: every operation forwards to
 * the downstream port verbatim.  Intermediate tiers (the fabric link,
 * the DRAM cache tier) and test shims derive from this and override
 * only the faces they actually intercept — a tier that leaves, say,
 * verification untouched inherits exact pass-through behaviour, so
 * stacking a transparent tier cannot perturb the event sequence.
 */
class ForwardingPort : public MemoryPort
{
  public:
    explicit ForwardingPort(MemoryPort &downstream) : down(downstream) {}

    bool
    enqueueRead(const MemRequest &req, ReadCallback cb) override
    {
        return down.enqueueRead(req, std::move(cb));
    }

    bool
    enqueueWrite(const MemRequest &req) override
    {
        return down.enqueueWrite(req);
    }

    void
    setRetryCallback(RetryCallback cb) override
    {
        down.setRetryCallback(std::move(cb));
    }

    void
    setVerifyCallback(VerifyCallback cb) override
    {
        down.setVerifyCallback(std::move(cb));
    }

    void
    setWriteCompleteCallback(WriteCompleteCallback cb) override
    {
        down.setWriteCompleteCallback(std::move(cb));
    }

  protected:
    MemoryPort &down;
};

} // namespace pcmap

#endif // PCMAP_MEM_REQUEST_H
