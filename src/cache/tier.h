/**
 * @file
 * The timed DRAM cache tier: the first real intermediate stop in the
 * composable MemoryPort stack (source/fabric -> CacheTier -> PCM).
 *
 * The tier wraps the functional SetAssocCache array with cycle-level
 * behaviour on the event queue:
 *
 *  - a read hit delivers the cached line one hitTicks later;
 *  - a read miss allocates a bounded MSHR entry and fetches the line
 *    from the PCM side; secondary misses to the same line merge onto
 *    the outstanding entry, and a full MSHR file refuses the enqueue
 *    so the existing retry-callback seam exerts back-pressure exactly
 *    like a full controller queue;
 *  - writes carry full-line payloads, so a miss installs the line
 *    without a fetch (write-allocate, no-fetch) and a hit updates it
 *    in place — either way the write is absorbed and, like writes
 *    absorbed by in-queue coalescing, never fires the
 *    write-complete callback itself;
 *  - dirty victims park in a bounded write-back buffer that drains
 *    toward the PCM write queue in batches of writebackBatch lines,
 *    so PCM sees bursts of few-dirty-word write-backs instead of the
 *    raw store stream (the Figure 2 traffic shape).
 *
 * The tier is constructed only when TierConfig::enabled(); a disabled
 * tier constructs nothing at all, which is what makes tier=none
 * byte-identical to the pre-tier simulator by construction — the same
 * pinning discipline as org=slc and the 1-tenant fabric.
 */

#ifndef PCMAP_CACHE_TIER_H
#define PCMAP_CACHE_TIER_H

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "mem/request.h"
#include "obs/histogram.h"
#include "sim/event_queue.h"

namespace pcmap::obs {
class TraceRecorder;
namespace attrib {
class AttribCollector;
} // namespace attrib
} // namespace pcmap::obs

namespace pcmap::cache {

/** Shape and timing of the DRAM cache tier.  sizeBytes 0 = no tier. */
struct TierConfig
{
    std::uint64_t sizeBytes = 0; ///< 0 disables the tier entirely.
    unsigned ways = 8;
    ReplPolicy repl = ReplPolicy::Lru;
    /** DRAM hit service time (ticks are ps; 40'000 = 40 ns). */
    Tick hitTicks = 40'000;
    /** Outstanding distinct-line misses (MSHR file size). */
    unsigned mshrCap = 16;
    /** Dirty victims per drain burst toward the PCM write queue. */
    unsigned writebackBatch = 4;
    /** Parked dirty victims before the tier refuses new requests. */
    unsigned wbBufferCap = 32;

    bool enabled() const { return sizeBytes != 0; }

    /** Fatal on unusable shapes (only called when enabled). */
    void validate() const;
};

/**
 * Parse the sweep axis grammar: "none" or
 * "dram:<size>[KMG]:<ways>:<repl>" (e.g. "dram:256M:8:lru").
 * fatal()s with diagnostics on malformed input.
 */
TierConfig tierConfigFromString(const std::string &text);

/** Canonical axis string ("none" or "dram:<size>:<ways>:<repl>"). */
std::string tierConfigToString(const TierConfig &cfg);

/** Tier-level accounting beyond the functional array's stats. */
struct TierCounters
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;
    std::uint64_t writeMisses = 0;
    /** Secondary misses merged onto an outstanding MSHR entry. */
    std::uint64_t mshrMerges = 0;
    /** Enqueues refused because the MSHR file was full. */
    std::uint64_t mshrRejects = 0;
    /** Enqueues refused because the write-back buffer was full. */
    std::uint64_t wbRejects = 0;
    /** Lines fetched from PCM and installed. */
    std::uint64_t fills = 0;
    /** Dirty victims actually enqueued toward the PCM write queue. */
    std::uint64_t writebacks = 0;
    std::uint64_t dirtyWordsWrittenBack = 0;
    /** Read-miss arrival -> data delivery (ticks). */
    obs::LogHistogram missLatency;
    /** Lines handed to PCM per drain burst. */
    obs::LogHistogram writebackBatch;

    std::uint64_t
    hits() const
    {
        return readHits + writeHits;
    }
    std::uint64_t
    misses() const
    {
        return readMisses + writeMisses;
    }
    double
    hitRate() const
    {
        const std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** The cycle-level DRAM cache between the fabric and the PCM side. */
class CacheTier : public ForwardingPort
{
  public:
    /**
     * @param cfg        Tier shape; must be enabled() and valid.
     * @param eq         Shared event queue.
     * @param downstream The PCM-side port behind the tier.
     */
    CacheTier(const TierConfig &cfg, EventQueue &eq,
              MemoryPort &downstream);

    // MemoryPort interface --------------------------------------------
    bool enqueueRead(const MemRequest &req, ReadCallback cb) override;
    bool enqueueWrite(const MemRequest &req) override;
    void setRetryCallback(RetryCallback cb) override;
    void setVerifyCallback(VerifyCallback cb) override;
    // setWriteCompleteCallback forwards via ForwardingPort: commit
    // notices are produced by the PCM controller and the tier's own
    // write-backs are the only writes that ever reach it.

    /** Attach the run's trace recorder (null detaches). */
    void setTraceRecorder(obs::TraceRecorder *rec) { trace = rec; }

    /** Attach the run's latency-attribution collector (null detaches). */
    void
    setAttrib(obs::attrib::AttribCollector *collector)
    {
        attrib = collector;
    }

    /**
     * Push every resident dirty line into the write-back buffer and
     * start draining it toward PCM (finishing on downstream retries).
     * For end-of-run condensation studies; never called implicitly.
     */
    void flushDirty();

    // Introspection (stat export / tests) -----------------------------
    const TierConfig &config() const { return cfg; }
    const TierCounters &counters() const { return tierStats; }
    /** The functional array's own hit/miss/writeback accounting. */
    const CacheLevelStats &arrayStats() const { return array.stats(); }
    std::size_t mshrInUse() const { return mshrs.size(); }
    std::size_t wbBuffered() const { return wbBuffer.size(); }

  private:
    struct Waiter
    {
        MemRequest req;
        ReadCallback cb;
        Tick arrival = 0;
    };

    /** One outstanding distinct-line miss. */
    struct Mshr
    {
        std::uint64_t line = 0;
        bool issued = false; ///< fetch accepted by the PCM side
        std::vector<Waiter> waiters;
    };

    /** A dirty victim parked until its drain burst. */
    struct PendingWriteback
    {
        Eviction ev; ///< ev.writer is the attributed core
        /** Writeback phase ledger, opened at park (null: attrib off). */
        obs::attrib::LedgerRef ledger;
    };

    std::uint64_t lineOf(std::uint64_t addr) const;
    Mshr *findMshr(std::uint64_t line);
    PendingWriteback *findWb(std::uint64_t line);
    /** Deliver @p data to @p w at now + hitTicks. */
    void scheduleHit(const Waiter &w, const CacheLine &data);
    /** Hand the MSHR's fetch to the PCM side; false when refused. */
    bool issueFetch(Mshr &m);
    void onFillResponse(const ReadResponse &resp);
    /**
     * Install @p data with @p dirty words by @p writer, routing any
     * dirty victim to the WB buffer.
     */
    void install(std::uint64_t line, const CacheLine &data, WordMask dirty,
                 unsigned writer);
    /** Drain parked write-backs while the PCM side accepts them. */
    void drainWritebacks();
    void onDownstreamRetry();
    /** Wake the upstream source if a reject preceded this freeing. */
    void notifyUpstream();

    TierConfig cfg;
    EventQueue &eventq;
    SetAssocCache array;
    TierCounters tierStats;

    std::vector<Mshr> mshrs;
    std::deque<PendingWriteback> wbBuffer;
    /**
     * Fills delivered speculatively: fill id -> the merged waiters,
     * so the deferred verify outcome fans out to every one of them.
     */
    std::unordered_map<ReqId, std::vector<std::pair<ReqId, unsigned>>>
        speculativeFills;

    /** True once a drain burst stalled on a refused enqueue. */
    bool wbStalled = false;
    /** An upstream enqueue was refused since the last wake-up. */
    bool upstreamBlocked = false;
    /** Monotonic id source for synthesized write-back requests. */
    std::uint64_t wbSeq = 0;

    RetryCallback upstreamRetry;
    VerifyCallback upstreamVerify;
    obs::TraceRecorder *trace = nullptr;
    obs::attrib::AttribCollector *attrib = nullptr;
};

} // namespace pcmap::cache

#endif // PCMAP_CACHE_TIER_H
