/**
 * @file
 * The host-to-memory link: per-tenant queueing, serialization delay,
 * and QoS-aware arbitration in front of the memory controllers.
 *
 * LinkModel implements MemoryPort, so cores and open-loop tenant
 * streams drive it exactly as they would drive MainMemory.  Two
 * operating modes:
 *
 *  - bypass (linkGbps <= 0 and linkNs <= 0): requests forward
 *    synchronously to the downstream port and only per-tenant
 *    latency/throughput accounting is added.  The event sequence is
 *    identical to driving MainMemory directly, which is what makes a
 *    1-tenant closed-loop fabric run byte-identical to the legacy
 *    path.
 *  - queued: each tenant owns a bounded FIFO; a QoS-aware arbiter
 *    (strict priority or weighted round-robin) grants the link, each
 *    grant occupies it for the request's serialization time, and the
 *    request arrives downstream one propagation delay later.  A
 *    downstream rejection parks the request in a stash that retries
 *    on the controller's queue-space notification, preserving FIFO
 *    order across the device boundary.
 *
 * Latency attribution: link wait is arrival -> link grant; device
 * latency is link handoff -> completion.  The two are sampled into
 * separate per-tenant histograms so tail latency can be split into
 * fabric queueing vs device service (the fig_fabric tables).
 */

#ifndef PCMAP_FABRIC_LINK_MODEL_H
#define PCMAP_FABRIC_LINK_MODEL_H

#include <cstdint>
#include <deque>
#include <vector>

#include "fabric/fabric.h"
#include "mem/request.h"
#include "obs/histogram.h"
#include "sim/event_queue.h"

namespace pcmap::stats {
class Writer;
} // namespace pcmap::stats

namespace pcmap::obs {
class TraceRecorder;
namespace attrib {
class AttribCollector;
} // namespace attrib
} // namespace pcmap::obs

namespace pcmap::fabric {

/** Per-tenant fabric accounting (histogram ticks, raw counts). */
struct TenantCounters
{
    /** Full fabric-arrival -> completion read latency. */
    obs::LogHistogram readTotal;
    /** Arrival -> link grant (queued mode only; empty in bypass). */
    obs::LogHistogram linkWait;
    /** Link handoff -> completion (queued mode only). */
    obs::LogHistogram deviceRead;
    /** Controller enqueue -> commit of this tenant's write-backs. */
    obs::LogHistogram writeDevice;
    std::uint64_t readsAccepted = 0;
    std::uint64_t writesAccepted = 0;
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCommitted = 0;
    /** Enqueue attempts refused (link queue or downstream full). */
    std::uint64_t rejected = 0;
};

/** The multiplexing link between request sources and MainMemory. */
class LinkModel : public ForwardingPort
{
  public:
    /**
     * @param cfg         Fabric parameters (tenant specs, link shape).
     * @param core_tenant Owning tenant of each core id.
     * @param eq          Shared event queue.
     * @param downstream  The memory system behind the link.
     */
    LinkModel(const FabricConfig &cfg,
              std::vector<unsigned> core_tenant, EventQueue &eq,
              MemoryPort &downstream);

    // MemoryPort interface (verification forwards via ForwardingPort:
    // it is a device-side concern the link never delays) --------------
    bool enqueueRead(const MemRequest &req, ReadCallback cb) override;
    bool enqueueWrite(const MemRequest &req) override;
    void setRetryCallback(RetryCallback cb) override;

    /**
     * The link samples per-tenant write commits itself (registered on
     * the downstream port at construction); an upstream registration
     * would clobber that, so it keeps MemoryPort's discard semantics.
     */
    void setWriteCompleteCallback(WriteCompleteCallback cb) override
    {
        (void)cb;
    }

    /** Attach the run's trace recorder (null detaches). */
    void setTraceRecorder(obs::TraceRecorder *rec) { trace = rec; }

    /**
     * Attach the run's latency-attribution collector.  Only the
     * queued link opens ledgers (bypass adds no timing to explain).
     */
    void
    setAttrib(obs::attrib::AttribCollector *collector)
    {
        attrib = collector;
    }

    // Introspection (stat export / tests) -----------------------------
    unsigned
    tenantCount() const
    {
        return static_cast<unsigned>(tenants.size());
    }
    const TenantCounters &tenant(unsigned t) const { return tenants[t]; }
    const FabricConfig &config() const { return cfg; }
    /** Ticks the link spent serializing requests. */
    Tick busyTicks() const { return linkBusyTicks; }
    /** True when the link adds no timing (pure accounting). */
    bool bypass() const { return passThrough; }

    /**
     * Write the fabric's counters as the "fabric." group: Jain's
     * fairness index and the link utilization, then one "tenant<T>."
     * group per tenant.  @p sim_ticks is the run length, for
     * throughput and utilization.
     */
    void exportStats(stats::Writer &w, Tick sim_ticks) const;

  private:
    struct Pending
    {
        MemRequest req;
        ReadCallback cb; ///< wrapped lazily at first delivery attempt
        Tick arrival = 0;
        unsigned tenantId = 0;
        bool wrapped = false;
    };

    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    unsigned tenantOf(unsigned core_id) const;
    ReadCallback wrapRead(unsigned t, Tick arrival, Tick handoff,
                          ReadCallback cb);
    /** Grant the link while it is free and the stash is clear. */
    void pump();
    void schedulePump(Tick at);
    /** Arbiter: next tenant with a queued request, or kNone. */
    std::size_t pickTenant();
    /** Hand @p p to the downstream port; false when it refused. */
    bool tryDeliver(Pending &p);
    void deliverOrStash(Pending &&p);
    void onDownstreamRetry();

    FabricConfig cfg;
    std::vector<unsigned> coreTenant;
    EventQueue &eventq;
    bool passThrough;
    /** Serialization ticks per request (72 B at linkGbps GB/s). */
    Tick serTicks = 0;
    /** One-way propagation delay in ticks. */
    Tick propTicks = 0;

    std::vector<TenantCounters> tenants;
    std::vector<std::deque<Pending>> queues;
    /** Requests the downstream port refused, in delivery order. */
    std::deque<Pending> stash;

    Tick linkFreeAt = 0;
    Tick linkBusyTicks = 0;
    bool pumpScheduled = false;

    /** Arbiter state: rotation pointer and WRR credits. */
    std::size_t rrNext = 0;
    std::vector<unsigned> credits;

    RetryCallback upstreamRetry;
    obs::TraceRecorder *trace = nullptr;
    obs::attrib::AttribCollector *attrib = nullptr;
};

} // namespace pcmap::fabric

#endif // PCMAP_FABRIC_LINK_MODEL_H
