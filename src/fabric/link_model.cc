#include "fabric/link_model.h"

#include <cmath>
#include <utility>

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"
#include "sim/stats.h"

namespace pcmap::fabric {

namespace {

/**
 * Modelled wire footprint of one request: a 64 B line plus an 8 B
 * command/completion header, half-duplex.  Reads and writes are
 * charged the same (the read's response data shares the link with the
 * next request's payload in this simplification; DESIGN.md discusses
 * the trade).
 */
constexpr double kRequestBytes = 72.0;

/** WRR weights per QoS class (LatencySensitive, BestEffort). */
constexpr unsigned kWrrWeightLs = 4;
constexpr unsigned kWrrWeightBe = 1;

unsigned
wrrWeight(QosClass q)
{
    return q == QosClass::LatencySensitive ? kWrrWeightLs
                                           : kWrrWeightBe;
}

} // namespace

LinkModel::LinkModel(const FabricConfig &config,
                     std::vector<unsigned> core_tenant, EventQueue &eq,
                     MemoryPort &downstream)
    : ForwardingPort(downstream), cfg(config),
      coreTenant(std::move(core_tenant)), eventq(eq),
      passThrough(cfg.bypassLink()),
      tenants(cfg.tenants.size()), queues(cfg.tenants.size()),
      credits(cfg.tenants.size())
{
    pcmap_assert(!cfg.tenants.empty());
    if (cfg.linkGbps > 0.0) {
        // 1 B at 1 GB/s is 1 ns = 1000 ticks.
        serTicks = static_cast<Tick>(
            std::llround(kRequestBytes * 1000.0 / cfg.linkGbps));
    }
    propTicks = static_cast<Tick>(std::llround(cfg.linkNs * 1000.0));
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
        credits[t] = wrrWeight(cfg.tenants[t].qos);

    // Per-tenant write commit latency rides the controller's
    // write-complete notification in both modes.  Writes absorbed by
    // coalescing never commit on their own and are not sampled.
    down.setWriteCompleteCallback(
        [this](ReqId, unsigned core_id, Tick enq, Tick commit) {
            TenantCounters &c = tenants[tenantOf(core_id)];
            ++c.writesCommitted;
            c.writeDevice.sample(commit - enq);
        });

    if (!passThrough) {
        // Queue-space notifications first drain the stash (requests
        // already past the link), then wake the upstream sources, then
        // resume granting.
        down.setRetryCallback([this]() { onDownstreamRetry(); });
    }
}

unsigned
LinkModel::tenantOf(unsigned core_id) const
{
    pcmap_assert(core_id < coreTenant.size());
    return coreTenant[core_id];
}

MemoryPort::ReadCallback
LinkModel::wrapRead(unsigned t, Tick arrival, Tick handoff,
                    ReadCallback cb)
{
    return [this, t, arrival, handoff,
            cb = std::move(cb)](const ReadResponse &resp) {
        TenantCounters &c = tenants[t];
        ++c.readsCompleted;
        c.readTotal.sample(resp.completionTick - arrival);
        if (!passThrough)
            c.deviceRead.sample(resp.completionTick - handoff);
        if (cb)
            cb(resp);
    };
}

bool
LinkModel::enqueueRead(const MemRequest &req, ReadCallback cb)
{
    const unsigned t = tenantOf(req.coreId);
    const Tick now = eventq.now();
    if (passThrough) {
        const bool ok =
            down.enqueueRead(req, wrapRead(t, now, now, std::move(cb)));
        if (ok)
            ++tenants[t].readsAccepted;
        else
            ++tenants[t].rejected;
        return ok;
    }
    if (queues[t].size() >= cfg.queueCap) {
        ++tenants[t].rejected;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::LinkDrop, now, 0,
                        req.id, queues[t].size(), 0, t);
        return false;
    }
    ++tenants[t].readsAccepted;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::LinkEnqueue, now, 0, req.id,
                    queues[t].size() + 1, 0, t);
    queues[t].push_back(Pending{req, std::move(cb), now, t, false});
    if (attrib != nullptr) {
        attrib->ensure(queues[t].back().req, now,
                       obs::attrib::AttribOp::Read);
    }
    pump();
    return true;
}

bool
LinkModel::enqueueWrite(const MemRequest &req)
{
    const unsigned t = tenantOf(req.coreId);
    const Tick now = eventq.now();
    if (passThrough) {
        const bool ok = down.enqueueWrite(req);
        if (ok)
            ++tenants[t].writesAccepted;
        else
            ++tenants[t].rejected;
        return ok;
    }
    if (queues[t].size() >= cfg.queueCap) {
        ++tenants[t].rejected;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::LinkDrop, now, 0,
                        req.id, queues[t].size(), 0, t);
        return false;
    }
    ++tenants[t].writesAccepted;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::LinkEnqueue, now, 0, req.id,
                    queues[t].size() + 1, 0, t);
    queues[t].push_back(Pending{req, ReadCallback{}, now, t, false});
    if (attrib != nullptr) {
        attrib->ensure(queues[t].back().req, now,
                       obs::attrib::AttribOp::Write);
    }
    pump();
    return true;
}

void
LinkModel::setRetryCallback(RetryCallback cb)
{
    if (passThrough) {
        // No link-side queueing: back-pressure notifications flow
        // straight through, exactly as without a link.
        down.setRetryCallback(std::move(cb));
        return;
    }
    upstreamRetry = std::move(cb);
}

std::size_t
LinkModel::pickTenant()
{
    const std::size_t n = queues.size();
    if (cfg.arb == LinkArb::StrictPriority) {
        // Latency-sensitive tenants strictly first; one shared
        // rotation pointer keeps selection round-robin within a class.
        std::size_t best_be = kNone;
        for (std::size_t off = 0; off < n; ++off) {
            const std::size_t t = (rrNext + off) % n;
            if (queues[t].empty())
                continue;
            if (cfg.tenants[t].qos == QosClass::LatencySensitive) {
                rrNext = (t + 1) % n;
                return t;
            }
            if (best_be == kNone)
                best_be = t;
        }
        if (best_be != kNone)
            rrNext = (best_be + 1) % n;
        return best_be;
    }
    // Weighted round-robin: spend a credit per grant; when every
    // backlogged tenant is out of credits, refill all to their QoS
    // weight.  Deterministic by construction (no randomness, fixed
    // iteration order).
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t off = 0; off < n; ++off) {
            const std::size_t t = (rrNext + off) % n;
            if (queues[t].empty() || credits[t] == 0)
                continue;
            --credits[t];
            rrNext = (t + 1) % n;
            return t;
        }
        bool any_backlog = false;
        for (std::size_t t = 0; t < n; ++t) {
            if (!queues[t].empty()) {
                any_backlog = true;
                credits[t] = wrrWeight(cfg.tenants[t].qos);
            }
        }
        if (!any_backlog)
            return kNone;
    }
    return kNone;
}

bool
LinkModel::tryDeliver(Pending &p)
{
    // Everything up to the downstream handoff — queueing behind the
    // arbiter, serialization, propagation, stash retries — is link
    // wait; a refused delivery advances the span on the next attempt.
    if (const obs::attrib::LedgerRef led = p.req.ledger)
        attrib->account(led, obs::attrib::Phase::LinkWait, eventq.now());
    if (p.req.type == ReqType::Read) {
        if (!p.wrapped) {
            // The handoff tick is the first delivery attempt: from
            // here on any wait is downstream back-pressure, accounted
            // as device time.
            p.cb = wrapRead(p.tenantId, p.arrival, eventq.now(),
                            std::move(p.cb));
            p.wrapped = true;
        }
        return down.enqueueRead(p.req, p.cb);
    }
    return down.enqueueWrite(p.req);
}

void
LinkModel::deliverOrStash(Pending &&p)
{
    // FIFO across the device boundary: once anything is stashed,
    // later deliveries queue behind it.
    if (stash.empty() && tryDeliver(p))
        return;
    stash.push_back(std::move(p));
}

void
LinkModel::onDownstreamRetry()
{
    while (!stash.empty() && tryDeliver(stash.front()))
        stash.pop_front();
    if (upstreamRetry)
        upstreamRetry();
    pump();
}

void
LinkModel::schedulePump(Tick at)
{
    if (pumpScheduled)
        return;
    pumpScheduled = true;
    eventq.schedule(at, [this]() {
        pumpScheduled = false;
        pump();
    });
}

void
LinkModel::pump()
{
    const Tick now = eventq.now();
    bool freed_full_queue = false;
    while (stash.empty()) {
        if (linkFreeAt > now) {
            schedulePump(linkFreeAt);
            break;
        }
        const std::size_t t = pickTenant();
        if (t == kNone)
            break;
        Pending p = std::move(queues[t].front());
        queues[t].pop_front();
        if (queues[t].size() == cfg.queueCap - 1)
            freed_full_queue = true;
        tenants[t].linkWait.sample(now - p.arrival);
        PCMAP_OBS_TRACE(trace, obs::TracePoint::LinkIssue, now,
                        serTicks, p.req.id, now - p.arrival, 0, t);
        linkBusyTicks += serTicks;
        linkFreeAt = now + serTicks;
        eventq.schedule(now + serTicks + propTicks,
                        [this, p = std::move(p)]() mutable {
                            deliverOrStash(std::move(p));
                        });
    }
    // Wake sources that saw a full tenant queue.  Done after the grant
    // loop so a re-entrant enqueue never interleaves with it.
    if (freed_full_queue && upstreamRetry)
        upstreamRetry();
}

void
LinkModel::exportStats(stats::Writer &w, Tick sim_ticks) const
{
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    // Jain's index leads the group but needs every tenant's throughput
    // (completed requests per microsecond), so those come first.
    std::vector<double> tputs;
    tputs.reserve(tenants.size());
    for (const TenantCounters &c : tenants) {
        const double done = n(c.readsCompleted) + n(c.writesCommitted);
        tputs.push_back(sim_ticks > 0
                            ? done / (static_cast<double>(sim_ticks) * 1e-6)
                            : 0.0);
    }
    const stats::Writer::Scope group(w, "fabric");
    w.scalar("jainIndex", jainIndex(tputs),
             "Jain fairness index of tenant throughputs");
    w.scalar("linkUtilization",
             sim_ticks > 0 ? static_cast<double>(linkBusyTicks) /
                                 static_cast<double>(sim_ticks)
                           : 0.0,
             "fraction of sim time the link serialized");
    for (unsigned t = 0; t < tenants.size(); ++t) {
        const TenantCounters &c = tenants[t];
        const stats::Writer::Scope tenant(w, "tenant", t);
        w.percentiles("read", c.readTotal, 1e-3,
                      "fabric read latency percentiles (ns)");
        w.percentiles("linkWait", c.linkWait, 1e-3,
                      "arrival-to-link-grant percentiles (ns)");
        w.percentiles("device", c.deviceRead, 1e-3,
                      "link-handoff-to-completion percentiles (ns)");
        w.percentiles("write", c.writeDevice, 1e-3,
                      "write enqueue-to-commit percentiles (ns)");
        w.scalar("readsAccepted", n(c.readsAccepted),
                 "reads the fabric accepted");
        w.scalar("writesAccepted", n(c.writesAccepted),
                 "writes the fabric accepted");
        w.scalar("readsCompleted", n(c.readsCompleted), "reads completed");
        w.scalar("writesCommitted", n(c.writesCommitted),
                 "write-backs committed to the array");
        w.scalar("rejected", n(c.rejected),
                 "enqueue attempts refused (queue full)");
        w.scalar("throughputMops", tputs[t],
                 "completed requests per microsecond");
    }
}

} // namespace pcmap::fabric
