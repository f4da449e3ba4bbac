/**
 * @file
 * MemoryController core: construction (policy composition), the public
 * enqueue interface, the kick scheduling loop, and the timing helpers
 * every service path shares.  Read service lives in controller_read.cc,
 * write service in controller_write.cc, background operations in
 * controller_bg.cc.
 */

#include "core/controller.h"

#include <algorithm>

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"
#include "sim/stats.h"

namespace pcmap {

MemoryController::MemoryController(std::string name,
                                   const ControllerConfig &config,
                                   EventQueue &eq, BackingStore &store,
                                   const AddressMapper &mapper,
                                   unsigned channel)
    : instName(std::move(name)), cfg(config), eventq(eq), backing(store),
      addrMap(mapper), channelId(channel),
      energyModel(EnergyParams::forOrg(config.timing.org))
{
    cfg.validate();
    const ControllerPolicy policy = ControllerPolicy::fromConfig(cfg);
    lineLayout = policy.makeLayout();
    scheduler = ControllerPolicy::makeScheduler(cfg, addrMap, *lineLayout);
    coalescer =
        ControllerPolicy::makeCoalescer(cfg, addrMap, *lineLayout, backing);
    const unsigned n_ranks = mapper.geometry().ranksPerChannel;
    for (unsigned r = 0; r < n_ranks; ++r)
        ranks.emplace_back(cfg.banksPerRank, cfg.hasPcc(), &timingEpoch);
    writeSlotFreeAt.assign(n_ranks, 0);
    irlpTrackers.resize(n_ranks);
}

void
MemoryController::setTraceRecorder(obs::TraceRecorder *rec)
{
    trace = rec;
    scheduler->setTrace(rec, channelId);
    coalescer->setTrace(rec, channelId);
}

unsigned
MemoryController::busyBankCount(Tick now) const
{
    unsigned busy = 0;
    for (const Rank &rank : ranks) {
        for (unsigned b = 0; b < cfg.banksPerRank; ++b) {
            if (rank.busyCeiling(b) > now)
                ++busy;
        }
    }
    return busy;
}

// ---------------------------------------------------------------------
// Public request interface
// ---------------------------------------------------------------------

bool
MemoryController::enqueueRead(const MemRequest &req, ReadCallback cb)
{
    const Tick now = eventq.now();
    const std::uint64_t req_line = addrMap.lineAddr(req.addr);

    // Write-queue forwarding: a read that hits a buffered write-back is
    // answered from the queue without touching the PCM chips.
    for (const WriteEntry &w : writeQ) {
        if (w.line != req_line)
            continue;
        ++counters.readsForwardedFromWq;
        ReadResponse resp;
        resp.id = req.id;
        resp.addr = req.addr;
        resp.coreId = req.coreId;
        resp.data = w.req.data;
        resp.speculative = false;
        const Tick done =
            now + cfg.timing.readColTicks() + cfg.timing.burstTicks();
        PCMAP_OBS_TRACE(trace, obs::TracePoint::ReadForwarded, now, 0,
                        req.id, 0, 0, channelId);
        obs::attrib::LedgerRef led = req.ledger;
        if (!led && attrib != nullptr)
            led = attrib->open(obs::attrib::AttribOp::Read, req.coreId,
                               req.id, now);
        ++inFlight;
        eventq.schedule(done, [this, resp, cb, led,
                               enq = now]() mutable {
            resp.completionTick = eventq.now();
            ++counters.readsCompleted;
            const double lat =
                static_cast<double>(resp.completionTick - enq);
            counters.readLatencySum += lat;
            counters.readLatencyHist.sample(resp.completionTick - enq);
            PCMAP_OBS_TRACE(trace, obs::TracePoint::ReadComplete, enq,
                            resp.completionTick - enq, resp.id,
                            obs::kReadFlagForwarded, 0, channelId);
            if (led) {
                // WQ-forwarded service counts as the device phase:
                // it replaces the array access.
                attrib->account(led, obs::attrib::Phase::ArrayAccess,
                                resp.completionTick);
                attrib->close(led, resp.completionTick);
            }
            --inFlight;
            cb(resp);
            kick();
        });
        return true;
    }

    if (readQ.size() >= cfg.readQueueCap) {
        ++counters.readsRejected;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::ReadRejected, now, 0,
                        req.id, 0, 0, channelId);
        return false;
    }

    // One allocation per run, made by the first read rather than at
    // construction (which a system pays per sweep point).
    if (readQ.capacity() == 0)
        readQ.reserve(cfg.readQueueCap);
    ReadEntry entry;
    entry.req = req;
    entry.req.enqueueTick = now;
    entry.cb = std::move(cb);
    entry.prime(addrMap, *lineLayout);
    if (attrib != nullptr)
        attrib->ensure(entry.req, now, obs::attrib::AttribOp::Read);
    if (trace != nullptr) {
        trace->record(obs::TracePoint::ReadEnqueue, now, 0, req.id,
                      readQ.size() + 1, 0, channelId, entry.loc.rank,
                      entry.loc.bank);
        trace->record(obs::TracePoint::QueueDepth, now, 0, 0,
                      readQ.size() + 1, writeQ.size(), channelId);
    }
    readQ.push_back(std::move(entry));
    scheduleKick(eventq.now());
    return true;
}

bool
MemoryController::enqueueWrite(const MemRequest &req)
{
    const std::uint64_t req_line = addrMap.lineAddr(req.addr);

    // Coalesce with an already-buffered write-back to the same line.
    for (WriteEntry &w : writeQ) {
        if (w.line == req_line) {
            w.req.data = req.data;
            // The absorbed write never completes as its own request;
            // drop its ledger unsampled so the attribution population
            // stays identical to the WriteComplete trace points.
            if (attrib != nullptr)
                attrib->discard(req.ledger);
            ++counters.writesCoalesced;
            PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteCoalesced,
                            eventq.now(), 0, req_line, 0, 0, channelId,
                            w.loc.rank, w.loc.bank);
            return true;
        }
    }

    WriteEntry entry;
    entry.req = req;
    entry.req.enqueueTick = eventq.now();
    entry.prime(addrMap);

    bool full;
    if (cfg.perBankWriteQueues) {
        const unsigned bank = entry.loc.bank;
        std::size_t in_bank = 0;
        for (const WriteEntry &w : writeQ) {
            if (w.loc.bank == bank)
                ++in_bank;
        }
        full = in_bank >= cfg.writeQueueCap;
    } else {
        full = writeQ.size() >= cfg.writeQueueCap;
    }
    if (full) {
        ++counters.writesRejected;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::WriteRejected,
                        eventq.now(), 0, req_line, 0, 0, channelId,
                        entry.loc.rank, entry.loc.bank);
        return false;
    }

    if (attrib != nullptr)
        attrib->ensure(entry.req, eventq.now(),
                       obs::attrib::AttribOp::Write);
    const DecodedAddr loc = entry.loc;
    writeQ.push_back(std::move(entry));
    ++counters.writesEnqueued;
    if (trace != nullptr) {
        const Tick now = eventq.now();
        trace->record(obs::TracePoint::WriteEnqueue, now, 0, req_line,
                      writeQ.size(), 0, channelId, loc.rank, loc.bank);
        trace->record(obs::TracePoint::QueueDepth, now, 0, 0,
                      readQ.size(), writeQ.size(), channelId);
    }
    if (cfg.enablePreset && !draining) {
        // No point pre-SETting once the drain is imminent: the write
        // will reach service before the background pulse could run.
        queuePreset(req_line, loc.rank, loc.bank, loc.row);
    }
    scheduleKick(eventq.now());
    return true;
}

bool
MemoryController::idle() const
{
    return readQ.empty() && writeQ.empty() && bgOps.empty() &&
           inFlight == 0 && freeTrains.size() == trains.size();
}

void
MemoryController::finalize(Tick end_of_sim)
{
    for (IrlpTracker &t : irlpTrackers)
        t.finalize(end_of_sim);
}

double
MemoryController::irlpWindowTicks() const
{
    double total = 0.0;
    for (const IrlpTracker &t : irlpTrackers)
        total += t.writeWindowTicks();
    return total;
}

double
MemoryController::irlpArea() const
{
    double total = 0.0;
    for (const IrlpTracker &t : irlpTrackers)
        total += t.mean() * t.writeWindowTicks();
    return total;
}

unsigned
MemoryController::irlpMaxSeen() const
{
    unsigned max_seen = 0;
    for (const IrlpTracker &t : irlpTrackers)
        max_seen = std::max(max_seen, t.maxSeen());
    return max_seen;
}

void
MemoryController::exportStats(stats::Writer &w) const
{
    const ControllerStats &s = counters;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    std::uint64_t writes = 0;
    for (const std::uint64_t c : s.essentialHist)
        writes += c;
    const stats::Writer::Scope group(w, instName);
    w.scalar("reads", n(s.readsCompleted), "PCM reads served");
    w.scalar("readsForwarded", n(s.readsForwardedFromWq),
             "reads answered from the write queue");
    w.scalar("readsDelayedByWrite", n(s.readsDelayedByWrite),
             "reads held up by write service");
    w.scalar("writes", n(s.writesCompleted), "write-backs committed");
    w.scalar("writesSilent", n(s.writesSilent),
             "fully redundant write-backs");
    w.scalar("writesCoalesced", n(s.writesCoalesced),
             "write-backs merged in the queue");
    w.scalar("readLatencyNs", s.avgReadLatencyNs(),
             "mean effective read latency");
    w.scalar("essentialWords",
             writes ? n(s.essentialWordsSum) / n(writes) : 0.0,
             "mean dirty words per write-back");
    w.scalar("rowReads", n(s.rowReads),
             "reads served by PCC reconstruction");
    w.scalar("eccDeferredReads", n(s.deferredEccReads),
             "reads with deferred SECDED check");
    w.scalar("verifies", n(s.verifiesCompleted),
             "deferred checks completed");
    w.scalar("faults", n(s.faultsDetected), "deferred checks that failed");
    w.scalar("twoStepWrites", n(s.twoStepWrites),
             "one-word writes split for RoW");
    w.scalar("multiStepWrites", n(s.multiStepWrites),
             "serialized multi-word RoW writes");
    w.scalar("wowGroups", n(s.wowGroups), "consolidated write groups");
    w.scalar("wowMergedWrites", n(s.wowMergedWrites),
             "writes that joined a group");
    w.scalar("statusPolls", n(s.statusPolls), "DIMM status-register polls");
    w.scalar("irlpMean",
             irlpWindowTicks() > 0.0 ? irlpArea() / irlpWindowTicks() : 0.0,
             "time-weighted busy chips during writes");
    w.scalar("energyUj", energyModel.breakdown().totalUj(),
             "total PCM energy");
    w.scalar("bitsSet", n(energyModel.bitsSet()), "SET pulses issued");
    w.scalar("bitsReset", n(energyModel.bitsReset()), "RESET pulses issued");
    // Latency histograms sample ticks (picoseconds); export ns.
    w.percentiles("readLatencyHistNs", s.readLatencyHist, 1e-3,
                  "read latency percentiles");
    w.percentiles("writeLatencyHistNs", s.writeLatencyHist, 1e-3,
                  "write commit latency percentiles");
    w.percentiles("queueResidencyNs", s.queueResidencyHist, 1e-3,
                  "arrival-to-service percentiles");
    w.percentiles("writeIrlp", s.writeIrlpHist, 1.0,
                  "busy data chips per write percentiles");
    // Multi-round (MLC+) organizations only: the counters stay zero on
    // SLC, and rows there would perturb the byte-stable org=slc dump.
    if (cfg.timing.writeRounds > 1) {
        w.scalar("writeRounds", n(s.writeRoundsIssued),
                 "MLC+ programming rounds issued");
        w.scalar("writeRoundPauses", n(s.writeRoundPauses),
                 "round-boundary pauses for reads");
    }
}

// ---------------------------------------------------------------------
// Scheduling core
// ---------------------------------------------------------------------

void
MemoryController::scheduleKick(Tick when)
{
    if (when >= kickAt)
        return;
    if (kickEvent.valid())
        eventq.cancel(kickEvent);
    kickAt = when;
    kickEvent = eventq.schedule(when, [this]() {
        kickAt = kTickMax;
        kickEvent = EventHandle();
        kick();
    });
}

void
MemoryController::updateDrainState()
{
    const std::size_t capacity =
        cfg.perBankWriteQueues
            ? static_cast<std::size_t>(cfg.writeQueueCap) *
                  cfg.banksPerRank
            : cfg.writeQueueCap;
    const auto hi = static_cast<std::size_t>(
        cfg.drainHighWatermark * static_cast<double>(capacity));
    const auto lo = static_cast<std::size_t>(
        cfg.drainLowWatermark * static_cast<double>(capacity));
    if (!draining && writeQ.size() >= hi && hi > 0)
        draining = true;
    if (draining && writeQ.size() <= lo)
        draining = false;
}

void
MemoryController::kick()
{
    const Tick now = eventq.now();
    updateDrainState();

    Tick next_wake = kTickMax;
    bool progress = true;
    while (progress) {
        progress = false;

        // --- Reads ---
        // Outside a drain, reads have absolute priority.  During a
        // drain, the PCMap scheduler (RoW configurations) still serves
        // any read that can start immediately — by PCC reconstruction
        // around the busy chip, or on chips the fine-grained write
        // left idle; the conventional scheduler serves none.
        if (!readQ.empty()) {
            maybeCancelActiveWrite(now);
            const bool immediate_only = draining;
            if (!draining || scheduler->servesReadsDuringDrain() ||
                cfg.enableWriteCancellation) {
                ReadPlan plan =
                    scheduler->planRead(readQ, bankView, buses, now,
                                        immediate_only, pendingVerifies);
                // During a drain an overlapped read must fit entirely
                // inside the ongoing write's service window (as in
                // Figure 5b), so it never pushes the next write back
                // and the drain proceeds at full write bandwidth.
                const bool fits =
                    !draining ||
                    plan.end <= writeSlotFreeAt[plan.rank];
                if (plan.feasible && fits) {
                    if (plan.start <= now) {
                        issueRead(plan);
                        updateDrainState();
                        progress = true;
                        continue;
                    }
                    next_wake = std::min(next_wake, plan.start);
                }
            }
        }

        // --- Writes ---
        // Drain mode, or opportunistic service while no read is
        // pending (Section II-B).
        if (!writeQ.empty() && (draining || readQ.empty())) {
            Tick earliest = kTickMax;
            if (tryIssueWrites(now, earliest)) {
                updateDrainState();
                // Issue freed write-queue space: wake any core whose
                // enqueueWrite was rejected.  Without this, a core
                // that stalls while no reads are in flight is only
                // ever retried by a later read issue or silent write
                // — if neither happens before the queue drains, the
                // event queue empties with the core still stalled
                // (deadlock; easiest to hit with MLC+ rounds
                // lengthening the drain).
                notifyRetry();
                progress = true;
                continue;
            }
            next_wake = std::min(next_wake, earliest);
        }
    }

    tryIssueBgOps(now);

    if (next_wake != kTickMax)
        scheduleKick(next_wake);
}

// ---------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------

void
MemoryController::reserveChips(unsigned rank, ChipMask chips,
                               unsigned bank, std::uint64_t row,
                               Tick start, Tick end, bool is_write)
{
    forEachSetBit(chips, [&](unsigned c) {
        ranks[rank].reserveChip(c, bank, row, start, end, is_write);
    });
}

void
MemoryController::notifyRetry()
{
    if (retryCb)
        retryCb();
}

} // namespace pcmap
