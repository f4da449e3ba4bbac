/**
 * @file
 * MemoryController read service: committing the plan the access
 * scheduler produced (reservations, buses, stats) and completing it
 * through the line layout's read materialization, plus the deferred
 * SECDED verification of speculative reads.
 */

#include "core/controller.h"

#include <algorithm>

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace pcmap {

void
MemoryController::issueRead(const ReadPlan &plan)
{
    const Tick now = eventq.now();
    pcmap_assert(plan.index < readQ.size());
    ReadEntry entry = std::move(readQ[plan.index]);
    readQ.erase(readQ.begin() +
                static_cast<std::ptrdiff_t>(plan.index));

    const DecodedAddr loc = entry.loc;
    const std::uint64_t line = entry.line;
    const ChipMask data_mask = entry.dataMask;

    if (const obs::attrib::LedgerRef led = entry.req.ledger) {
        // Decompose the queue wait before this issue's reservation
        // lands: the span the planned chips were busy is bankWait,
        // the residual (scheduler order, bus/lane/turnaround slack)
        // is queueResidency.
        const Tick bank_free = std::min(
            ranks[loc.rank].freeAt(plan.chips, loc.bank), plan.start);
        attrib->account(led, obs::attrib::Phase::BankWait, bank_free);
        attrib->account(led, obs::attrib::Phase::QueueResidency, plan.start);
    }

    reserveChips(loc.rank, plan.chips, loc.bank, loc.row, plan.start,
                 plan.end, false);
    if (scheduler->closesRowAfterAccess()) {
        forEachSetBit(plan.chips, [&](unsigned c) {
            ranks[loc.rank].closeRow(c, loc.bank);
        });
    }
    if (cfg.fineGrained && plan.speculative) {
        // The controller polled the DIMM status register to learn
        // which chips are busy (Section IV-D1); counted, not timed.
        ++counters.statusPolls;
    }
    buses.occupy(plan.chips, plan.end, false);
    irlpTrackers[loc.rank].addOp(now, plan.start, plan.end,
                                 plan.chips & data_mask, false);

    if (plan.rowHit)
        energyModel.recordBufferAccess(1);
    else
        energyModel.recordActivation(1);
    energyModel.recordBusTransfer(chipCount(plan.chips));

    if (plan.reconstruct)
        ++counters.rowReads;
    if (plan.eccDeferred)
        ++counters.deferredEccReads;
    if (plan.speculative)
        ++pendingVerifies;
    counters.readQueueWaitSum += static_cast<double>(
        plan.start - entry.req.enqueueTick);
    counters.queueResidencyHist.sample(plan.start -
                                       entry.req.enqueueTick);

    const bool delayed = entry.delayedByWrite;
    if (trace != nullptr) {
        const std::uint64_t flags =
            (plan.rowHit ? obs::kReadFlagRowHit : 0) |
            (plan.speculative ? obs::kReadFlagSpeculative : 0) |
            (plan.reconstruct ? obs::kReadFlagReconstruct : 0) |
            (plan.eccDeferred ? obs::kReadFlagEccDeferred : 0) |
            (delayed ? obs::kReadFlagDelayedByWrite : 0);
        trace->record(obs::TracePoint::ReadIssue, plan.start,
                      plan.end - plan.start, entry.req.id, plan.chips,
                      flags, channelId, loc.rank, loc.bank);
        trace->record(obs::TracePoint::LaneOccupancy, now, 0, 0,
                      buses.busyLanes(now), 0, channelId);
    }
    notifyRetry(); // read-queue space freed

    ++inFlight;
    ReadPlan plan_copy = plan;
    // The completion needs only the request and its callback, not
    // the scheduler's per-entry state.
    eventq.schedule(plan.end, [this, plan = plan_copy, req = entry.req,
                               cb = std::move(entry.cb), loc, line,
                               delayed]() mutable {
        const Tick done = eventq.now();
        const StoredLine &stored = backing.read(line);
        CacheLine out;
        const bool fault = lineLayout->materializeRead(
            stored, plan.reconstruct, plan.missingWord, plan.speculative,
            plan.eccDeferred, out);

        ReadResponse resp;
        resp.id = req.id;
        resp.addr = req.addr;
        resp.coreId = req.coreId;
        resp.completionTick = done;
        resp.data = out;
        resp.speculative = plan.speculative;

        ++counters.readsCompleted;
        if (delayed)
            ++counters.readsDelayedByWrite;
        const double lat = static_cast<double>(done - req.enqueueTick);
        counters.readLatencySum += lat;
        counters.readLatencyHist.sample(done - req.enqueueTick);
        if (trace != nullptr) {
            const std::uint64_t flags =
                (plan.rowHit ? obs::kReadFlagRowHit : 0) |
                (plan.speculative ? obs::kReadFlagSpeculative : 0) |
                (plan.reconstruct ? obs::kReadFlagReconstruct : 0) |
                (plan.eccDeferred ? obs::kReadFlagEccDeferred : 0) |
                (delayed ? obs::kReadFlagDelayedByWrite : 0);
            trace->record(obs::TracePoint::ReadComplete, req.enqueueTick,
                          done - req.enqueueTick, req.id, flags, 0,
                          channelId, loc.rank, loc.bank);
        }

        if (const obs::attrib::LedgerRef led = req.ledger) {
            attrib->account(led, obs::attrib::Phase::ArrayAccess, done);
            // A speculative read completes now but its attribution
            // waits for the deferred verify verdict (annex phases).
            if (plan.speculative)
                attrib->holdForVerify(led);
            attrib->close(led, done);
        }

        if (plan.speculative)
            queueVerifyOp(plan, req, loc, fault);

        --inFlight;
        cb(resp);
        kick();
    });
}

void
MemoryController::queueVerifyOp(const ReadPlan &plan, const MemRequest &req,
                                const DecodedAddr &loc, bool fault)
{
    BgOp op;
    op.rank = loc.rank;
    op.bank = loc.bank;
    op.row = loc.row;
    op.kind = obs::BgKind::Verify;
    op.created = eventq.now();
    ChipMask chips = 0;
    if (plan.reconstruct && plan.busyChip != kNoWord)
        chips |= static_cast<ChipMask>(1u << plan.busyChip);
    if (plan.eccDeferred) {
        const std::uint64_t line = addrMap.lineAddr(req.addr);
        chips |= static_cast<ChipMask>(1u << lineLayout->eccChip(line));
    }
    pcmap_assert(chips != 0);
    op.chips = chips;
    op.duration = cfg.timing.readHitTicks();
    op.fault = fault;
    op.core = req.coreId;
    op.id = req.id;
    op.ledger = req.ledger;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::SpecDefer, op.created, 0,
                    op.id, chips, 0, channelId, loc.rank, loc.bank);
    if (!cfg.modelVerifyTraffic) {
        // Ablation: the check is functionally performed but charged
        // no chip time; report it one read-hit later.
        ++inFlight;
        eventq.schedule(eventq.now() + cfg.timing.readHitTicks(),
                        [this, op]() { completeBgOp(op); });
        return;
    }
    bgOps.push_back(op);
}

bool
MemoryController::readWantsChips(unsigned rank, unsigned bank,
                                 ChipMask chips) const
{
    for (const ReadEntry &r : readQ) {
        if (r.loc.rank != rank || r.loc.bank != bank)
            continue;
        if (r.inlineMask & chips)
            return true;
    }
    return false;
}

} // namespace pcmap
