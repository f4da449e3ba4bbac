/**
 * @file
 * MemoryController background operations: deferred ECC/PCC code
 * updates, deferred SECDED verifications, and the PreSET comparator's
 * background line pulses — everything that rides the bgOps list and
 * yields to pending reads.
 */

#include "core/controller.h"

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"

namespace pcmap {

void
MemoryController::queueCodeUpdates(std::uint64_t line_addr,
                                   unsigned rank, unsigned bank,
                                   std::uint64_t row, bool ecc, bool pcc,
                                   Tick created)
{
    if (!cfg.modelCodeUpdateTraffic)
        return;
    if (ecc) {
        BgOp op;
        op.chips = static_cast<ChipMask>(
            1u << lineLayout->eccChip(line_addr));
        op.rank = rank;
        op.bank = bank;
        op.row = row;
        op.duration = cfg.timing.chipWriteTicks();
        op.created = created;
        bgOps.push_back(op);
        ++codeBacklog;
    }
    if (pcc && cfg.hasPcc()) {
        BgOp op;
        op.chips = static_cast<ChipMask>(
            1u << lineLayout->pccChip(line_addr));
        op.rank = rank;
        op.bank = bank;
        op.row = row;
        op.duration = cfg.timing.chipWriteTicks();
        op.created = created;
        bgOps.push_back(op);
        ++codeBacklog;
    }
}

void
MemoryController::queuePreset(std::uint64_t line_addr, unsigned rank,
                              unsigned bank, std::uint64_t row)
{
    // The pre-SET pulses every cell of the line to 1, so it occupies
    // the whole coarse write footprint (all data chips + ECC).
    BgOp op;
    op.chips = static_cast<ChipMask>((1u << (kDataChips + 1)) - 1);
    op.rank = rank;
    op.bank = bank;
    op.row = row;
    // MLC+ cells take one SET-length pulse per programming round.
    op.duration = cfg.timing.writeColTicks() +
                  cfg.timing.burstTicks() +
                  static_cast<Tick>(cfg.timing.writeRounds) *
                      nsToTicks(cfg.timing.setNs);
    op.created = eventq.now();
    op.kind = obs::BgKind::Preset;
    op.presetLine = line_addr;
    bgOps.push_back(op);
    ++codeBacklog; // shares the finite pending-op buffer
}

void
MemoryController::tryIssueBgOps(Tick now)
{
    for (std::size_t i = 0; i < bgOps.size();) {
        BgOp &op = bgOps[i];
        // Both deferred kinds yield to pending reads (they are off the
        // critical path), but verifications age out much faster: the
        // controller wants the missing-word check soon after the
        // blocking write so the rollback window stays small
        // (Section IV-B3), while code updates can ride out a whole
        // drain phase.
        const Tick force_age =
            op.isWrite() ? kBgForceAge : kVerifyForceAge;
        const bool aged = now - op.created >= force_age;
        const Tick free_at =
            ranks[op.rank].freeAt(op.chips, op.bank);
        // Yield only to reads that actually need these chips, and not
        // while draining (reads are held back then anyway).  The read
        // queue scan runs only when its answer decides.
        Tick start;
        bool forced = false;
        if (free_at <= now &&
            (aged || draining ||
             !readWantsChips(op.rank, op.bank, op.chips))) {
            start = now;
        } else if (aged) {
            start = free_at; // force foreground after starvation
            ++counters.bgOpsForced;
            forced = true;
        } else {
            ++i;
            continue;
        }

        // Row activation if the op's row is not already open.
        Tick duration = op.duration;
        if (!op.isWrite() &&
            !ranks[op.rank].rowOpenAll(op.chips, op.bank, op.row)) {
            duration += cfg.timing.actTicks();
        }
        const Tick end = start + duration;
        if (trace != nullptr) {
            trace->record(obs::TracePoint::BgIssue, start, duration,
                          op.presetLine, op.chips,
                          static_cast<std::uint64_t>(op.kind) |
                              (forced ? obs::kBgForcedFlag : 0),
                          channelId, op.rank, op.bank);
        }
        reserveChips(op.rank, op.chips, op.bank, op.row, start, end,
                     op.isWrite());
        if (op.isWrite()) {
            pcmap_assert(codeBacklog > 0);
            --codeBacklog;
        }
        ++counters.bgOpsIssued;
        ++inFlight;
        const BgOp done = op;
        bgOps.erase(bgOps.begin() + static_cast<std::ptrdiff_t>(i));
        eventq.schedule(end, [this, done]() { completeBgOp(done); });
    }
}

void
MemoryController::completeBgOp(const BgOp &op)
{
    --inFlight;
    switch (op.kind) {
    case obs::BgKind::CodeUpdate:
        break;
    case obs::BgKind::Verify:
        ++counters.verifiesCompleted;
        pcmap_assert(pendingVerifies > 0);
        --pendingVerifies;
        if (op.fault)
            ++counters.faultsDetected;
        PCMAP_OBS_TRACE(trace,
                        op.fault ? obs::TracePoint::SpecRollback
                                 : obs::TracePoint::SpecVerify,
                        eventq.now(), 0, op.id, 0, 0, channelId, op.rank,
                        op.bank);
        if (attrib != nullptr)
            attrib->finishSpec(op.ledger, eventq.now(), op.fault);
        if (verifyCb)
            verifyCb(op.id, op.core, op.fault);
        break;
    case obs::BgKind::Preset: {
        ++counters.presetsIssued;
        // Energy: every 0 bit of the stored line gets a SET pulse.
        const StoredLine &stored = backing.read(op.presetLine);
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            energyModel.recordWordWrite(stored.data.w[w], ~0ull);
        // Mark the buffered write (if still queued) as pre-SET.
        for (WriteEntry &entry : writeQ) {
            if (entry.line == op.presetLine)
                entry.presetDone = true;
        }
        break;
    }
    }
    kick();
}

} // namespace pcmap
