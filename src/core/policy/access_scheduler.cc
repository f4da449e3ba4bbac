#include "core/policy/access_scheduler.h"

#include <algorithm>
#include <bit>

#include "obs/trace.h"
#include "sim/log.h"

namespace pcmap {

std::size_t
AccessScheduler::selectWrite(const WriteQueue &write_queue,
                             const std::vector<Tick> &slot_free_at,
                             Tick now, Tick &soonest) const
{
    std::size_t head_idx = write_queue.size();
    Tick soonest_slot = kTickMax;
    // Selection depends only on per-rank slot state, so after the
    // first (oldest) entry of a busy rank, later entries of that rank
    // can neither be picked nor change soonest; once every rank has
    // been seen busy the rest of the queue cannot matter at all.
    const std::size_t num_ranks = slot_free_at.size();
    if (num_ranks <= 32) {
        std::uint32_t seen = 0;
        const std::uint32_t all =
            num_ranks == 32 ? 0xffffffffu
                            : ((1u << num_ranks) - 1u);
        for (std::size_t i = 0; i < write_queue.size(); ++i) {
            const unsigned w_rank = write_queue[i].loc.rank;
            const std::uint32_t bit = 1u << w_rank;
            if (seen & bit)
                continue;
            if (now >= slot_free_at[w_rank]) {
                head_idx = i;
                break;
            }
            seen |= bit;
            soonest_slot = std::min(soonest_slot, slot_free_at[w_rank]);
            if (seen == all)
                break;
        }
    } else {
        for (std::size_t i = 0; i < write_queue.size(); ++i) {
            const unsigned w_rank = write_queue[i].loc.rank;
            if (now >= slot_free_at[w_rank]) {
                head_idx = i;
                break;
            }
            soonest_slot = std::min(soonest_slot, slot_free_at[w_rank]);
        }
    }
    soonest = soonest_slot;
    return head_idx;
}

ReadPlan
FrFcfsScheduler::planRead(ReadQueue &read_queue,
                          const BankStateView &banks,
                          const ReadWindowModel &windows, Tick now,
                          bool immediate_only,
                          unsigned pending_verifies) const
{
    // Whether blocked entries get speculative plans at all this pass.
    const bool spec_capable =
        speculates() && pending_verifies < cfg.specReadBufferCap;
    const std::uint64_t epoch = banks.epoch();

    // Strict FCFS considers only the oldest read.
    const std::size_t scan_limit =
        cfg.readScheduling == ReadScheduling::Fcfs
            ? std::min<std::size_t>(1, read_queue.size())
            : read_queue.size();
    std::size_t best = scan_limit;
    Tick best_start = kTickMax;
    bool best_row_hit = false;
    for (std::size_t i = 0; i < scan_limit; ++i) {
        ReadEntry &entry = read_queue[i];
        const PlanRecord &rec = entry.record;
        if (rec.epoch != epoch || rec.specCapable != spec_capable ||
            now >= rec.expireAt)
            replan(entry, banks, windows, now, spec_capable);
        const ReadPlan &plan = rec.plan;
        if (plan.speculative) {
            // A speculative plan is logged on every pass it is on
            // offer, so one request may log several SpecPlan events;
            // the issue event is the authoritative one.
            PCMAP_OBS_TRACE(traceRec, obs::TracePoint::SpecPlan, now, 0,
                            entry.req.id, plan.chips,
                            (plan.reconstruct ? obs::kReadFlagReconstruct
                                              : 0) |
                                (plan.eccDeferred
                                     ? obs::kReadFlagEccDeferred
                                     : 0),
                            traceChannel, entry.loc.rank,
                            entry.loc.bank);
        }

        // Keep the globally best plan: earliest start, then row-buffer
        // hit, then age (scan order).  Within one entry a speculative
        // plan replaced the normal one only by starting earlier.
        const Tick start = std::max(now, plan.start);
        if (best == scan_limit || start < best_start ||
            (start == best_start && plan.rowHit && !best_row_hit)) {
            best = i;
            best_start = start;
            best_row_hit = plan.rowHit;
        }
    }

    if (best == scan_limit || (immediate_only && best_start > now))
        return ReadPlan{};
    const PlanRecord &rec = read_queue[best].record;
    ReadPlan plan = rec.plan;
    plan.index = best;
    plan.start = best_start;
    plan.end = rec.plan.end + (best_start - rec.plan.start);
    return plan;
}

void
FrFcfsScheduler::replan(ReadEntry &entry, const BankStateView &banks,
                        const ReadWindowModel &windows, Tick now,
                        bool spec_capable) const
{
    const DecodedAddr &loc = entry.loc;
    const ChipMask inline_mask = entry.inlineMask;

    // Chip availability; a value at or below now acts like 0, since
    // starts are clamped to now.  The per-bank ceiling settles the
    // common all-free case with one compare instead of a walk over
    // the mask.
    const Tick free_at =
        banks.busyCeiling(loc.rank, loc.bank) <= now
            ? 0
            : banks.freeAt(loc.rank, inline_mask, loc.bank);
    const bool blocked = free_at > now;

    if (blocked && !entry.delayedByWrite) {
        // Blocked: is a write responsible?  Checking when the record
        // is made suffices: the mark is sticky, and busy chips only
        // free up while the epoch holds, so a write that holds the
        // read up at a later pass held it up now as well.
        for (ChipMask m = inline_mask; m != 0;
             m = static_cast<ChipMask>(m & (m - 1))) {
            const unsigned c = static_cast<unsigned>(std::countr_zero(m));
            const ChipBankState &s = banks.state(loc.rank, c, loc.bank);
            if (s.busyUntil > now && s.busyWithWrite) {
                entry.delayedByWrite = true;
                break;
            }
        }
    }

    // --- Normal (coarse) plan: all data chips plus ECC inline ---
    ReadPlan plan;
    plan.feasible = true;
    plan.rank = loc.rank;
    plan.chips = inline_mask;
    plan.rowHit =
        banks.rowOpenAll(loc.rank, inline_mask, loc.bank, loc.row);
    windows.computeReadWindow(inline_mask, loc.bank, loc.row, free_at,
                              plan.rowHit, plan.start, plan.end);

    // --- Speculative plans (PCMap RoW machinery) ---
    // They read around the chips busy at now, so they hold only until
    // the bank's busy set next changes; every other plan holds for the
    // whole epoch.
    const bool spec_here = blocked && spec_capable;
    if (spec_here)
        considerSpeculative(entry, banks, windows, now, plan);

    PlanRecord &rec = entry.record;
    rec.plan = plan;
    rec.epoch = banks.epoch();
    rec.specCapable = spec_capable;
    rec.expireAt = spec_here
                       ? banks.nextBusyChange(loc.rank, loc.bank, now)
                       : kTickMax;
}

void
RowScheduler::considerSpeculative(const ReadEntry &entry,
                                  const BankStateView &banks,
                                  const ReadWindowModel &windows,
                                  Tick now, ReadPlan &candidate) const
{
    const DecodedAddr &loc = entry.loc;
    const ChipMask data_mask = entry.dataMask;
    const unsigned ecc_chip = entry.eccChip;
    const ChipMask busy = banks.busyChips(loc.rank, loc.bank, now);
    const ChipMask busy_data = busy & data_mask;
    const bool ecc_busy = (busy >> ecc_chip) & 1u;

    // Both plans below read only chips free at now, so their windows
    // are taken from lower bound 0 (see PlanRecord).
    if (busy_data == 0 && ecc_busy) {
        // Data chips free; only the ECC check must wait.
        // Deliver speculatively, defer the check.
        ReadPlan spec;
        spec.feasible = true;
        spec.rank = loc.rank;
        spec.chips = data_mask;
        spec.speculative = true;
        spec.eccDeferred = true;
        spec.rowHit =
            banks.rowOpenAll(loc.rank, data_mask, loc.bank, loc.row);
        windows.computeReadWindow(data_mask, loc.bank, loc.row, 0,
                                  spec.rowHit, spec.start, spec.end);
        if (spec.start < candidate.start)
            candidate = spec;
    } else if (chipCount(busy_data) == 1) {
        // Exactly one data chip busy with a write: RoW.  The other
        // data chips are free by construction of busy_data.
        const unsigned busy_chip =
            static_cast<unsigned>(std::countr_zero(busy_data));
        const ChipMask write_busy =
            banks.busyWriteChips(loc.rank, loc.bank, now);
        const unsigned pcc_chip = entry.pccChip;
        pcmap_assert(pcc_chip != kNoWord);
        const bool pcc_busy = (busy >> pcc_chip) & 1u;
        if (((write_busy >> busy_chip) & 1u) && !pcc_busy) {
            ReadPlan row_plan;
            row_plan.feasible = true;
            row_plan.rank = loc.rank;
            row_plan.reconstruct = true;
            row_plan.speculative = true;
            row_plan.busyChip = busy_chip;
            row_plan.missingWord =
                layout.wordForChip(entry.line, busy_chip);
            pcmap_assert(row_plan.missingWord != kNoWord);
            ChipMask chips = (data_mask & static_cast<ChipMask>(~busy_data)) |
                             static_cast<ChipMask>(1u << pcc_chip);
            if (!ecc_busy) {
                chips |= static_cast<ChipMask>(1u << ecc_chip);
            } else {
                row_plan.eccDeferred = true;
            }
            row_plan.chips = chips;
            row_plan.rowHit =
                banks.rowOpenAll(loc.rank, chips, loc.bank, loc.row);
            windows.computeReadWindow(chips, loc.bank, loc.row, 0,
                                      row_plan.rowHit, row_plan.start,
                                      row_plan.end);
            if (row_plan.start < candidate.start)
                candidate = row_plan;
        }
    }
}

std::unique_ptr<AccessScheduler>
makeAccessScheduler(const ControllerConfig &cfg,
                    const AddressMapper &mapper, const LineLayout &ll)
{
    if (cfg.enableRoW)
        return std::make_unique<RowScheduler>(cfg, mapper, ll);
    return std::make_unique<FrFcfsScheduler>(cfg, mapper, ll);
}

} // namespace pcmap
