/**
 * @file
 * Timing-state model of one PCM rank: ten x8 chips (eight data, one
 * SECDED ECC, one PCC), each with eight banks and a per-bank row
 * buffer.
 *
 * With PCMap's rank subsetting every chip is an independent sub-rank,
 * so the busy/row state is tracked per (chip, bank) pair: a coarse
 * access reserves a bank across all chips in lockstep, while a
 * fine-grained write reserves only the involved chips and may leave
 * different rows open in different chips of the same bank
 * (Section IV-A2, Figure 3c).
 *
 * The DIMM register of Section IV-D1 is modelled by busyChips(): the
 * per-bank status flags a controller learns by issuing the 2-cycle
 * Status command.
 */

#ifndef PCMAP_MEM_RANK_H
#define PCMAP_MEM_RANK_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "mem/line.h"
#include "mem/timing.h"
#include "sim/log.h"
#include "sim/types.h"

namespace pcmap {

/** Timing state of one bank within one chip (one sub-rank slice). */
struct ChipBankState
{
    std::int64_t openRow = -1; ///< Row in the row buffer, -1 if closed.
    Tick busyUntil = 0;        ///< Chip-bank reserved through this tick.
    bool busyWithWrite = false;///< Current/last op is an array write.
};

/** Timing-state container for one rank. */
class Rank
{
  public:
    /**
     * @param banks    Banks per chip (8 in the evaluated system).
     * @param has_pcc  False models a conventional 9-chip ECC DIMM
     *                 (the baseline); the PCC slot then must not be
     *                 reserved.
     * @param epoch    The channel's timing-state epoch, bumped by every
     *                 mutator (null: none).  Read planners keep plans
     *                 while it holds still.
     */
    Rank(unsigned banks, bool has_pcc, std::uint64_t *epoch = nullptr);

    unsigned banks() const { return numBanks; }
    bool hasPcc() const { return pccPresent; }

    /** Number of chips physically present (9 or 10). */
    unsigned
    chips() const
    {
        return pccPresent ? kChipsPerRank : kChipsPerRank - 1;
    }

    // The state queries are defined inline: the scheduler probes
    // them on every planning pass (tens of millions of calls per
    // run), so they must not cost a cross-TU call each.

    /** State of one chip-bank. */
    const ChipBankState &
    state(unsigned chip, unsigned bank) const
    {
        pcmap_assert(chip < kChipsPerRank && bank < numBanks);
        return states[static_cast<std::size_t>(bank) * kChipsPerRank +
                      chip];
    }

    /**
     * Upper bound on chipFreeAt over *all* chips of @p bank: a
     * monotone ceiling maintained by reserveChip (write cancellation
     * may leave it stale high, never low).  When the ceiling is at or
     * below now, every chip of the bank is free and the scheduler can
     * skip the per-chip freeAt walk for any mask.
     */
    Tick
    busyCeiling(unsigned bank) const
    {
        pcmap_assert(bank < numBanks);
        return std::max(bankCeil[bank], writeCeil);
    }

    /** Earliest tick at which every chip in @p chips has bank free. */
    Tick
    freeAt(ChipMask chips, unsigned bank) const
    {
        Tick latest = 0;
        for (ChipMask m = chips; m != 0;
             m = static_cast<ChipMask>(m & (m - 1))) {
            const unsigned c =
                static_cast<unsigned>(std::countr_zero(m));
            pcmap_assert(pccPresent || c != kPccSlot);
            latest = std::max(latest, chipFreeAt(c, bank));
        }
        return latest;
    }

    /** True when chip's bank currently holds @p row in its buffer. */
    bool
    rowOpen(unsigned chip, unsigned bank, std::uint64_t row) const
    {
        return state(chip, bank).openRow ==
               static_cast<std::int64_t>(row);
    }

    /** True when every chip in @p chips has @p row open in @p bank. */
    bool
    rowOpenAll(ChipMask chips, unsigned bank, std::uint64_t row) const
    {
        for (ChipMask m = chips; m != 0;
             m = static_cast<ChipMask>(m & (m - 1))) {
            if (!rowOpen(static_cast<unsigned>(std::countr_zero(m)),
                         bank, row)) {
                return false;
            }
        }
        return true;
    }

    /**
     * Reserve one chip's bank for [start, end), opening @p row.
     * @p start must be >= the chip's current availability.
     *
     * A write reservation occupies the *entire chip*, not just the
     * addressed bank: a PCM chip's write circuitry (and its write
     * power budget) serves one array write at a time, so no other
     * bank of that chip can serve anything until the pulse completes.
     * This is what makes the paper's baseline leave "the remaining
     * chips of the rank idle for the long duration of the write" and
     * what PCMap's fine-grained writes exploit chip by chip.  Reads
     * occupy only the addressed bank (ordinary bank parallelism).
     */
    void reserveChip(unsigned chip, unsigned bank, std::uint64_t row,
                     Tick start, Tick end, bool is_write);

    /** Earliest tick at which one chip can accept a new operation. */
    Tick
    chipFreeAt(unsigned chip, unsigned bank) const
    {
        return std::max(state(chip, bank).busyUntil,
                        writeBusyUntil[chip]);
    }

    /** Invalidate the open row of one chip-bank (closed-page policy). */
    void closeRow(unsigned chip, unsigned bank);

    /**
     * Abort an in-progress write on @p chip at @p bank effective
     * @p now: the chip-bank and the chip-wide write occupancy are
     * clamped down to @p now (write cancellation).  Passing a future
     * tick implements a *round-boundary* release for multi-round
     * (MLC+) writes — the chip stays busy until the round in flight
     * finishes, then frees without the remaining rounds.
     */
    void abortWrite(unsigned chip, unsigned bank, Tick now);

    /**
     * The DIMM status register for @p bank at time @p now: a mask of
     * chips still busy (bit c set = chip c cannot accept a command).
     */
    ChipMask
    busyChips(unsigned bank, Tick now) const
    {
        // The monotone ceiling is never stale low, so at-or-below now
        // means every chip of the bank is already free.
        if (busyCeiling(bank) <= now)
            return 0;
        ChipMask mask = 0;
        for (unsigned c = 0; c < kChipsPerRank; ++c) {
            if (chipFreeAt(c, bank) > now)
                mask |= static_cast<ChipMask>(1u << c);
        }
        return mask;
    }

    /** Mask of chips busy specifically with a write at @p now. */
    ChipMask
    busyWriteChips(unsigned bank, Tick now) const
    {
        if (busyCeiling(bank) <= now)
            return 0;
        ChipMask mask = 0;
        for (unsigned c = 0; c < kChipsPerRank; ++c) {
            const ChipBankState &s = state(c, bank);
            const bool bank_write = s.busyUntil > now && s.busyWithWrite;
            if (bank_write || writeBusyUntil[c] > now)
                mask |= static_cast<ChipMask>(1u << c);
        }
        return mask;
    }

    /**
     * Earliest tick after @p now at which busyChips(bank, t) or
     * busyWriteChips(bank, t) may differ from their value at @p now
     * (kTickMax when every chip of the bank is already free).  Both
     * masks are constant on [now, nextBusyChange(bank, now)).
     */
    Tick
    nextBusyChange(unsigned bank, Tick now) const
    {
        if (busyCeiling(bank) <= now)
            return kTickMax;
        Tick next = kTickMax;
        for (unsigned c = 0; c < kChipsPerRank; ++c) {
            const Tick bank_until = state(c, bank).busyUntil;
            if (bank_until > now)
                next = std::min(next, bank_until);
            if (writeBusyUntil[c] > now)
                next = std::min(next, writeBusyUntil[c]);
        }
        return next;
    }

  private:
    /** Mutable state of one chip-bank; mutators bump the epoch. */
    ChipBankState &
    at(unsigned chip, unsigned bank)
    {
        pcmap_assert(chip < kChipsPerRank && bank < numBanks);
        return states[static_cast<std::size_t>(bank) * kChipsPerRank +
                      chip];
    }

    void
    bumpEpoch()
    {
        if (epoch != nullptr)
            ++*epoch;
    }

    unsigned numBanks;
    bool pccPresent;
    std::uint64_t *epoch;
    /** [bank * kChipsPerRank + chip]: the chips of one bank, which the
     *  planner's freeAt/busyChips walks visit, are adjacent. */
    std::vector<ChipBankState> states;
    /** Chip-wide write occupancy (one array write per chip at a time). */
    std::array<Tick, kChipsPerRank> writeBusyUntil{};
    /** Monotone per-bank ceiling over states[*][bank].busyUntil. */
    std::vector<Tick> bankCeil;
    /** Monotone ceiling over writeBusyUntil (writes block whole chips,
     *  so it bounds every bank). */
    Tick writeCeil = 0;
};

} // namespace pcmap

#endif // PCMAP_MEM_RANK_H
