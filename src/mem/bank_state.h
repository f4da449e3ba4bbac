/**
 * @file
 * Read-only view over the per-rank chip/bank timing state.
 *
 * The access-scheduler and write-coalescer policies plan around chip
 * availability but must never mutate it — reservations stay with the
 * controller.  This view is the seam: it exposes exactly the busy-state
 * queries a policy may ask (the modelled DIMM status register plus row
 * and availability lookups) across every rank of one channel, and
 * nothing that could change timing state.
 */

#ifndef PCMAP_MEM_BANK_STATE_H
#define PCMAP_MEM_BANK_STATE_H

#include <cstdint>
#include <vector>

#include "mem/rank.h"

namespace pcmap {

/** Const query facade over one channel's ranks. */
class BankStateView
{
  public:
    /** @param rank_state The controller's rank vector (aliased, not
     *  copied; the view stays valid as the vector's contents evolve).
     *  @param epoch The channel's timing-state epoch (aliased). */
    BankStateView(const std::vector<Rank> &rank_state,
                  const std::uint64_t &epoch)
        : rankState(rank_state), timingEpoch(epoch)
    {
    }

    /**
     * The channel's timing-state epoch: bumped by every rank and bus
     * mutation, so equal values mean unchanged timing state.
     */
    std::uint64_t epoch() const { return timingEpoch; }

    /** Number of ranks behind this view. */
    unsigned
    ranks() const
    {
        return static_cast<unsigned>(rankState.size());
    }

    /** Earliest tick at which every chip in @p chips has @p bank free. */
    Tick
    freeAt(unsigned rank, ChipMask chips, unsigned bank) const
    {
        return rankState[rank].freeAt(chips, bank);
    }

    /** Upper bound on freeAt for any mask (see Rank::busyCeiling). */
    Tick
    busyCeiling(unsigned rank, unsigned bank) const
    {
        return rankState[rank].busyCeiling(bank);
    }

    /** True when every chip in @p chips has @p row open in @p bank. */
    bool
    rowOpenAll(unsigned rank, ChipMask chips, unsigned bank,
               std::uint64_t row) const
    {
        return rankState[rank].rowOpenAll(chips, bank, row);
    }

    /** The DIMM status register: chips of @p bank busy at @p now. */
    ChipMask
    busyChips(unsigned rank, unsigned bank, Tick now) const
    {
        return rankState[rank].busyChips(bank, now);
    }

    /** Chips of @p bank busy specifically with a write at @p now. */
    ChipMask
    busyWriteChips(unsigned rank, unsigned bank, Tick now) const
    {
        return rankState[rank].busyWriteChips(bank, now);
    }

    /** First tick after @p now the two masks above may change. */
    Tick
    nextBusyChange(unsigned rank, unsigned bank, Tick now) const
    {
        return rankState[rank].nextBusyChange(bank, now);
    }

    /** One chip-bank's timing state (open row, busy-until, op kind). */
    const ChipBankState &
    state(unsigned rank, unsigned chip, unsigned bank) const
    {
        return rankState[rank].state(chip, bank);
    }

  private:
    const std::vector<Rank> &rankState;
    const std::uint64_t &timingEpoch;
};

} // namespace pcmap

#endif // PCMAP_MEM_BANK_STATE_H
