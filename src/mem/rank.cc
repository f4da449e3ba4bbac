#include "mem/rank.h"

#include "sim/log.h"

namespace pcmap {

Rank::Rank(unsigned banks, bool has_pcc, std::uint64_t *epoch)
    : numBanks(banks), pccPresent(has_pcc), epoch(epoch),
      states(static_cast<std::size_t>(kChipsPerRank) * banks),
      bankCeil(banks, 0)
{
    pcmap_assert(banks > 0);
}

void
Rank::closeRow(unsigned chip, unsigned bank)
{
    at(chip, bank).openRow = -1;
    bumpEpoch();
}

void
Rank::abortWrite(unsigned chip, unsigned bank, Tick now)
{
    ChipBankState &s = at(chip, bank);
    if (s.busyUntil > now)
        s.busyUntil = now;
    s.busyWithWrite = false;
    if (writeBusyUntil[chip] > now)
        writeBusyUntil[chip] = now;
    bumpEpoch();
}

void
Rank::reserveChip(unsigned chip, unsigned bank, std::uint64_t row,
                  Tick start, Tick end, bool is_write)
{
    ChipBankState &s = at(chip, bank);
    if (start < chipFreeAt(chip, bank)) {
        pcmap_panic("overlapping reservation on chip ", chip, " bank ",
                    bank, ": start ", start, " < free-at ",
                    chipFreeAt(chip, bank));
    }
    pcmap_assert(end >= start);
    pcmap_assert(pccPresent || chip != kPccSlot);
    s.openRow = static_cast<std::int64_t>(row);
    s.busyUntil = end;
    s.busyWithWrite = is_write;
    bankCeil[bank] = std::max(bankCeil[bank], end);
    if (is_write) {
        writeBusyUntil[chip] = std::max(writeBusyUntil[chip], end);
        writeCeil = std::max(writeCeil, end);
    }
    bumpEpoch();
}

} // namespace pcmap
