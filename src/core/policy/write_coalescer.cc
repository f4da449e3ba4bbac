#include "core/policy/write_coalescer.h"

#include "obs/trace.h"

namespace pcmap {

// ---------------------------------------------------------------------
// PassThroughCoalescer
// ---------------------------------------------------------------------

bool
PassThroughCoalescer::splitMultiStep(unsigned n_essential,
                                     bool reads_waiting) const
{
    // Section IV-B4 extension: serialize a multi-word write into
    // one-chip partial steps so RoW keeps working throughout.  Write
    // latency stretches to n_essential pulses, which is why the paper
    // leaves this off.
    return cfg.enableRoW && cfg.rowMultiWordWrites && n_essential >= 2 &&
           reads_waiting;
}

void
PassThroughCoalescer::collect(WriteQueue &write_queue, unsigned rank,
                              unsigned bank, Tick window_start,
                              const BankStateView &banks,
                              std::vector<WriteGroupMember> &group,
                              ChipMask &occupied,
                              ControllerStats &stats) const
{
    (void)write_queue;
    (void)rank;
    (void)bank;
    (void)window_start;
    (void)banks;
    (void)group;
    (void)occupied;
    (void)stats;
}

// ---------------------------------------------------------------------
// WowCoalescer
// ---------------------------------------------------------------------

bool
WowCoalescer::splitMultiStep(unsigned n_essential,
                             bool reads_waiting) const
{
    // WoW prefers consolidating multi-word writes in parallel instead
    // of serializing them (see ControllerConfig::rowMultiWordWrites).
    (void)n_essential;
    (void)reads_waiting;
    return false;
}

void
WowCoalescer::collect(WriteQueue &write_queue, unsigned rank,
                      unsigned bank, Tick window_start,
                      const BankStateView &banks,
                      std::vector<WriteGroupMember> &group,
                      ChipMask &occupied, ControllerStats &stats) const
{
    const std::size_t scan_depth =
        cfg.perBankWriteQueues
            ? static_cast<std::size_t>(cfg.wowScanDepth) *
                  cfg.banksPerRank
            : cfg.wowScanDepth;
    std::size_t scanned = 0;
    auto it = write_queue.begin();
    for (; it != write_queue.end() && scanned < scan_depth &&
           group.size() < cfg.wowMaxMerge;
         ++scanned) {
        const DecodedAddr &cloc = it->loc;
        if (cloc.bank != bank || cloc.rank != rank) {
            ++it;
            continue;
        }
        const std::uint64_t cline = it->line;
        const WordMask cess = backing.essentialWords(cline, it->req.data);
        if (cess == 0) {
            // Silent stores complete for free once they reach the
            // queue head; no need to merge them.
            PCMAP_OBS_TRACE(traceRec, obs::TracePoint::WowReject,
                            window_start, 0, cline,
                            static_cast<std::uint64_t>(
                                obs::WowReject::Silent),
                            0, traceChannel, rank, bank);
            ++it;
            continue;
        }
        const ChipMask cchips = layout.chipsForWords(cline, cess);
        if ((cchips & occupied) != 0) {
            PCMAP_OBS_TRACE(traceRec, obs::TracePoint::WowReject,
                            window_start, 0, cline,
                            static_cast<std::uint64_t>(
                                obs::WowReject::ChipOverlap),
                            cchips, traceChannel, rank, bank);
            ++it;
            continue;
        }
        if (banks.freeAt(rank, cchips, cloc.bank) > window_start) {
            PCMAP_OBS_TRACE(traceRec, obs::TracePoint::WowReject,
                            window_start, 0, cline,
                            static_cast<std::uint64_t>(
                                obs::WowReject::ChipsBusy),
                            cchips, traceChannel, rank, bank);
            ++it;
            continue;
        }
        WriteGroupMember m;
        m.entry = std::move(*it);
        m.essential = cess;
        m.chips = cchips;
        m.line = cline;
        m.row = cloc.row;
        m.nEssential = wordCount(cess);
        stats.essentialWordsSum += m.nEssential;
        ++stats.essentialHist[m.nEssential];
        occupied |= cchips;
        group.push_back(std::move(m));
        PCMAP_OBS_TRACE(traceRec, obs::TracePoint::WowAccept,
                        window_start, 0, cline, cchips, group.size(),
                        traceChannel, rank, bank);
        it = write_queue.erase(it);
    }

    // Terminal reason: why the scan stopped admitting (only worth a
    // record when a limit cut the search short of the queue's end).
    if (traceRec != nullptr && it != write_queue.end()) {
        const obs::WowReject why = group.size() >= cfg.wowMaxMerge
                                       ? obs::WowReject::GroupFull
                                       : obs::WowReject::ScanExhausted;
        traceRec->record(obs::TracePoint::WowReject, window_start, 0, 0,
                         static_cast<std::uint64_t>(why), group.size(),
                         traceChannel, rank, bank);
    }
}

std::unique_ptr<WriteCoalescer>
makeWriteCoalescer(const ControllerConfig &cfg, const AddressMapper &mapper,
                   const LineLayout &ll, BackingStore &store)
{
    if (cfg.enableWoW)
        return std::make_unique<WowCoalescer>(cfg, mapper, ll, store);
    return std::make_unique<PassThroughCoalescer>(cfg, mapper, ll, store);
}

} // namespace pcmap
