#include "workload/generator.h"

#include <algorithm>

#include "sim/log.h"

namespace pcmap::workload {

namespace {

/// How many recently read lines are remembered as eviction targets.
constexpr std::size_t kRecentWindow = 64;

} // namespace

SyntheticGenerator::SyntheticGenerator(const AppProfile &profile,
                                       BackingStore &store,
                                       std::uint64_t seed,
                                       std::uint64_t base_line,
                                       std::uint64_t region_lines)
    : prof(profile), backing(store), rng(seed), baseLine(base_line),
      regionLines(region_lines ? region_lines : profile.footprintLines)
{
    prof.validate();
    pcmap_assert(regionLines > 0);
    cursor = baseLine + rng.below(regionLines);
    recentReads.reserve(kRecentWindow);
    dirtyWeights.assign(prof.dirtyWordPct.begin(),
                        prof.dirtyWordPct.end());
    // Geometric gap whose mean matches 1000 / (RPKI + WPKI).
    const double mean_gap = 1000.0 / prof.apki();
    gapP = 1.0 / (1.0 + mean_gap);
}

std::uint64_t
SyntheticGenerator::pickReadLine()
{
    if (rng.chance(prof.rowHitRate)) {
        // Continue the sequential run (stays row-local per channel).
        cursor = baseLine + (cursor - baseLine + 1) % regionLines;
    } else {
        cursor = baseLine + rng.below(regionLines);
    }
    return cursor;
}

std::uint64_t
SyntheticGenerator::pickWriteLine()
{
    if (!recentReads.empty() && rng.chance(prof.writeToRecentRead)) {
        return recentReads[rng.below(recentReads.size())];
    }
    return baseLine + rng.below(regionLines);
}

void
SyntheticGenerator::buildWriteData(std::uint64_t line, MemOp &op)
{
    const CacheLine &old = backing.read(line).data;
    op.data = old;

    const auto n_dirty = static_cast<unsigned>(rng.weighted(dirtyWeights));
    if (n_dirty == 0) {
        lastCount = 0;
        return; // fully silent store
    }
    pcmap_assert(n_dirty <= kWordsPerLine);

    // Choose the dirty word offsets, optionally repeating the previous
    // write-back's offsets (Section IV-C2's 32% clustering).
    std::array<unsigned, kWordsPerLine> offsets{};
    unsigned count = 0;
    if (lastCount != 0 && rng.chance(prof.offsetCorr)) {
        count = std::min(lastCount, n_dirty);
        std::copy_n(lastOffsets.begin(), count, offsets.begin());
    }
    while (count < n_dirty) {
        const auto off = static_cast<unsigned>(rng.below(kWordsPerLine));
        if (std::find(offsets.begin(), offsets.begin() + count, off) ==
            offsets.begin() + count) {
            offsets[count++] = off;
        }
    }
    lastOffsets = offsets;
    lastCount = count;

    for (unsigned i = 0; i < count; ++i) {
        const unsigned off = offsets[i];
        std::uint64_t v = rng.next();
        if (v == old.w[off])
            v ^= 1; // guarantee the word really changes
        op.data.w[off] = v;
    }
}

bool
SyntheticGenerator::next(MemOp &op)
{
    op.gapInsts = rng.geometric(gapP);
    op.isWrite = !rng.chance(prof.readFraction());

    if (op.isWrite) {
        const std::uint64_t line = pickWriteLine();
        op.addr = line * kLineBytes;
        buildWriteData(line, op);
    } else {
        const std::uint64_t line = pickReadLine();
        op.addr = line * kLineBytes;
        if (recentReads.size() < kRecentWindow) {
            recentReads.push_back(line);
        } else {
            recentReads[recentPos] = line;
            recentPos = (recentPos + 1) % kRecentWindow;
        }
    }
    return true;
}

} // namespace pcmap::workload
