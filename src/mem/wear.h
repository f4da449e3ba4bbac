/**
 * @file
 * PCM endurance accounting and Start-Gap wear leveling.
 *
 * PCM cells endure ~1e8 writes, so write distribution matters.  The
 * paper argues (Section IV-C2) that PCMap's rotation of data and
 * ECC/PCC words spreads chip-level wear, and notes that PCMap is
 * orthogonal to line-level wear-leveling schemes such as Start-Gap
 * (Qureshi et al., MICRO 2009).  This module provides both halves:
 *
 *  - WearTracker: per-chip and per-line write counters with imbalance
 *    metrics (max/mean ratio, coefficient of variation); the
 *    controller feeds the per-chip counts on every array write, and
 *    line-level studies (Start-Gap) feed the per-line ones;
 *  - StartGapRemapper: the Start-Gap algebraic remap — one gap line
 *    per region plus start/gap pointers; after every `gapWritePeriod`
 *    writes the gap moves one slot, slowly rotating the whole region
 *    — so hot logical lines migrate across physical lines with only
 *    two registers of state per region.
 */

#ifndef PCMAP_MEM_WEAR_H
#define PCMAP_MEM_WEAR_H

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/line.h"

namespace pcmap {

/** Write-count statistics for endurance analysis. */
class WearTracker
{
  public:
    WearTracker() = default;

    /** Record an array write of @p words words on chip @p chip. */
    void
    recordChipWrite(unsigned chip, unsigned words = 1)
    {
        chipWrites.at(chip) += words;
        totalWrites += words;
    }

    /** Record a line-level write (for Start-Gap style analysis). */
    void recordLineWrite(std::uint64_t line_addr)
    {
        ++lineWrites[line_addr];
    }

    /** Total word writes recorded per chip. */
    const std::array<std::uint64_t, kChipsPerRank> &
    perChip() const
    {
        return chipWrites;
    }

    std::uint64_t total() const { return totalWrites; }

    /**
     * Max-to-mean ratio of per-chip writes: 1.0 is perfectly even;
     * the inverse bounds the lifetime fraction achieved.
     */
    double chipImbalance() const;

    /** Coefficient of variation (stddev / mean) of per-chip writes. */
    double chipCv() const;

    /** Max-to-mean ratio over lines that were written at least once. */
    double lineImbalance() const;

    /** Number of distinct lines written. */
    std::size_t linesTouched() const { return lineWrites.size(); }

  private:
    std::array<std::uint64_t, kChipsPerRank> chipWrites{};
    std::unordered_map<std::uint64_t, std::uint64_t> lineWrites;
    std::uint64_t totalWrites = 0;
};

/**
 * Start-Gap wear leveling over a region of @p region_lines lines.
 *
 * Physically the region has region_lines + 1 slots; the extra slot is
 * the gap.  Logical line L maps to physical slot
 *   (L + start) mod (N + 1), skipping the gap slot,
 * and every gapWritePeriod writes the gap moves down one slot (the
 * displaced line is copied into the old gap).  After N+1 gap
 * movements every line has shifted by one and start advances — over
 * time hot lines sweep the whole region.
 */
class StartGapRemapper
{
  public:
    /**
     * @param region_lines     Logical lines in the region.
     * @param gap_write_period Writes between gap movements (the
     *                         paper's Start-Gap uses 100).
     */
    StartGapRemapper(std::uint64_t region_lines,
                     std::uint64_t gap_write_period = 100);

    /** Physical slot currently holding logical line @p logical. */
    std::uint64_t remap(std::uint64_t logical) const;

    /**
     * Account one write to the region; may move the gap.
     * @return true when a gap movement occurred (costs one extra
     *         line copy in the real device).
     */
    bool onWrite();

    std::uint64_t regionLines() const { return lines; }
    std::uint64_t gapPosition() const { return gap; }
    std::uint64_t startOffset() const { return start; }
    std::uint64_t gapMovements() const { return movements; }

  private:
    std::uint64_t lines;
    std::uint64_t period;
    std::uint64_t gap;       ///< physical slot of the gap (0..lines)
    std::uint64_t start = 0; ///< rotation offset
    std::uint64_t writesSinceMove = 0;
    std::uint64_t movements = 0;
};

} // namespace pcmap

#endif // PCMAP_MEM_WEAR_H
