/**
 * @file
 * Deterministic synthetic traffic generator driven by an AppProfile.
 *
 * Produces the per-core stream of LLC misses and write-backs that the
 * paper's gem5 + application setup would emit: geometric instruction
 * gaps matching RPKI+WPKI, sequential runs for row-buffer locality,
 * write-backs aimed at recently read lines, dirty-word counts drawn
 * from the profile's Figure-2 histogram, and the same-offset
 * correlation between consecutive write-backs that motivates word
 * rotation.
 *
 * Write payloads are constructed against the functional backing store
 * (the content the LLC would have read on fill), so the controller's
 * differential-write comparison discovers exactly the intended number
 * of essential words — including fully silent stores.
 */

#ifndef PCMAP_WORKLOAD_GENERATOR_H
#define PCMAP_WORKLOAD_GENERATOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/source.h"
#include "mem/backing_store.h"
#include "sim/rng.h"
#include "workload/profile.h"

namespace pcmap::workload {

/** Per-core synthetic request source. */
class SyntheticGenerator : public RequestSource
{
  public:
    /**
     * @param profile    Application statistics to reproduce.
     * @param store      Functional memory (for old line contents).
     * @param seed       Stream seed; equal seeds replay identically.
     * @param base_line  First line of this core's address region.
     * @param region_lines Region size; 0 uses the profile footprint.
     */
    SyntheticGenerator(const AppProfile &profile, BackingStore &store,
                       std::uint64_t seed, std::uint64_t base_line = 0,
                       std::uint64_t region_lines = 0);

    bool next(MemOp &op) override;

    const AppProfile &profile() const { return prof; }

  private:
    std::uint64_t pickReadLine();
    std::uint64_t pickWriteLine();
    void buildWriteData(std::uint64_t line, MemOp &op);

    AppProfile prof;
    BackingStore &backing;
    Rng rng;
    std::uint64_t baseLine;
    std::uint64_t regionLines;

    std::uint64_t cursor;            ///< sequential-run pointer
    std::vector<std::uint64_t> recentReads; ///< eviction candidates
    std::size_t recentPos = 0;
    /** The previous write-back's dirty offsets, first lastCount. */
    std::array<unsigned, kWordsPerLine> lastOffsets{};
    unsigned lastCount = 0;
    std::vector<double> dirtyWeights;       ///< cached histogram
    double gapP = 0.5;                      ///< geometric parameter
};

} // namespace pcmap::workload

#endif // PCMAP_WORKLOAD_GENERATOR_H
