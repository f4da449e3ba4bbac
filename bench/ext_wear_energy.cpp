/**
 * @file
 * Extension study: endurance and energy.
 *
 * Part 1 — the paper's Section IV-C2 claim that rotating data and
 * ECC/PCC words balances chip-level wear: per-chip write imbalance
 * (max/mean) and differential-write energy for each paper system.
 * Without rotation the fixed ECC/PCC chips absorb an update per
 * write-back and wear several times faster than the mean; RDE
 * flattens the distribution.
 *
 * Part 2 — the orthogonal line-level story: the same write-back
 * stream with and without Start-Gap remapping (Qureshi et al., the
 * scheme the paper cites), showing the hot-line imbalance collapsing
 * toward 1.
 */

#include "bench_common.h"

#include "mem/wear.h"
#include "workload/generator.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    const std::string w = hc.raw.getString("workload", "canneal");
    banner("Extension: chip wear balance and write energy",
           "Section IV-C2 — rotation spreads ECC/PCC-chip wear; "
           "PCMap is orthogonal to Start-Gap line leveling",
           hc);
    std::printf("workload: %s\n\n", w.c_str());

    std::printf("%-10s %10s %8s %12s %10s %10s\n", "system",
                "chipImbal", "chipCV", "energy(uJ)", "bitsSet(M)",
                "bitsRst(M)");
    rule(66);
    for (const ControllerPolicy &system : kPaperSystems) {
        const SystemResults r = runPoint(hc, system, w);
        std::printf("%-10s %10.3f %8.3f %12.1f %10.2f %10.2f\n",
                    system.label().c_str(), r.wearChipImbalance,
                    r.wearChipCv, r.energyUj,
                    static_cast<double>(r.bitsSet) / 1e6,
                    static_cast<double>(r.bitsReset) / 1e6);
    }

    // --- Part 2: Start-Gap on a hot-spotted write stream -------------
    // Half of all writes hammer 16 hot lines of a 256-line region —
    // the malicious-ish pattern wear leveling exists for.
    constexpr std::uint64_t kRegion = 256;
    constexpr std::uint64_t kWrites = 400'000;
    std::printf("\nStart-Gap line leveling (hot-spot stream, region "
                "%llu lines, gap period 16):\n",
                static_cast<unsigned long long>(kRegion));
    Rng rng(hc.seed);
    WearTracker without_sg;
    WearTracker with_sg;
    StartGapRemapper sg(kRegion, 16);
    for (std::uint64_t i = 0; i < kWrites; ++i) {
        const std::uint64_t logical =
            rng.chance(0.5) ? rng.below(16) : rng.below(kRegion);
        without_sg.recordLineWrite(logical);
        with_sg.recordLineWrite(sg.remap(logical));
        sg.onWrite();
    }
    std::printf("  hottest-line imbalance: %.2f without, %.2f with "
                "Start-Gap (%llu gap moves)\n",
                without_sg.lineImbalance(), with_sg.lineImbalance(),
                static_cast<unsigned long long>(sg.gapMovements()));
    std::printf("  (endurance-limited lifetime scales with the "
                "inverse of this ratio)\n");
    return 0;
}
