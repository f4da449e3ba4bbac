/**
 * @file
 * End-to-end checks of the paper's directional claims on small runs:
 * PCMap raises IRLP and write throughput over the baseline, reduces
 * effective read latency, never loses IPC, and the rollback machinery
 * behaves per Table IV.  These are shape assertions with generous
 * margins — the bench harnesses reproduce the full figures.
 */

#include <gtest/gtest.h>

#include "core/system.h"

namespace pcmap {
namespace {

SystemConfig
cfgFor(const ControllerPolicy &system, std::uint64_t insts = 150'000)
{
    SystemConfig cfg;
    system.applyTo(cfg.controller);
    cfg.numCores = 8;
    cfg.instructionsPerCore = insts;
    cfg.seed = 11;
    return cfg;
}

TEST(EndToEnd, PcmapBoostsIrlpOverBaseline)
{
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "MP1");
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP1");
    // Paper: 2.37 -> 4.5 on average.  Insist on a clear gain.
    EXPECT_GT(rde.irlpMean, base.irlpMean * 1.3);
    // Baseline IRLP is essentially the mean essential-word count.
    EXPECT_NEAR(base.irlpMean, base.avgEssentialWords, 0.8);
}

TEST(EndToEnd, PcmapImprovesWriteThroughput)
{
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "MP4");
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP4");
    EXPECT_GT(rde.writeThroughput, base.writeThroughput * 1.05);
}

TEST(EndToEnd, PcmapReducesEffectiveReadLatency)
{
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "canneal");
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "canneal");
    EXPECT_LT(rde.avgReadLatencyNs, base.avgReadLatencyNs);
}

TEST(EndToEnd, PcmapImprovesIpc)
{
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "MP1");
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP1");
    EXPECT_GT(rde.ipcSum, base.ipcSum);
}

TEST(EndToEnd, MechanismOrderingHolds)
{
    // RWoW (both mechanisms) should not lose to RoW alone, and the
    // full rotation system should not lose to no-rotation, on a
    // workload with enough write pressure.
    const SystemResults row =
        runWorkload(cfgFor(presets::RoW_NR), "MP4");
    const SystemResults rwow =
        runWorkload(cfgFor(presets::RWoW_NR), "MP4");
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP4");
    EXPECT_GE(rwow.ipcSum, row.ipcSum * 0.97);
    EXPECT_GE(rde.ipcSum, rwow.ipcSum * 0.97);
}

TEST(EndToEnd, BaselineReadsSufferFromWrites)
{
    // Figure 1's phenomenon: a visible share of reads is delayed by
    // write service in the baseline.
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "MP4");
    EXPECT_GT(base.pctReadsDelayedByWrite, 5.0);
}

TEST(EndToEnd, RoWServesReadsDuringWrites)
{
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "canneal");
    EXPECT_GT(rde.specReads, 0u);
    EXPECT_GT(rde.rowReads + rde.deferredEccReads, 0u);
}

TEST(EndToEnd, WoWConsolidatesWrites)
{
    const SystemResults rde =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP4");
    EXPECT_GT(rde.wowGroups, 0u);
    EXPECT_GT(rde.wowMergedWrites, 0u);
}

TEST(EndToEnd, RotationIncreasesMergeRate)
{
    const SystemResults nr =
        runWorkload(cfgFor(presets::RWoW_NR), "MP4");
    const SystemResults rd =
        runWorkload(cfgFor(presets::RWoW_RD), "MP4");
    // Same-offset clustering blocks merges without rotation.
    EXPECT_GE(rd.wowMergedWrites, nr.wowMergedWrites);
}

TEST(EndToEnd, FaultyModeCostsIpcButNeverBelowBaseline)
{
    // Table IV: assuming every speculative read faulty costs some
    // IPC, yet RoW still beats the baseline.
    SystemConfig faulty = cfgFor(presets::RWoW_RDE);
    faulty.core.assumeAlwaysFaulty = true;
    const SystemResults f = runWorkload(faulty, "canneal");
    const SystemResults clean =
        runWorkload(cfgFor(presets::RWoW_RDE), "canneal");
    const SystemResults base =
        runWorkload(cfgFor(presets::Baseline), "canneal");
    // Rollback penalties perturb global scheduling, so allow a small
    // butterfly margin on the upper bound.
    EXPECT_LE(f.ipcSum, clean.ipcSum * 1.02);
    EXPECT_GT(f.ipcSum, base.ipcSum * 0.98);
    if (f.consumedBeforeVerify > 0) {
        EXPECT_GT(f.rollbacks, 0u);
    }
}

TEST(EndToEnd, NoRollbacksWithoutFaults)
{
    const SystemResults r =
        runWorkload(cfgFor(presets::RWoW_RDE), "MP1");
    EXPECT_EQ(r.rollbacks, 0u);
}

TEST(EndToEnd, MostReadsConsumedAfterVerification)
{
    // Section IV-B3 reports 98.7% of RoW reads are not committed
    // before the deferred check; our commit-delay model should keep
    // the consumed-before-verify fraction small.
    const SystemResults r =
        runWorkload(cfgFor(presets::RWoW_RDE), "canneal");
    if (r.specReads > 100) {
        const double frac =
            static_cast<double>(r.consumedBeforeVerify) /
            static_cast<double>(r.specReads);
        EXPECT_LT(frac, 0.35);
    }
}

TEST(EndToEnd, LatencyRatioSweepKeepsImproving)
{
    // Table III direction: at a higher write-to-read ratio, PCMap's
    // relative IPC gain does not shrink.
    auto gain_at = [](double read_ns) {
        SystemConfig base = cfgFor(presets::Baseline, 100'000);
        base.controller.timing.arrayReadNs = read_ns;
        SystemConfig rde = cfgFor(presets::RWoW_RDE, 100'000);
        rde.controller.timing.arrayReadNs = read_ns;
        const double b = runWorkload(base, "MP4").ipcSum;
        const double r = runWorkload(rde, "MP4").ipcSum;
        return r / b;
    };
    const double at2x = gain_at(60.0);
    const double at8x = gain_at(15.0);
    EXPECT_GT(at2x, 1.0);
    EXPECT_GT(at8x, at2x * 0.95);
}

} // namespace
} // namespace pcmap
