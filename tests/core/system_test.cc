/**
 * @file
 * Integration tests for the assembled system: every evaluated system
 * runs to completion, results are internally consistent, and runs are
 * reproducible from the seed.
 */

#include <gtest/gtest.h>

#include "core/system.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

SystemConfig
smallConfig(const ControllerPolicy &system)
{
    SystemConfig cfg;
    system.applyTo(cfg.controller);
    cfg.numCores = 4;
    cfg.instructionsPerCore = 60'000;
    cfg.seed = 3;
    return cfg;
}

class SystemAllModes : public ::testing::TestWithParam<PaperSystem>
{
};

TEST_P(SystemAllModes, RunsToCompletionWithSaneMetrics)
{
    const SystemResults r =
        runWorkload(smallConfig(GetParam().policy()), "MP1");
    EXPECT_EQ(r.system, GetParam().policy());
    EXPECT_EQ(r.workload, "MP1");
    EXPECT_EQ(r.coreIpc.size(), 4u);
    for (const double ipc : r.coreIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, 4.0); // issue width bounds IPC
    }
    EXPECT_GT(r.readsCompleted, 0u);
    EXPECT_GT(r.writesCompleted, 0u);
    EXPECT_GT(r.avgReadLatencyNs, 20.0);
    EXPECT_LT(r.avgReadLatencyNs, 5000.0);
    EXPECT_GT(r.simTicks, 0u);
    EXPECT_GT(r.rpki, 0.0);
    EXPECT_GT(r.wpki, 0.0);
    EXPECT_GE(r.irlpMean, 0.0);
    EXPECT_LE(r.irlpMean, 10.0);
    // The essential-word histogram is a probability distribution.
    double sum = 0.0;
    for (double p : r.essentialPct)
        sum += p;
    EXPECT_NEAR(sum, 100.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SystemAllModes, ::testing::ValuesIn(allPaperSystems()),
    [](const ::testing::TestParamInfo<PaperSystem> &info) {
        return info.param.testName();
    });

TEST(System, DeterministicForSameSeed)
{
    const SystemResults a =
        runWorkload(smallConfig(presets::RWoW_RDE), "canneal");
    const SystemResults b =
        runWorkload(smallConfig(presets::RWoW_RDE), "canneal");
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_DOUBLE_EQ(a.ipcSum, b.ipcSum);
    EXPECT_EQ(a.readsCompleted, b.readsCompleted);
    EXPECT_EQ(a.writesCompleted, b.writesCompleted);
}

TEST(System, DifferentSeedsDiffer)
{
    SystemConfig cfg = smallConfig(presets::Baseline);
    const SystemResults a = runWorkload(cfg, "MP4");
    cfg.seed = 4;
    const SystemResults b = runWorkload(cfg, "MP4");
    EXPECT_NE(a.simTicks, b.simTicks);
}

TEST(System, SharedAddressSpaceForMtWorkloads)
{
    // Multi-threaded runs share a footprint: the same line can be
    // touched by several cores without address-partition panics.
    const SystemResults r =
        runWorkload(smallConfig(presets::RWoW_RDE), "streamcluster");
    EXPECT_GT(r.readsCompleted, 0u);
}

TEST(System, SpeculativeReadsOnlyInRoWModes)
{
    const SystemResults base =
        runWorkload(smallConfig(presets::Baseline), "MP4");
    EXPECT_EQ(base.specReads, 0u);
    EXPECT_EQ(base.rowReads, 0u);

    const SystemResults wow =
        runWorkload(smallConfig(presets::WoW_NR), "MP4");
    EXPECT_EQ(wow.specReads, 0u);
}

TEST(System, WowGroupsOnlyInWoWModes)
{
    const SystemResults row =
        runWorkload(smallConfig(presets::RoW_NR), "MP4");
    EXPECT_EQ(row.wowGroups, 0u);
}

TEST(System, MeasuredMixApproximatesTableII)
{
    // MP4 = 8x astar with RPKI 8.05 / WPKI 5.65 per Table II; the
    // measured PCM traffic mix should land in that neighbourhood.
    SystemConfig cfg = smallConfig(presets::Baseline);
    cfg.numCores = 8;
    const SystemResults r = runWorkload(cfg, "MP4");
    EXPECT_NEAR(r.rpki, 8.05, 1.2);
    // WPKI is reduced by silent-store elimination and coalescing, so
    // only the order of magnitude is pinned.
    EXPECT_GT(r.wpki, 2.0);
    EXPECT_LT(r.wpki, 7.0);
}

TEST(System, EssentialWordsMeanInPaperBand)
{
    SystemConfig cfg = smallConfig(presets::Baseline);
    const SystemResults r = runWorkload(cfg, "MP1");
    // Section III-B: most writes update 1-4 words; the mean over
    // non-silent traffic sits between 1 and 4.
    EXPECT_GT(r.avgEssentialWords, 1.0);
    EXPECT_LT(r.avgEssentialWords, 4.0);
}

TEST(SystemDeath, CoreCountMismatchIsFatal)
{
    SystemConfig cfg = smallConfig(presets::Baseline);
    cfg.numCores = 8;
    const workload::WorkloadSpec spec =
        workload::makeWorkload("MP1", 4);
    EXPECT_EXIT(System(cfg, spec), ::testing::ExitedWithCode(1),
                "core apps");
}

} // namespace
} // namespace pcmap
