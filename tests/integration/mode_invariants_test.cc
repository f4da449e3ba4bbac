/**
 * @file
 * Cross-cutting invariants that must hold for EVERY paper system and
 * workload class: request conservation, metric bounds, mechanism
 * gating, and accounting consistency.  Parameterized over the full
 * (system x workload) grid as a property soak.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/system.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

// The workload is a std::string, not a const char *: gtest prints a
// pointer parameter by address, and ctest names carry that printout, so
// a pointer would give every build different test names.
using GridParam = std::tuple<PaperSystem, std::string>;

class ModeInvariants : public ::testing::TestWithParam<GridParam>
{
  protected:
    SystemResults
    run()
    {
        SystemConfig cfg;
        std::get<0>(GetParam()).policy().applyTo(cfg.controller);
        cfg.numCores = 4;
        cfg.instructionsPerCore = 80'000;
        cfg.seed = 29;
        return runWorkload(cfg, std::get<1>(GetParam()));
    }
};

TEST_P(ModeInvariants, MetricsWithinPhysicalBounds)
{
    const SystemResults r = run();

    // Request flow sanity.
    EXPECT_GT(r.readsCompleted, 0u);
    EXPECT_GT(r.writesCompleted, 0u);

    // Latency is at least the unloaded row-hit service and below an
    // absurd bound.
    const PcmTiming t;
    EXPECT_GE(r.avgReadLatencyNs, ticksToNs(t.readHitTicks()));
    EXPECT_LT(r.avgReadLatencyNs, 10'000.0);
    EXPECT_LE(r.avgReadQueueWaitNs, r.avgReadLatencyNs);

    // IRLP can never exceed the chip count.
    EXPECT_GE(r.irlpMean, 0.0);
    EXPECT_LE(r.irlpMean, static_cast<double>(kChipsPerRank));
    EXPECT_LE(r.irlpMax, static_cast<double>(kChipsPerRank));

    // Essential-word statistics form a distribution.
    double pct_sum = 0.0;
    for (double p : r.essentialPct) {
        EXPECT_GE(p, 0.0);
        pct_sum += p;
    }
    EXPECT_NEAR(pct_sum, 100.0, 0.1);
    EXPECT_GE(r.avgEssentialWords, 0.0);
    EXPECT_LE(r.avgEssentialWords, 8.0);

    // Percentages are percentages.
    EXPECT_GE(r.pctReadsDelayedByWrite, 0.0);
    EXPECT_LE(r.pctReadsDelayedByWrite, 100.0);

    // Energy and wear exist and are consistent.
    EXPECT_GT(r.energyUj, 0.0);
    EXPECT_GE(r.energySetUj + r.energyResetUj, 0.0);
    EXPECT_LE(r.energySetUj + r.energyResetUj, r.energyUj);
    EXPECT_GE(r.wearChipImbalance, 1.0);

    // IPC bounded by issue width per core.
    for (const double ipc : r.coreIpc)
        EXPECT_LE(ipc, 4.0);
}

TEST_P(ModeInvariants, MechanismGating)
{
    const SystemResults r = run();
    const ControllerPolicy &system = std::get<0>(GetParam()).policy();

    if (!system.enableRoW) {
        EXPECT_EQ(r.specReads, 0u);
        EXPECT_EQ(r.rowReads, 0u);
        EXPECT_EQ(r.deferredEccReads, 0u);
        EXPECT_EQ(r.twoStepWrites, 0u);
        EXPECT_EQ(r.rollbacks, 0u);
    }
    if (!system.enableWoW) {
        EXPECT_EQ(r.wowGroups, 0u);
        EXPECT_EQ(r.wowMergedWrites, 0u);
    }
    // Without fault injection there are never rollbacks.
    EXPECT_EQ(r.rollbacks, 0u);
    // Consumed-before-verify is a subset of speculative reads.
    EXPECT_LE(r.consumedBeforeVerify, r.specReads);
}

TEST_P(ModeInvariants, DeterministicReplay)
{
    const SystemResults a = run();
    const SystemResults b = run();
    EXPECT_EQ(a.simTicks, b.simTicks);
    EXPECT_DOUBLE_EQ(a.ipcSum, b.ipcSum);
    EXPECT_EQ(a.readsCompleted, b.readsCompleted);
    EXPECT_EQ(a.specReads, b.specReads);
    EXPECT_DOUBLE_EQ(a.energyUj, b.energyUj);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModeInvariants,
    ::testing::Combine(::testing::ValuesIn(allPaperSystems()),
                       ::testing::Values(std::string("MP1"),
                                         std::string("MP4"),
                                         std::string("canneal"),
                                         std::string("freqmine"))),
    [](const ::testing::TestParamInfo<GridParam> &info) {
        return std::get<0>(info.param).testName() + "_" +
               std::get<1>(info.param);
    });

/** Multi-rank organizations must satisfy the same invariants. */
class MultiRankInvariants
    : public ::testing::TestWithParam<std::tuple<PaperSystem, unsigned>>
{
};

TEST_P(MultiRankInvariants, RunsCleanly)
{
    SystemConfig cfg;
    std::get<0>(GetParam()).policy().applyTo(cfg.controller);
    cfg.geometry.ranksPerChannel = std::get<1>(GetParam());
    cfg.numCores = 4;
    cfg.instructionsPerCore = 60'000;
    cfg.seed = 31;
    const SystemResults r = runWorkload(cfg, "MP4");
    EXPECT_GT(r.readsCompleted, 0u);
    EXPECT_GT(r.writesCompleted, 0u);
    EXPECT_LE(r.irlpMax, static_cast<double>(kChipsPerRank));
    EXPECT_GT(r.ipcSum, 0.0);
}

TEST_P(MultiRankInvariants, MoreRanksNeverHurt)
{
    SystemConfig one;
    std::get<0>(GetParam()).policy().applyTo(one.controller);
    one.numCores = 4;
    one.instructionsPerCore = 60'000;
    one.seed = 31;
    SystemConfig many = one;
    many.geometry.ranksPerChannel = std::get<1>(GetParam());
    const double ipc1 = runWorkload(one, "MP4").ipcSum;
    const double ipcn = runWorkload(many, "MP4").ipcSum;
    EXPECT_GE(ipcn, ipc1 * 0.98);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, MultiRankInvariants,
    ::testing::Combine(::testing::Values(PaperSystem{0}, PaperSystem{5}),
                       ::testing::Values(2u, 4u)),
    [](const ::testing::TestParamInfo<std::tuple<PaperSystem, unsigned>>
           &info) {
        return std::get<0>(info.param).testName() + "_ranks" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace pcmap
