/**
 * @file
 * Unit tests for SweepSpec axis expansion and per-run seed derivation.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/log.h"
#include "sim/rng.h"
#include "sweep/sweep_spec.h"

namespace pcmap::sweep {
namespace {

TEST(SweepSpec, ExpansionCountIsAxisProduct)
{
    SweepSpec spec;
    spec.configs = {ConfigVariant{"a", {}}, ConfigVariant{"b", {}}};
    spec.systems = {presets::Baseline, presets::RoW_NR,
                    presets::RWoW_RDE};
    spec.workloads = {"MP1", "canneal"};
    spec.seeds = {1, 2};
    EXPECT_EQ(spec.size(), 2u * 3u * 2u * 2u);
    EXPECT_EQ(spec.expand().size(), spec.size());
}

TEST(SweepSpec, DefaultAxesCoverAllSixModes)
{
    SweepSpec spec;
    spec.workloads = {"MP1"};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].system, kPaperSystems[i]);
}

TEST(SweepSpec, IndicesAreDenseAndOrdered)
{
    SweepSpec spec;
    spec.workloads = {"MP1", "MP2", "MP3"};
    spec.seeds = {7, 8};
    const auto points = spec.expand();
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
}

TEST(SweepSpec, RunSeedsFollowTheDerivationContract)
{
    SweepSpec spec;
    spec.workloads = {"MP1", "MP4"};
    spec.seeds = {3, 4};
    for (const SweepPoint &p : spec.expand()) {
        EXPECT_EQ(p.runSeed, Rng::deriveStream(p.baseSeed, p.index));
        EXPECT_EQ(p.config.seed, p.runSeed);
        EXPECT_EQ(ControllerPolicy::fromConfig(p.config.controller),
                  p.system);
    }
}

TEST(SweepSpec, RunSeedsAreDistinctAcrossPoints)
{
    SweepSpec spec;
    spec.workloads = {"MP1", "MP2", "MP3", "MP4", "MP5", "MP6"};
    spec.seeds = {1, 2, 3};
    std::set<std::uint64_t> seeds;
    for (const SweepPoint &p : spec.expand())
        seeds.insert(p.runSeed);
    EXPECT_EQ(seeds.size(), spec.size());
}

TEST(SweepSpec, ExpansionIsAPureFunctionOfTheSpec)
{
    SweepSpec spec;
    spec.workloads = {"MP1", "canneal"};
    spec.seeds = {5};
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].runSeed, b[i].runSeed);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].system, b[i].system);
    }
}

TEST(SweepSpec, PolicyAxisExpandsAfterModes)
{
    // Presets and compositions share the system axis, in its order.
    SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.systems = {presets::Baseline, *ControllerPolicy::parse("fg"),
                    *ControllerPolicy::parse("row+rd")};
    EXPECT_EQ(spec.size(), 3u);
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 3u);

    EXPECT_EQ(points[0].system, presets::Baseline);
    EXPECT_EQ(points[0].label(), "Baseline");

    EXPECT_EQ(points[1].system.composition(), "fg");
    EXPECT_EQ(ControllerPolicy::fromConfig(points[1].config.controller),
              points[1].system);
    EXPECT_EQ(points[1].label(), "fg");
    EXPECT_EQ(points[2].system.composition(), "row+rd");
    EXPECT_EQ(points[2].label(), "row+rd");
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        EXPECT_EQ(points[i].runSeed,
                  Rng::deriveStream(points[i].baseSeed, i));
    }
}

TEST(SweepSpec, PolicyOnlySpecNeedsNoModes)
{
    SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.systems = {*ControllerPolicy::parse("fg+rd")};
    EXPECT_EQ(spec.size(), 1u);
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].label(), "fg+rd");
}

TEST(SweepSpec, EmptyAxesAreFatal)
{
    ScopedErrorTrap trap;
    SweepSpec no_workloads;
    EXPECT_THROW(no_workloads.expand(), SimError);

    SweepSpec no_system_axis;
    no_system_axis.workloads = {"MP1"};
    no_system_axis.systems.clear();
    EXPECT_THROW(no_system_axis.expand(), SimError);

    SweepSpec no_seeds;
    no_seeds.workloads = {"MP1"};
    no_seeds.seeds.clear();
    EXPECT_THROW(no_seeds.expand(), SimError);

    SweepSpec no_configs;
    no_configs.workloads = {"MP1"};
    no_configs.configs.clear();
    EXPECT_THROW(no_configs.expand(), SimError);
}

} // namespace
} // namespace pcmap::sweep
