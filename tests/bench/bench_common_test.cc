/**
 * @file
 * Unit tests for the bench harness plumbing: HarnessConfig::parse
 * edge cases (malformed tokens, duplicate keys, sweep-related keys)
 * and the shared math helpers.
 */

#include <gtest/gtest.h>

#include <array>

#include "bench_common.h"
#include "sim/log.h"

namespace pcmap::bench {
namespace {

/** Build a mutable argv from string literals. */
template <std::size_t N>
HarnessConfig
parseArgs(std::array<const char *, N> tokens)
{
    std::array<char *, N + 1> argv{};
    argv[0] = const_cast<char *>("harness");
    for (std::size_t i = 0; i < N; ++i)
        argv[i + 1] = const_cast<char *>(tokens[i]);
    return HarnessConfig::parse(static_cast<int>(N + 1), argv.data());
}

TEST(HarnessConfig, DefaultsWithNoArguments)
{
    const HarnessConfig hc = parseArgs(std::array<const char *, 0>{});
    EXPECT_EQ(hc.insts, 600'000u);
    EXPECT_EQ(hc.seed, 1u);
    EXPECT_EQ(hc.threads, 1u);
    EXPECT_TRUE(hc.jsonl.empty());
}

TEST(HarnessConfig, ParsesCommonAndSweepKeys)
{
    const HarnessConfig hc = parseArgs(std::array<const char *, 4>{
        "insts=2500", "seed=42", "threads=8", "jsonl=out.jsonl"});
    EXPECT_EQ(hc.insts, 2500u);
    EXPECT_EQ(hc.seed, 42u);
    EXPECT_EQ(hc.threads, 8u);
    EXPECT_EQ(hc.jsonl, "out.jsonl");
}

TEST(HarnessConfig, PolicyKeyAddsNonPresetCompositionsOnly)
{
    const HarnessConfig hc = parseArgs(std::array<const char *, 1>{
        "policy=fg,row+wow+rde,RD+Row"});
    // row+wow+rde is the RWoW-RDE preset: already a figure column.
    const auto labels = systemLabels(hc.evaluationSpec({"MP1"}).systems);
    ASSERT_EQ(labels.size(), 8u);
    EXPECT_EQ(labels[0], "Baseline");
    EXPECT_EQ(labels[5], "RWoW-RDE");
    EXPECT_EQ(labels[6], "fg");
    EXPECT_EQ(labels[7], "row+rd");
    EXPECT_EQ(systemLabels({presets::Baseline}, DeviceOrg::Tlc),
              (std::vector<std::string>{"Baseline@tlc"}));

    ScopedErrorTrap trap;
    EXPECT_THROW(
        parseArgs(std::array<const char *, 1>{"policy=row+bogus"}),
        SimError);
}

TEST(HarnessConfig, ExtraKeysStayAccessibleViaRawConfig)
{
    const HarnessConfig hc =
        parseArgs(std::array<const char *, 1>{"workload=MP3"});
    EXPECT_EQ(hc.raw.getString("workload", ""), "MP3");
}

TEST(HarnessConfig, TokenWithoutEqualsIsFatal)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseArgs(std::array<const char *, 1>{"insts"}),
                 SimError);
}

TEST(HarnessConfig, TokenWithEmptyKeyIsFatal)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseArgs(std::array<const char *, 1>{"=5"}),
                 SimError);
}

TEST(HarnessConfig, DuplicateKeyIsFatal)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseArgs(std::array<const char *, 2>{"seed=1",
                                                       "seed=2"}),
                 SimError);
}

TEST(HarnessConfig, NonNumericValueForNumericKeyIsFatal)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseArgs(std::array<const char *, 1>{"insts=lots"}),
                 SimError);
}

TEST(HarnessConfig, NegativeCountIsFatal)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseArgs(std::array<const char *, 1>{"insts=-5"}),
                 SimError);
}

TEST(HarnessConfig, EvaluationSpecCoversModesByWorkloads)
{
    const HarnessConfig hc = parseArgs(
        std::array<const char *, 2>{"insts=1234", "seed=7"});
    const sweep::SweepSpec spec = hc.evaluationSpec({"MP1", "MP2"});
    EXPECT_EQ(spec.size(), 6u * 2u);
    EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{7});
    const auto points = spec.expand();
    for (const auto &p : points)
        EXPECT_EQ(p.config.instructionsPerCore, 1234u);
}

TEST(BenchMath, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

} // namespace
} // namespace pcmap::bench
