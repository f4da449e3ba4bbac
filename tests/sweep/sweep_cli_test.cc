/**
 * @file
 * Tests for the pcmap-sweep argument parsers, including the rejection
 * paths: notably that negative seed tokens are refused instead of
 * being silently wrapped to huge unsigned values by strtoull.
 */

#include <gtest/gtest.h>

#include "sim/log.h"
#include "sweep/sweep_cli.h"

namespace pcmap::sweep {
namespace {

TEST(SweepCli, ParseSeedsAcceptsDecimalAndHexLists)
{
    EXPECT_EQ(parseSeeds("1"), (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(parseSeeds("3,1,2"),
              (std::vector<std::uint64_t>{3, 1, 2}));
    EXPECT_EQ(parseSeeds("0xff,10"),
              (std::vector<std::uint64_t>{255, 10}));
    EXPECT_EQ(parseSeeds("18446744073709551615"),
              (std::vector<std::uint64_t>{
                  18446744073709551615ull}));
}

TEST(SweepCli, ParseSeedsRejectsNegativeTokensInsteadOfWrapping)
{
    // Regression: strtoull("-1") yields 2^64-1 without complaint; the
    // parser must refuse it.
    ScopedErrorTrap trap;
    EXPECT_THROW(parseSeeds("-1"), SimError);
    EXPECT_THROW(parseSeeds("5,-2"), SimError);
    EXPECT_THROW(parseSeeds("1,2,-0x10"), SimError);
    try {
        parseSeeds("-7");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("negative"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SweepCli, ParseSeedsRejectsGarbageAndEmptyLists)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parseSeeds("abc"), SimError);
    EXPECT_THROW(parseSeeds("1,two"), SimError);
    EXPECT_THROW(parseSeeds("12x"), SimError);
    EXPECT_THROW(parseSeeds(""), SimError);
    EXPECT_THROW(parseSeeds(",,,"), SimError);
}

TEST(SweepCli, ParseModesGroupsAndLists)
{
    EXPECT_EQ(parseModes("all").size(), 6u);
    EXPECT_EQ(parseModes("pcmap").size(), 5u);
    const auto modes = parseModes("Baseline,RWoW-RDE");
    ASSERT_EQ(modes.size(), 2u);
    EXPECT_EQ(modes[0], presets::Baseline);
    EXPECT_EQ(modes[1], presets::RWoW_RDE);

    ScopedErrorTrap trap;
    EXPECT_THROW(parseModes("NoSuchMode"), SimError);
    EXPECT_THROW(parseModes(""), SimError);
}

TEST(SweepCli, ModeGroupsInsideAListSayTheyMustBeTheWholeValue)
{
    // A group inside a list once failed as an unknown mode whose
    // closest match was itself ("did you mean 'all'?").
    ScopedErrorTrap trap;
    for (const char *arg : {"all,RWoW-RDE", "Baseline,pcmap", "all,all"}) {
        try {
            parseModes(arg);
            FAIL() << "expected SimError for " << arg;
        } catch (const SimError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("must be the whole value"),
                      std::string::npos)
                << what;
            EXPECT_EQ(what.find("did you mean"), std::string::npos)
                << what;
        }
    }
}

TEST(SweepCli, ParseWorkloadsGroupsAndLists)
{
    EXPECT_FALSE(parseWorkloads("mt").empty());
    EXPECT_FALSE(parseWorkloads("mp").empty());
    EXPECT_EQ(parseWorkloads("evaluated").size(),
              parseWorkloads("mt").size() +
                  parseWorkloads("mp").size());
    EXPECT_EQ(parseWorkloads("MP1,canneal"),
              (std::vector<std::string>{"MP1", "canneal"}));

    ScopedErrorTrap trap;
    EXPECT_THROW(parseWorkloads(""), SimError);
}

TEST(SweepCli, SpecFromConfigAppliesDefaultsAndOverrides)
{
    Config args;
    args.set("workloads", std::string("MP1,MP4"));
    const SweepSpec defaults = specFromConfig(args);
    EXPECT_EQ(defaults.workloads,
              (std::vector<std::string>{"MP1", "MP4"}));
    EXPECT_EQ(defaults.systems.size(), 6u);
    EXPECT_EQ(defaults.seeds, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(defaults.configs[0].base.instructionsPerCore, 200'000u);

    args.set("modes", std::string("Baseline"));
    args.set("seeds", std::string("4,5"));
    args.set("insts", std::int64_t{1234});
    args.set("cores", std::int64_t{2});
    const SweepSpec spec = specFromConfig(args);
    EXPECT_EQ(spec.systems,
              (std::vector<ControllerPolicy>{presets::Baseline}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{4, 5}));
    EXPECT_EQ(spec.configs[0].base.instructionsPerCore, 1234u);
    EXPECT_EQ(spec.configs[0].base.numCores, 2u);
    EXPECT_EQ(spec.size(), 4u);
}

TEST(SweepCli, SpecFromConfigRequiresWorkloads)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(specFromConfig(Config{}), SimError);
}

TEST(SweepCli, ParsePoliciesAcceptsCompositionLists)
{
    const auto policies = parsePolicies("base,row+wow+rde,fg+rd");
    ASSERT_EQ(policies.size(), 3u);
    EXPECT_EQ(policies[0].composition(), "base");
    EXPECT_EQ(policies[1].composition(), "row+wow+rde");
    EXPECT_EQ(policies[2].composition(), "fg+rd");
    // Case and component order normalise away.
    EXPECT_EQ(parsePolicies("RDE+WoW+Row")[0].composition(),
              "row+wow+rde");
}

TEST(SweepCli, ParsePoliciesRejectsUnknownComponentsWithClearError)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(parsePolicies("row+bogus"), SimError);
    EXPECT_THROW(parsePolicies("rd+rde"), SimError);
    EXPECT_THROW(parsePolicies(""), SimError);
    try {
        parsePolicies("wow+nope");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nope"), std::string::npos) << what;
        EXPECT_NE(what.find("base, fg, row, wow, rd, rde"),
                  std::string::npos)
            << "must list the valid components: " << what;
    }
}

/** The report labels of @p spec's systems, in axis order. */
std::vector<std::string>
systemLabels(const SweepSpec &spec)
{
    std::vector<std::string> labels;
    for (const ControllerPolicy &system : spec.systems)
        labels.push_back(system.label());
    return labels;
}

TEST(SweepCli, PolicyKeyRoutesPresetsOntoTheModeAxis)
{
    // A preset-equivalent composition is the preset, labelled by its
    // name, so its sweep rows are byte-identical to the named mode.
    Config args;
    args.set("workloads", std::string("MP1"));
    args.set("policy", std::string("row+wow+rde"));
    const SweepSpec spec = specFromConfig(args);
    EXPECT_EQ(systemLabels(spec), (std::vector<std::string>{"RWoW-RDE"}));
    EXPECT_EQ(spec.size(), 1u);
}

TEST(SweepCli, PolicyKeyPutsNonPresetsOnThePolicyAxis)
{
    Config args;
    args.set("workloads", std::string("MP1"));
    args.set("policy", std::string("fg,row+wow"));
    const SweepSpec spec = specFromConfig(args);
    // Presets go ahead of compositions, whatever the order given.
    EXPECT_EQ(systemLabels(spec),
              (std::vector<std::string>{"RWoW-NR", "fg"}))
        << "row+wow is the RWoW-NR preset";
    EXPECT_EQ(spec.size(), 2u);
}

TEST(SweepCli, PolicyKeyCombinesWithExplicitModes)
{
    Config args;
    args.set("workloads", std::string("MP1"));
    args.set("modes", std::string("Baseline"));
    args.set("policy", std::string("fg+rd"));
    const SweepSpec spec = specFromConfig(args);
    EXPECT_EQ(systemLabels(spec),
              (std::vector<std::string>{"Baseline", "fg+rd"}));
    EXPECT_EQ(spec.size(), 2u);
}

TEST(SweepCli, ModesAndPolicyAcceptBothSpellings)
{
    const std::vector<ControllerPolicy> want{presets::RWoW_NR,
                                             presets::RWoW_RDE};
    EXPECT_EQ(parseModes("row+wow,rwow_rde"), want);
    EXPECT_EQ(parsePolicies("RWoW-NR,row+wow+rde"), want);
}

TEST(SweepCli, CoreCountAboveUintMaxIsFatalNotWrapped)
{
    // 4294967304 = 2^32 + 8 would wrap to 8 cores.
    Config args;
    args.set("workloads", std::string("MP1"));
    args.set("cores", std::string("4294967304"));
    ScopedErrorTrap trap;
    EXPECT_THROW(specFromConfig(args), SimError);
}

TEST(SweepCli, TenantCountAboveUintMaxIsFatalNotWrapped)
{
    // 4294967297 = 2^32 + 1 would wrap to 1 tenant.
    Config args;
    args.set("tenants", std::string("4294967297"));
    ScopedErrorTrap trap;
    EXPECT_THROW(fabricFromConfig(args), SimError);
}

} // namespace
} // namespace pcmap::sweep
