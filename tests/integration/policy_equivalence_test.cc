/**
 * @file
 * Refactor-equivalence harness for the policy layer.
 *
 * Two guarantees, both byte-level:
 *
 *  1. Every preset named on the command line and written as its
 *     canonical composition (modes=RWoW-RDE vs policy=row+wow+rde)
 *     produces identical sweep JSONL, label included, for every
 *     preset x smoke workload.
 *
 *  2. The six presets' JSONL output — across all four device
 *     organizations, slc block first — matches a checked-in snapshot
 *     byte for byte, so any future policy-layer change that perturbs
 *     simulation results is caught even if it perturbs both the
 *     preset and the composed path the same way.  The slc prefix of
 *     the snapshot is additionally pinned to equal the legacy
 *     (org-free) sweep output.
 *
 * Regenerate the snapshot after an intentional simulator change with:
 *     PCMAP_UPDATE_GOLDEN=1 ./build/tests/policy_equivalence_test
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/tier.h"
#include "core/policy/controller_policy.h"
#include "fabric/fabric.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

#ifndef PCMAP_GOLDEN_SWEEP_FILE
#error "build must define PCMAP_GOLDEN_SWEEP_FILE"
#endif

namespace pcmap {
namespace {

/** Small but mechanism-exercising: both smoke workloads, 4 cores. */
sweep::SweepSpec
smokeSpec()
{
    sweep::SweepSpec spec;
    spec.workloads = {"MP1", "canneal"};
    spec.seeds = {1};
    spec.configs[0].base.instructionsPerCore = 15'000;
    return spec;
}

std::string
runJsonl(const sweep::SweepSpec &spec)
{
    sweep::SweepRunner::Options opts;
    opts.threads = 4;
    return sweep::toJsonl(sweep::SweepRunner(opts).run(spec));
}

/** smokeSpec() as the command line spells it, plus @p key=@p value. */
sweep::SweepSpec
smokeSpecFromKeys(const std::string &key, const std::string &value)
{
    Config args;
    args.set("workloads", std::string("MP1,canneal"));
    args.set("insts", std::int64_t{15'000});
    args.set(key, value);
    return sweep::specFromConfig(args);
}

TEST(PolicyEquivalence, EveryPresetMatchesItsComposition)
{
    for (const ControllerPolicy &preset : kPaperSystems) {
        const std::string composition = preset.composition();
        const std::string via_mode =
            runJsonl(smokeSpecFromKeys("modes", preset.label()));
        const std::string via_policy =
            runJsonl(smokeSpecFromKeys("policy", composition));
        EXPECT_EQ(via_policy, via_mode)
            << preset.label() << " vs " << composition
            << ": the composed policy must be byte-identical to the "
               "preset";
    }
}

/** The golden matrix: six presets x four device organizations. */
sweep::SweepSpec
goldenSpec()
{
    sweep::SweepSpec spec = smokeSpec();
    spec.orgs.assign(std::begin(kAllOrgs), std::end(kAllOrgs));
    return spec;
}

/**
 * Fabric rows appended to the snapshot: a 4-tenant mixed-QoS
 * open-loop sweep over a real link, two presets x one workload.
 * These rows ride after the legacy matrix so they are pure insertions
 * — the pre-fabric bytes of golden_sweep.jsonl are untouched.
 */
sweep::SweepSpec
fabricGoldenSpec()
{
    sweep::SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.seeds = {1};
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.configs[0].name = "fabric";
    fabric::FabricConfig &fab = spec.configs[0].base.fabric;
    fab.tenants.resize(4);
    for (unsigned t = 0; t < 4; ++t) {
        fab.tenants[t].arrival = fabric::ArrivalKind::Poisson;
        fab.tenants[t].ratePerUs = 8.0;
        fab.tenants[t].qos = t % 2 == 0
                                 ? fabric::QosClass::LatencySensitive
                                 : fabric::QosClass::BestEffort;
        fab.tenants[t].requests = 2'000;
    }
    fab.arb = fabric::LinkArb::WeightedRoundRobin;
    fab.linkGbps = 16.0;
    fab.linkNs = 20.0;
    return spec;
}

/**
 * Cache-tier rows appended after the fabric rows: two presets x one
 * workload behind a 256K DRAM tier, once per replacement policy.
 * Like the fabric rows these are pure insertions — everything before
 * them in golden_sweep.jsonl stays byte-identical.
 */
sweep::SweepSpec
cacheGoldenSpec()
{
    sweep::SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.seeds = {1};
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.configs[0].name = "cache-lru";
    spec.configs[0].base.instructionsPerCore = 15'000;
    spec.configs[0].base.tier =
        cache::tierConfigFromString("dram:256K:8:lru");
    sweep::ConfigVariant mac = spec.configs[0];
    mac.name = "cache-mac";
    mac.base.tier.repl = cache::ReplPolicy::Mac;
    spec.configs.push_back(mac);
    return spec;
}

/** The full snapshot: legacy matrix, fabric rows, then cache rows. */
std::string
goldenJsonl()
{
    return runJsonl(goldenSpec()) + runJsonl(fabricGoldenSpec()) +
           runJsonl(cacheGoldenSpec());
}

TEST(PolicyEquivalence, SixPresetJsonlMatchesGoldenSnapshot)
{
    const std::string actual = goldenJsonl();
    ASSERT_FALSE(actual.empty());

    const std::string path = PCMAP_GOLDEN_SWEEP_FILE;
    if (std::getenv("PCMAP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden sweep snapshot regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "cannot read golden file " << path
        << "; regenerate with PCMAP_UPDATE_GOLDEN=1 "
           "./build/tests/policy_equivalence_test";
    std::ostringstream golden;
    golden << in.rdbuf();

    // Byte-for-byte: the simulator is deterministic and the JSONL
    // formatter is locale-independent, so any diff is a real
    // behavioural change (regenerate only if it is intentional).
    EXPECT_EQ(actual, golden.str())
        << "preset JSONL drifted from the snapshot; if intentional, "
           "regenerate with PCMAP_UPDATE_GOLDEN=1 "
           "./build/tests/policy_equivalence_test";
}

TEST(PolicyEquivalence, FabricGoldenRowsArePureInsertions)
{
    // The legacy matrix must be a byte-exact prefix of the combined
    // snapshot: adding the fabric rows is not allowed to perturb (or
    // reorder around) a single pre-fabric row.
    const std::string legacy = runJsonl(goldenSpec());
    const std::string full = goldenJsonl();
    ASSERT_GT(full.size(), legacy.size());
    EXPECT_EQ(full.substr(0, legacy.size()), legacy);
}

TEST(PolicyEquivalence, CacheGoldenRowsArePureInsertions)
{
    // Everything that predates the cache tier — the legacy matrix and
    // the fabric rows — must be a byte-exact prefix of the combined
    // snapshot: the tier=dram rows ride strictly behind them.
    const std::string pre_cache =
        runJsonl(goldenSpec()) + runJsonl(fabricGoldenSpec());
    const std::string full = goldenJsonl();
    ASSERT_GT(full.size(), pre_cache.size());
    EXPECT_EQ(full.substr(0, pre_cache.size()), pre_cache);
}

TEST(PolicyEquivalence, SlcGoldenPrefixEqualsLegacySixPresetSweep)
{
    // The org axis expands slc-first, so the first quarter of the
    // golden matrix must be byte-for-byte what the pre-org-axis
    // six-preset sweep produced — org=slc is not allowed to perturb a
    // single existing row.
    const std::string legacy_jsonl = runJsonl(smokeSpec());
    const std::string full = runJsonl(goldenSpec());
    ASSERT_FALSE(legacy_jsonl.empty());
    ASSERT_GT(full.size(), legacy_jsonl.size());
    EXPECT_EQ(full.substr(0, legacy_jsonl.size()), legacy_jsonl);
}

} // namespace
} // namespace pcmap
