/**
 * @file
 * Determinism regression: the same SweepSpec serialized after running
 * at threads=1 and threads=8 must be byte-identical, and per-run
 * seeds must be stable however completions interleave.  This is the
 * contract that makes every sweep-produced figure reproducible from
 * one command line.
 */

#include <gtest/gtest.h>

#include "sim/rng.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

namespace pcmap::sweep {
namespace {

/** 2 modes x 4 workloads x 2 seeds = 16 real simulation points. */
SweepSpec
matrixSpec()
{
    SweepSpec spec;
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.workloads = {"MP1", "MP4", "canneal", "streamcluster"};
    spec.seeds = {1, 2};
    spec.configs[0].base.instructionsPerCore = 4000;
    return spec;
}

std::string
runAt(unsigned threads)
{
    SweepRunner::Options opts;
    opts.threads = threads;
    return toJsonl(SweepRunner(opts).run(matrixSpec()));
}

TEST(SweepDeterminism, SingleAndEightThreadOutputsAreByteIdentical)
{
    const std::string serial = runAt(1);
    const std::string parallel = runAt(8);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(SweepDeterminism, ParallelRunsAreRepeatable)
{
    EXPECT_EQ(runAt(8), runAt(8));
}

TEST(SweepDeterminism, SeedsIgnoreCompletionOrder)
{
    // Force wildly uneven run times so completion order scrambles,
    // then check every row still carries its index-derived seed.
    SweepSpec spec = matrixSpec();
    SweepRunner::Options opts;
    opts.threads = 8;
    SweepRunner runner(opts);
    runner.setRunFn([](const SweepPoint &p, RunRecord &rec) {
        // Busy-wait longer for early indices so later ones finish
        // first on any schedule.
        volatile std::uint64_t sink = 0;
        const std::uint64_t spin = (16 - p.index) * 20'000;
        for (std::uint64_t i = 0; i < spin; ++i)
            sink += i;
        rec.results.ipcSum = static_cast<double>(sink % 7);
    });
    const SweepReport report = runner.run(spec);
    ASSERT_EQ(report.rows.size(), 16u);
    for (const RunRecord &rec : report.rows) {
        EXPECT_EQ(rec.point.runSeed,
                  Rng::deriveStream(rec.point.baseSeed,
                                    rec.point.index));
    }
}

TEST(SweepDeterminism, OrgAxisIsByteIdenticalAcrossThreadCounts)
{
    // The multi-round write machinery (round chaining, boundary
    // pause/cancel) runs inside the simulated controller, so denser
    // organizations must shard across workers exactly as cleanly as
    // slc does.
    SweepSpec spec = matrixSpec();
    spec.orgs.assign(std::begin(kAllOrgs), std::end(kAllOrgs));
    const auto run_at = [&spec](unsigned threads) {
        SweepRunner::Options opts;
        opts.threads = threads;
        return toJsonl(SweepRunner(opts).run(spec));
    };
    const std::string serial = run_at(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, run_at(8));
}

TEST(SweepDeterminism, SlcPrefixOfMultiOrgSweepMatchesLegacySweep)
{
    // org expansion is slc-first and org-major, so the first quarter
    // of a four-org report must be byte-for-byte the legacy report.
    SweepSpec multi = matrixSpec();
    multi.orgs.assign(std::begin(kAllOrgs), std::end(kAllOrgs));
    const std::string legacy =
        toJsonl(SweepRunner().run(matrixSpec()));
    const std::string all = toJsonl(SweepRunner().run(multi));
    ASSERT_FALSE(legacy.empty());
    ASSERT_GT(all.size(), legacy.size());
    EXPECT_EQ(all.substr(0, legacy.size()), legacy);
}

TEST(SweepDeterminism, SerializationExcludesWallClock)
{
    // A field that differs between runs of identical work would break
    // byte-identity; make sure timing never leaks into the output.
    const SweepReport report = SweepRunner().run(matrixSpec());
    for (const RunRecord &rec : report.rows) {
        const std::string line = toJsonLine(rec);
        EXPECT_EQ(line.find("wall"), std::string::npos) << line;
    }
}

} // namespace
} // namespace pcmap::sweep
