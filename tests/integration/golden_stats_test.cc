/**
 * @file
 * Golden-stats regression harness: runs the quickstart configuration
 * (workload MP1) for the baseline and the full PCMap system and
 * compares key System::exportStats counters against a checked-in
 * snapshot with explicit per-key tolerances.
 *
 * Golden file format (tests/integration/golden_stats.txt):
 *     <mode> <key> <value> <rel_tolerance>
 * '#' lines are comments.  Tolerances are relative; they absorb
 * libm/FP differences across toolchains while still catching real
 * behavioural regressions.
 *
 * Regenerate after an intentional simulator change with ONE command:
 *     PCMAP_UPDATE_GOLDEN=1 ./build/tests/golden_stats_test
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/sweep_runner.h"

#ifndef PCMAP_GOLDEN_STATS_FILE
#error "build must define PCMAP_GOLDEN_STATS_FILE"
#endif

namespace pcmap {
namespace {

/**
 * The quickstart config scaled for CI: MP1, both headline systems,
 * across all four device organizations.  The slc block expands first,
 * so its rows (labelled plain "Baseline"/"RWoW-RDE") are the exact
 * legacy quickstart runs.
 */
sweep::SweepSpec
quickstartSpec()
{
    sweep::SweepSpec spec;
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.workloads = {"MP1"};
    spec.seeds = {1};
    spec.orgs.assign(std::begin(kAllOrgs), std::end(kAllOrgs));
    spec.configs[0].base.instructionsPerCore = 120'000;
    return spec;
}

/** (mode, key) -> measured value. */
std::map<std::pair<std::string, std::string>, double>
measure()
{
    const sweep::SweepReport report =
        sweep::SweepRunner().run(quickstartSpec());
    std::map<std::pair<std::string, std::string>, double> out;
    for (const sweep::RunRecord &rec : report.rows) {
        EXPECT_TRUE(rec.ok) << rec.error;
        if (!rec.ok)
            continue;
        // Rows key on the point label ("Baseline", "RWoW-RDE@mlc",
        // ...) so the org axis lands in the same snapshot; slc labels
        // have no suffix and keep the legacy golden keys.
        const std::string mode = rec.point.label();
        const SystemResults &r = rec.results;
        out[{mode, "readsCompleted"}] =
            static_cast<double>(r.readsCompleted);
        out[{mode, "writesCompleted"}] =
            static_cast<double>(r.writesCompleted);
        out[{mode, "rowReads"}] = static_cast<double>(r.rowReads);
        out[{mode, "wowMergedWrites"}] =
            static_cast<double>(r.wowMergedWrites);
        out[{mode, "irlpMean"}] = r.irlpMean;
        out[{mode, "ipcSum"}] = r.ipcSum;
        out[{mode, "avgReadLatencyNs"}] = r.avgReadLatencyNs;
        // writesCoalesced only exists in the stat-export listing:
        // sum it across channels.
        double coalesced = 0.0;
        for (const auto &[name, value] : rec.stats) {
            const std::string suffix = ".writesCoalesced";
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) == 0) {
                coalesced += value;
            }
        }
        out[{mode, "writesCoalesced"}] = coalesced;
        // Round-level counters exist only for multi-round (MLC+)
        // organizations; gating here keeps the slc golden rows
        // byte-identical to the pre-org-axis snapshot.
        if (rec.point.config.controller.timing.writeRounds > 1) {
            out[{mode, "writeRoundsIssued"}] =
                static_cast<double>(r.writeRoundsIssued);
            out[{mode, "writeRoundPauses"}] =
                static_cast<double>(r.writeRoundPauses);
        }
    }
    return out;
}

struct GoldenRow
{
    std::string mode;
    std::string key;
    double value;
    double relTol;
};

std::vector<GoldenRow>
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good())
        << "cannot read golden file " << path
        << "; regenerate with PCMAP_UPDATE_GOLDEN=1 "
           "./build/tests/golden_stats_test";
    std::vector<GoldenRow> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        GoldenRow row;
        ls >> row.mode >> row.key >> row.value >> row.relTol;
        EXPECT_FALSE(ls.fail()) << "malformed golden line: " << line;
        if (!ls.fail())
            rows.push_back(row);
    }
    return rows;
}

void
writeGolden(
    const std::string &path,
    const std::map<std::pair<std::string, std::string>, double> &vals)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << "# Golden stats for the quickstart config (MP1, 120000 "
           "insts/core, base seed 1).\n"
        << "# Columns: mode key value rel_tolerance\n"
        << "# Regenerate: PCMAP_UPDATE_GOLDEN=1 "
           "./build/tests/golden_stats_test\n";
    for (const auto &[mk, v] : vals) {
        // 2% default tolerance: absorbs cross-toolchain FP noise in
        // the synthetic-trace generators while catching regressions.
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.10g", v);
        out << mk.first << " " << mk.second << " " << buf
            << " 0.02\n";
    }
}

TEST(GoldenStats, QuickstartCountersMatchSnapshot)
{
    const std::string path = PCMAP_GOLDEN_STATS_FILE;
    const auto actual = measure();
    ASSERT_FALSE(actual.empty());

    if (std::getenv("PCMAP_UPDATE_GOLDEN") != nullptr) {
        writeGolden(path, actual);
        GTEST_SKIP() << "golden snapshot regenerated at " << path;
    }

    const std::vector<GoldenRow> golden = loadGolden(path);
    ASSERT_FALSE(golden.empty());

    // Every golden row must match the measurement within tolerance.
    for (const GoldenRow &row : golden) {
        const auto it = actual.find({row.mode, row.key});
        ASSERT_NE(it, actual.end())
            << "golden key " << row.mode << "." << row.key
            << " is no longer measured";
        const double got = it->second;
        const double tol =
            std::abs(row.value) * row.relTol +
            (row.value == 0.0 ? 1e-12 : 0.0);
        EXPECT_NEAR(got, row.value, tol)
            << row.mode << "." << row.key
            << " drifted; if intentional, regenerate with "
               "PCMAP_UPDATE_GOLDEN=1 ./build/tests/golden_stats_test";
    }

    // And every measured key must be covered by the snapshot, so new
    // metrics can't silently escape regression tracking.
    for (const auto &[mk, v] : actual) {
        (void)v;
        bool covered = false;
        for (const GoldenRow &row : golden) {
            if (row.mode == mk.first && row.key == mk.second) {
                covered = true;
                break;
            }
        }
        EXPECT_TRUE(covered)
            << mk.first << "." << mk.second
            << " is measured but missing from the golden snapshot; "
               "regenerate with PCMAP_UPDATE_GOLDEN=1 "
               "./build/tests/golden_stats_test";
    }
}

TEST(GoldenStats, PcmapDirectionHoldsOnQuickstartForEveryOrg)
{
    // Independent of exact values: the full system must beat the
    // baseline on the quickstart config, as the paper claims — and
    // the claim must survive every device organization, where denser
    // cells make writes (and thus bank contention) far heavier.
    const auto actual = measure();
    ASSERT_FALSE(actual.empty());
    for (const DeviceOrg org : kAllOrgs) {
        std::string suffix;
        if (org != DeviceOrg::Slc)
            suffix = std::string("@") + deviceOrgName(org);
        const std::string base = "Baseline" + suffix;
        const std::string rwow = "RWoW-RDE" + suffix;
        EXPECT_GT(actual.at({rwow, "irlpMean"}),
                  actual.at({base, "irlpMean"}))
            << deviceOrgName(org);
        EXPECT_GT(actual.at({rwow, "ipcSum"}),
                  actual.at({base, "ipcSum"}))
            << deviceOrgName(org);
        EXPECT_LT(actual.at({rwow, "avgReadLatencyNs"}),
                  actual.at({base, "avgReadLatencyNs"}))
            << deviceOrgName(org);
    }
}

} // namespace
} // namespace pcmap
