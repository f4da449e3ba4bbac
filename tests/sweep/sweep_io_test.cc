/**
 * @file
 * Serialization edge cases the merge tool depends on: writeCsv()'s
 * behavior for empty/failed-only reports and differing stat-key
 * unions ("columns are the first-seen union"), and the spec
 * fingerprint contract (stable across equivalent specs, different for
 * any result-relevant change).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"

namespace pcmap::sweep {
namespace {

RunRecord
record(std::size_t index, bool ok)
{
    RunRecord rec;
    rec.point.index = index;
    rec.point.configName = "default";
    rec.point.system = presets::Baseline;
    rec.point.workload = "w" + std::to_string(index);
    rec.point.baseSeed = 1;
    rec.point.runSeed = 100 + index;
    rec.ok = ok;
    return rec;
}

std::vector<std::string>
csvLines(const SweepReport &report)
{
    std::ostringstream os;
    writeCsv(report, os);
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(SweepCsv, EmptyReportIsHeaderOnly)
{
    const auto lines = csvLines(SweepReport{});
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].rfind(
                  "index,config,mode,workload,baseSeed,runSeed,ok,"
                  "error,ipcSum,",
                  0),
              0u)
        << lines[0];
    // No stat columns: the header is exactly the identity fields plus
    // the fixed metric list.
    EXPECT_EQ(lines[0].find("simTicks"), lines[0].size() - 8);
}

TEST(SweepCsv, FailedOnlyReportLeavesMetricCellsEmpty)
{
    SweepReport report;
    report.rows.push_back(record(0, false));
    report.rows[0].error = "fatal: bad, thing\nsecond";
    report.rows.push_back(record(1, false));
    report.rows[1].error = "panic: boom";

    const auto lines = csvLines(report);
    ASSERT_EQ(lines.size(), 3u);
    // Commas/newlines in the error are sanitized so the CSV keeps its
    // column count.
    EXPECT_NE(lines[1].find("fatal: bad; thing;second"),
              std::string::npos)
        << lines[1];
    // After ok=0 and the error text, every metric cell is empty: the
    // row ends in one comma per metric column.
    const std::string::size_type err_end =
        lines[1].find("second") + std::string("second").size();
    const std::string tail = lines[1].substr(err_end);
    EXPECT_EQ(tail, std::string(tail.size(), ','));
    // Both rows agree on column count.
    EXPECT_EQ(std::count(lines[1].begin(), lines[1].end(), ','),
              std::count(lines[2].begin(), lines[2].end(), ','));
    EXPECT_EQ(std::count(lines[0].begin(), lines[0].end(), ','),
              std::count(lines[1].begin(), lines[1].end(), ','));
}

TEST(SweepCsv, StatColumnsAreFirstSeenUnionAcrossRows)
{
    SweepReport report;
    report.rows.push_back(record(0, true));
    report.rows[0].stats = {{"alpha", 1.0}, {"beta", 2.0}};
    report.rows.push_back(record(1, true));
    report.rows[1].stats = {{"beta", 3.0}, {"gamma", 4.0}};

    const auto lines = csvLines(report);
    ASSERT_EQ(lines.size(), 3u);
    // Union in first-seen order: alpha (row 0), beta (row 0), gamma
    // (row 1) — beta is not repeated.
    const auto alpha = lines[0].find(",alpha");
    const auto beta = lines[0].find(",beta");
    const auto gamma = lines[0].find(",gamma");
    ASSERT_NE(alpha, std::string::npos);
    ASSERT_NE(beta, std::string::npos);
    ASSERT_NE(gamma, std::string::npos);
    EXPECT_LT(alpha, beta);
    EXPECT_LT(beta, gamma);
    EXPECT_EQ(lines[0].find(",beta", beta + 1), std::string::npos);

    // Row 0 has no gamma, row 1 no alpha: those cells are empty but
    // present, so all rows have the header's column count.
    for (const auto &line : lines) {
        EXPECT_EQ(std::count(line.begin(), line.end(), ','),
                  std::count(lines[0].begin(), lines[0].end(), ','));
    }
    EXPECT_NE(lines[1].find(",1,2,"), std::string::npos) << lines[1];
    EXPECT_TRUE(lines[1].back() == ',') << lines[1];   // no gamma
    EXPECT_NE(lines[2].find(",,3,4"), std::string::npos) << lines[2];
}

TEST(SpecFingerprint, StableAcrossCallsAndEquivalentSpecs)
{
    SweepSpec a;
    a.workloads = {"MP1", "MP4"};
    SweepSpec b = a;
    EXPECT_EQ(stableSerialize(a), stableSerialize(b));
    EXPECT_EQ(specFingerprint(a), specFingerprint(b));

    // Fields the expansion overrides per point (the base's mechanism
    // switches and seed) are
    // deliberately outside the fingerprint: two specs differing only
    // there describe the same sweep.
    presets::RWoW_RDE.applyTo(b.configs[0].base.controller);
    b.configs[0].base.seed = 999;
    EXPECT_EQ(specFingerprint(a), specFingerprint(b));
}

TEST(SpecFingerprint, ChangesWithAnyResultRelevantField)
{
    SweepSpec base;
    base.workloads = {"MP1", "MP4"};
    const std::uint64_t fp = specFingerprint(base);

    SweepSpec s = base;
    s.seeds = {1, 2};
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.workloads = {"MP4", "MP1"}; // order is part of the expansion
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.systems = {presets::Baseline};
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.instructionsPerCore += 1;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.numCores = 4;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.controller.timing.setNs = 150.0;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.geometry.channels = 2;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.controller.perBankWriteQueues = true;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.controller.maxWriteCancels = 5;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].base.controller.cancelMinRemainingFrac = 0.5;
    EXPECT_NE(specFingerprint(s), fp);

    s = base;
    s.configs[0].name = "other";
    EXPECT_NE(specFingerprint(s), fp);
}

// The text behind every shard partial's fingerprint, pinned: a change
// here orphans the partials of sweeps already in flight.  Built from
// command-line keys, whose spelling outlives any C++ field name.
TEST(SpecFingerprint, PinnedTextForPresetAndMixedSpecs)
{
    Config six;
    six.set("workloads", std::string("MP1,canneal"));
    six.set("modes", std::string("all"));
    const std::string common = "pcmap-sweep-spec v1\n"
                               "configs=1\n"
                               "config.name=default\n"
                               "geometry=4,1,8,8192,8589934592,0\n"
                               "timing=2500,60,5,4,4,4,3,60,2,11,2,60,"
                               "50,120\n"
                               "core=400,4,32,128,400000,120000,0\n"
                               "system=8,200000\n"
                               "queues=8,32,0.8,0.25,0\n"
                               "switches=1,1,1,1,0,0,0,0,0\n"
                               "caps=16,8,8,32\n";
    EXPECT_EQ(stableSerialize(specFromConfig(six)),
              common + "modes=Baseline,RoW-NR,WoW-NR,RWoW-NR,RWoW-RD,"
                       "RWoW-RDE\n"
                       "workloads=MP1,canneal\n"
                       "seeds=1\n");
    EXPECT_EQ(fingerprintHex(specFingerprint(specFromConfig(six))),
              "86d35f76cb75ef5c");

    Config mixed;
    mixed.set("workloads", std::string("MP1"));
    mixed.set("policy", std::string("fg,row+wow"));
    mixed.set("org", std::string("slc,tlc"));
    EXPECT_EQ(stableSerialize(specFromConfig(mixed)),
              common + "modes=RWoW-NR\n"
                       "workloads=MP1\n"
                       "seeds=1\n"
                       "policies=fg\n"
                       "orgs=slc,tlc\n");
    EXPECT_EQ(fingerprintHex(specFingerprint(specFromConfig(mixed))),
              "9a7c1939ccc3cf5a");
}

TEST(SpecFingerprint, HexFormIsFixedWidthLowercase)
{
    EXPECT_EQ(fingerprintHex(0), "0000000000000000");
    EXPECT_EQ(fingerprintHex(0xABCDEF0123456789ull),
              "abcdef0123456789");
}

} // namespace
} // namespace pcmap::sweep
