#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis.h"

namespace pcmap::repobench {
namespace {

/** A row with one attribution family (all values in ns). */
Row
attribRow(const std::string &op, double queue, double array,
          double annex, double unattributed, double total)
{
    Row r;
    r.ok = true;
    const std::string f = "attrib.t0." + op + ".";
    r.stats[f + "queueResidencySumNs"] = queue;
    r.stats[f + "arrayAccessSumNs"] = array;
    r.stats[f + "verifyDeferSumNs"] = annex;
    r.stats[f + "unattributedSumNs"] = unattributed;
    r.stats[f + "totalSumNs"] = total;
    // Percentile keys of a phase are not part of its sum.
    r.stats[f + "arrayAccess.p99"] = 1e6;
    return r;
}

Row
pointRow(const std::string &mode, const std::string &workload,
         double ipc, double read_p99)
{
    Row r;
    r.ok = true;
    r.mode = mode;
    r.workload = workload;
    r.metrics["ipcSum"] = ipc;
    r.metrics["avgReadLatencyNs"] = 100.0;
    r.metrics["writeThroughput"] = 1e6;
    r.metrics["irlpMean"] = 3.0;
    r.stats["pcm.mc0.readLatencyHistNs.p99"] = read_p99;
    r.stats["pcm.mc0.readLatencyHistNs.samples"] = 1.0;
    r.stats["pcm.mc1.readLatencyHistNs.p99"] = 2.0 * read_p99;
    r.stats["pcm.mc1.readLatencyHistNs.samples"] = 3.0;
    return r;
}

const std::string kLine =
    R"({"index":0,"config":"default","mode":"Baseline","workload":"MP1",)"
    R"("baseSeed":1,"runSeed":7,"ok":true,"error":"",)"
    R"("metrics":{"ipcSum":2.5,"readsCompleted":10},)"
    R"("stats":{"pcm.mc0.reads":10}})"
    "\n";

TEST(GeomeanRatio, IsTheGeometricMeanOfTheRatios)
{
    // 1.21x and 1.0x average to 1.1x: a +10% gain.
    EXPECT_NEAR(geomeanRatio({1.21, 3.0}, {1.0, 3.0}), 1.1, 1e-12);
    EXPECT_NEAR(geomeanRatio({2.0, 1.0}, {1.0, 2.0}), 1.0, 1e-12);
}

TEST(GeomeanRatio, RejectsEmptyMismatchedAndNonPositiveInput)
{
    EXPECT_EQ(geomeanRatio({}, {}), 0.0);
    EXPECT_EQ(geomeanRatio({1.0, 2.0}, {1.0}), 0.0);
    EXPECT_EQ(geomeanRatio({1.0}, {0.0}), 0.0);
}

TEST(Summary, PairsRWoWRDEWithBaselinePerWorkloadAndOrg)
{
    const std::vector<Row> rows = {
        pointRow("Baseline@tlc", "freqmine", 2.0, 100.0),
        pointRow("WoW-NR@tlc", "freqmine", 9.0, 100.0),
        pointRow("RWoW-RDE@tlc", "freqmine", 2.42, 100.0),
        pointRow("Baseline@tlc", "stream", 1.0, 100.0),
        pointRow("RWoW-RDE@tlc", "stream", 1.0, 100.0),
    };
    ASSERT_EQ(pairs(rows).size(), 2u);
    const SimSummary s = summarize(rows);
    EXPECT_NEAR(s.ipcRatio, 1.1, 1e-12);
    EXPECT_DOUBLE_EQ(s.readLatRatio, 1.0);
    EXPECT_DOUBLE_EQ(s.irlpMean, 3.0);
    // Without a fabric: per-controller p99 weighted by samples,
    // (100 * 1 + 200 * 3) / 4.
    EXPECT_DOUBLE_EQ(s.t0ReadP99Ns, 175.0);
}

TEST(Conservation, ReadsConserveInWindowWithTheAnnexOnTop)
{
    EXPECT_EQ(conservationError(
                  attribRow("read", 100.125, 200.5, 30.001, 0.0, 300.625)),
              "");
    // One tick (1 ps) missing from the in-window phases.
    EXPECT_NE(conservationError(
                  attribRow("read", 100.125, 200.5, 30.001, 0.0, 300.626)),
              "");
}

TEST(Conservation, WritesConserveWithTheAnnexInWindow)
{
    EXPECT_EQ(conservationError(
                  attribRow("write", 100.125, 200.5, 30.001, 0.0, 330.626)),
              "");
    EXPECT_NE(conservationError(
                  attribRow("write", 100.125, 200.5, 30.001, 0.0, 300.625)),
              "");
}

TEST(Conservation, UnattributedResidualFails)
{
    EXPECT_NE(conservationError(
                  attribRow("write", 100.0, 200.0, 0.0, 0.001, 300.001)),
              "");
}

TEST(Conservation, RowsWithoutAttributionPass)
{
    EXPECT_EQ(conservationError(Row{}), "");
}

TEST(EqualIgnoringAttrib, OnlyAttributionKeysMayDiffer)
{
    Row a = pointRow("Baseline", "MP1", 2.0, 100.0);
    Row b = a;
    b.stats["attrib.t0.read.totalSumNs"] = 5.0;
    EXPECT_TRUE(equalIgnoringAttrib(a, b));
    b.stats["pcm.mc0.reads"] = 1.0;
    EXPECT_FALSE(equalIgnoringAttrib(a, b));
}

TEST(CheckRows, DigestMismatchCountsOneFailure)
{
    const std::vector<Row> rows = parseJsonl(kLine);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].ok);
    EXPECT_DOUBLE_EQ(rows[0].metrics.at("ipcSum"), 2.5);

    Tally good;
    checkRows(good, kLine, rows, {8000}, {digest(kLine), 8000});
    EXPECT_EQ(good.failed, 0u);

    Tally bad;
    checkRows(bad, kLine, rows, {8000}, {"0123456789abcdef", 8000});
    EXPECT_EQ(bad.failed, 1u);
}

TEST(CheckRows, FailedRowsAndShortRetirementCount)
{
    std::vector<Row> rows = parseJsonl(kLine + kLine);
    rows[1].ok = false;
    Tally t;
    checkRows(t, kLine, rows, {7999, 8000}, {"", 8000});
    EXPECT_EQ(t.failed, 2u);
}

TEST(ClosedLoopCores, FollowTheContiguousTenantPartition)
{
    EXPECT_EQ(closedLoopCores(8, {}), 8u);
    EXPECT_EQ(closedLoopCores(8, {0.0, 8.0}), 4u);
    // Cores 0-2 belong to tenant 0 of three.
    EXPECT_EQ(closedLoopCores(8, {8.0, 0.0, 0.0}), 5u);
    EXPECT_EQ(closedLoopCores(8, {8.0}), 0u);
}

} // namespace
} // namespace pcmap::repobench
