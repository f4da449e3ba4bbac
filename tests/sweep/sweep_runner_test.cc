/**
 * @file
 * Unit tests for the sweep runner: failure isolation (a throwing or
 * fatal()ing run becomes a failed row while the sweep completes) and
 * report shape/ordering.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/log.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

namespace pcmap::sweep {
namespace {

SweepSpec
tinySpec(std::vector<std::string> workloads)
{
    SweepSpec spec;
    spec.systems = {presets::Baseline};
    spec.workloads = std::move(workloads);
    spec.configs[0].base.instructionsPerCore = 4000;
    return spec;
}

TEST(SweepRunner, ThrowingRunYieldsFailedRowAndSweepCompletes)
{
    SweepSpec spec = tinySpec({"w0", "w1", "w2", "w3"});
    SweepRunner runner;
    runner.setRunFn([](const SweepPoint &p, RunRecord &rec) {
        if (p.index == 1)
            throw std::runtime_error("boom");
        rec.results.ipcSum = static_cast<double>(p.index);
    });
    const SweepReport report = runner.run(spec);
    ASSERT_EQ(report.rows.size(), 4u);
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_FALSE(report.rows[1].ok);
    EXPECT_NE(report.rows[1].error.find("boom"), std::string::npos);
    for (const std::size_t i : {0u, 2u, 3u}) {
        EXPECT_TRUE(report.rows[i].ok);
        EXPECT_DOUBLE_EQ(report.rows[i].results.ipcSum,
                         static_cast<double>(i));
    }
}

TEST(SweepRunner, FatalInsideARunIsCapturedNotProcessFatal)
{
    SweepRunner runner;
    runner.setRunFn([](const SweepPoint &p, RunRecord &) {
        if (p.index == 0)
            fatal("bad run configuration");
    });
    const SweepReport report = runner.run(tinySpec({"w0", "w1"}));
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_FALSE(report.rows[0].ok);
    EXPECT_NE(report.rows[0].error.find("fatal"), std::string::npos);
    EXPECT_TRUE(report.rows[1].ok);
}

TEST(SweepRunner, UnknownWorkloadFailsItsRowOnly)
{
    // Real executor: "nosuchprogram" hits makeWorkload()'s fatal().
    SweepSpec spec = tinySpec({"MP1", "nosuchprogram"});
    const SweepReport report = SweepRunner().run(spec);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_TRUE(report.rows[0].ok);
    EXPECT_GT(report.rows[0].results.readsCompleted, 0u);
    EXPECT_FALSE(report.rows[1].ok);
    EXPECT_NE(report.rows[1].error.find("fatal"), std::string::npos);
}

TEST(SweepRunner, RowsStayInIndexOrderAcrossThreads)
{
    SweepSpec spec = tinySpec(
        {"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"});
    SweepRunner::Options opts;
    opts.threads = 4;
    SweepRunner runner(opts);
    runner.setRunFn([](const SweepPoint &p, RunRecord &rec) {
        rec.results.ipcSum = static_cast<double>(p.index) * 2.0;
    });
    const SweepReport report = runner.run(spec);
    ASSERT_EQ(report.rows.size(), 8u);
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        EXPECT_EQ(report.rows[i].point.index, i);
        EXPECT_DOUBLE_EQ(report.rows[i].results.ipcSum,
                         static_cast<double>(i) * 2.0);
    }
}

TEST(SweepRunner, CollectsStatExportCounters)
{
    SweepSpec spec = tinySpec({"MP1"});
    const SweepReport report = SweepRunner().run(spec);
    ASSERT_EQ(report.rows.size(), 1u);
    ASSERT_TRUE(report.rows[0].ok);
    const stats::FlatStats &flat = report.rows[0].stats;
    ASSERT_FALSE(flat.empty());
    // Stat names carry the "pcm.<controller>." prefix; the reads
    // counter must agree with the harvested SystemResults total.
    double reads = 0.0;
    bool saw_reads = false;
    for (const auto &[name, value] : flat) {
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".reads") == 0) {
            reads += value;
            saw_reads = true;
        }
    }
    EXPECT_TRUE(saw_reads);
    EXPECT_DOUBLE_EQ(
        reads,
        static_cast<double>(report.rows[0].results.readsCompleted));
}

TEST(SweepRunner, FindLocatesRowsByAxes)
{
    SweepSpec spec = tinySpec({"MP1", "MP4"});
    spec.seeds = {9};
    SweepRunner runner;
    runner.setRunFn([](const SweepPoint &, RunRecord &) {});
    const SweepReport report = runner.run(spec);
    EXPECT_NE(report.find("default", "Baseline", "MP4", 9),
              nullptr);
    EXPECT_EQ(report.find("default", "RWoW-RDE", "MP4", 9),
              nullptr);
    EXPECT_EQ(report.find("default", "Baseline", "MP4", 1),
              nullptr);
}

TEST(SweepIo, FailedRowsSerializeWithErrorAndNoMetrics)
{
    SweepRunner runner;
    runner.setRunFn([](const SweepPoint &, RunRecord &) {
        throw std::runtime_error("line1\nline2 \"quoted\"");
    });
    const SweepReport report = runner.run(tinySpec({"w0"}));
    const std::string line = toJsonLine(report.rows[0]);
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("\\n"), std::string::npos);
    EXPECT_NE(line.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_EQ(line.find("\"metrics\""), std::string::npos);
}

} // namespace
} // namespace pcmap::sweep
