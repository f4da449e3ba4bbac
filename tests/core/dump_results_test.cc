/**
 * @file
 * Tests for the human-readable run report (dumpResults).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.h"

namespace pcmap {
namespace {

SystemResults
smallRun()
{
    SystemConfig cfg;
    presets::RWoW_RDE.applyTo(cfg.controller);
    cfg.numCores = 2;
    cfg.instructionsPerCore = 40'000;
    cfg.seed = 13;
    return runWorkload(cfg, "MP4");
}

TEST(DumpResults, ContainsHeaderAndKeyMetrics)
{
    const SystemResults r = smallRun();
    std::ostringstream os;
    dumpResults(r, os);
    const std::string text = os.str();
    EXPECT_NE(text.find("MP4 on RWoW-RDE"), std::string::npos);
    for (const char *key :
         {"ipc.sum", "reads.completed", "writes.completed",
          "reads.latency", "irlp.mean", "writes.essentialWords",
          "row.reads", "wow.groups", "spec.rollbacks", "energy.total",
          "wear.chipImbalance", "traffic.rpki"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(DumpResults, HeaderNamesANonPresetSystemByItsComposition)
{
    SystemResults r;
    r.workload = "MP1";
    r.system = *ControllerPolicy::parse("row+rd");
    std::ostringstream os;
    dumpResults(r, os);
    EXPECT_EQ(os.str().rfind("=== MP1 on row+rd ===\n", 0), 0u)
        << os.str().substr(0, 40);
}

TEST(DumpResults, PerCoreIpcLines)
{
    const SystemResults r = smallRun();
    std::ostringstream os;
    dumpResults(r, os);
    EXPECT_NE(os.str().find("ipc.core0"), std::string::npos);
    EXPECT_NE(os.str().find("ipc.core1"), std::string::npos);
    EXPECT_EQ(os.str().find("ipc.core2"), std::string::npos);
}

TEST(DumpResults, HistogramLineSumsVisible)
{
    const SystemResults r = smallRun();
    std::ostringstream os;
    dumpResults(r, os);
    EXPECT_NE(os.str().find("essential-word histogram"),
              std::string::npos);
}

TEST(DumpResults, EveryLineHasDescription)
{
    const SystemResults r = smallRun();
    std::ostringstream os;
    dumpResults(r, os);
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line); // header
    int checked = 0;
    while (std::getline(in, line)) {
        if (line.find("histogram") != std::string::npos)
            continue;
        EXPECT_NE(line.find('#'), std::string::npos) << line;
        ++checked;
    }
    EXPECT_GT(checked, 15);
}

} // namespace
} // namespace pcmap
