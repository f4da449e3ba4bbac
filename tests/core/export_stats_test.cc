/**
 * @file
 * Tests for System::exportStats: the per-channel "pcm.mc<N>." groups,
 * values read straight from the live controller counters, the dump's
 * descriptions, and the multi-round keys that close a group only on
 * MLC+ organizations.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.h"
#include "sim/stats.h"

namespace pcmap {
namespace {

class StatExportTest : public ::testing::Test
{
  protected:
    static SystemConfig
    smallConfig()
    {
        SystemConfig cfg;
        presets::RWoW_RDE.applyTo(cfg.controller);
        cfg.numCores = 2;
        cfg.instructionsPerCore = 5'000;
        return cfg;
    }

    static stats::FlatStats
    collect(const System &sys)
    {
        stats::FlatStats flat;
        stats::Writer w(flat);
        sys.exportStats(w);
        return flat;
    }

    static std::string
    dump(const System &sys)
    {
        std::ostringstream os;
        stats::Writer w(os);
        sys.exportStats(w);
        return os.str();
    }

    static double
    valueOf(const stats::FlatStats &flat, const std::string &key)
    {
        for (const auto &[name, value] : flat) {
            if (name == key)
                return value;
        }
        ADD_FAILURE() << "no key " << key;
        return -1.0;
    }
};

TEST_F(StatExportTest, BuildsOneGroupPerChannel)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    sys.run();
    const std::string text = dump(sys);
    for (unsigned ch = 0; ch < cfg.geometry.channels; ++ch) {
        EXPECT_NE(text.find("pcm.mc" + std::to_string(ch) + ".reads"),
                  std::string::npos)
            << "channel " << ch;
    }
    // Only the pcm group: this run has no fabric, tier or attribution.
    EXPECT_EQ(text.find("fabric."), std::string::npos);
    EXPECT_EQ(text.find("cache."), std::string::npos);
    EXPECT_EQ(text.find("attrib."), std::string::npos);
}

TEST_F(StatExportTest, RefreshTracksLiveCounters)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    EXPECT_EQ(valueOf(collect(sys), "pcm.mc0.reads"), 0.0);
    sys.run();
    const stats::FlatStats flat = collect(sys);
    const ControllerStats &s = sys.memory().controller(0).stats();
    EXPECT_GT(s.readsCompleted, 0u);
    EXPECT_EQ(valueOf(flat, "pcm.mc0.reads"),
              static_cast<double>(s.readsCompleted));
    EXPECT_EQ(valueOf(flat, "pcm.mc0.writes"),
              static_cast<double>(s.writesCompleted));
}

TEST_F(StatExportTest, DumpIncludesDescriptions)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    const std::string text = dump(sys);
    EXPECT_NE(text.find("PCC reconstruction"), std::string::npos);
    EXPECT_NE(text.find("SET pulses"), std::string::npos);
}

TEST_F(StatExportTest, ValuesMatchControllerCounters)
{
    const SystemConfig cfg = smallConfig();
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    sys.run();

    // Parse the mc0.writes line and compare with the raw counter.
    std::istringstream in(dump(sys));
    std::string name;
    double value = -1.0;
    bool found = false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        ls >> name >> value;
        if (name == "pcm.mc0.writes") {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    EXPECT_DOUBLE_EQ(
        value,
        static_cast<double>(
            sys.memory().controller(0).stats().writesCompleted));
}

TEST_F(StatExportTest, WriteRoundKeysCloseOnlyMultiRoundGroups)
{
    SystemConfig slc = smallConfig();
    SystemConfig tlc = slc;
    tlc.controller.timing = tlc.controller.timing.withOrg(DeviceOrg::Tlc);

    System slc_sys(slc, workload::makeWorkload("MP1", slc.numCores));
    slc_sys.run();
    for (const auto &[key, value] : collect(slc_sys))
        EXPECT_EQ(key.find("writeRound"), std::string::npos) << key;

    System tlc_sys(tlc, workload::makeWorkload("MP1", tlc.numCores));
    tlc_sys.run();
    const stats::FlatStats flat = collect(tlc_sys);
    const std::size_t per_mc = flat.size() / tlc.geometry.channels;
    ASSERT_EQ(per_mc * tlc.geometry.channels, flat.size());
    for (unsigned ch = 0; ch < tlc.geometry.channels; ++ch) {
        const std::string mc = "pcm.mc" + std::to_string(ch) + ".";
        EXPECT_EQ(flat[ch * per_mc].first, mc + "reads");
        EXPECT_EQ(flat[(ch + 1) * per_mc - 2].first, mc + "writeRounds");
        EXPECT_EQ(flat[(ch + 1) * per_mc - 1].first,
                  mc + "writeRoundPauses");
    }
    const ControllerStats &s = tlc_sys.memory().controller(0).stats();
    EXPECT_GT(s.writeRoundsIssued, 0u);
    EXPECT_EQ(valueOf(flat, "pcm.mc0.writeRounds"),
              static_cast<double>(s.writeRoundsIssued));
}

} // namespace
} // namespace pcmap
