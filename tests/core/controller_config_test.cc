/**
 * @file
 * Tests for the six evaluated system presets and config validation.
 */

#include <gtest/gtest.h>

#include "core/controller_config.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

TEST(Presets, BaselineIsConventional)
{
    const ControllerConfig c = controllerFor(presets::Baseline);
    EXPECT_FALSE(c.enableRoW);
    EXPECT_FALSE(c.enableWoW);
    EXPECT_FALSE(c.fineGrained);
    EXPECT_FALSE(c.hasPcc());
    EXPECT_EQ(c.rotation, RotationMode::None);
    c.validate();
}

TEST(Presets, MatchPaperTable)
{
    struct Expect
    {
        ControllerPolicy system;
        bool row, wow;
        RotationMode rot;
    };
    const Expect table[] = {
        {presets::RoW_NR, true, false, RotationMode::None},
        {presets::WoW_NR, false, true, RotationMode::None},
        {presets::RWoW_NR, true, true, RotationMode::None},
        {presets::RWoW_RD, true, true, RotationMode::Data},
        {presets::RWoW_RDE, true, true, RotationMode::DataEcc},
    };
    for (const Expect &e : table) {
        const ControllerConfig c = controllerFor(e.system);
        EXPECT_EQ(c.enableRoW, e.row) << e.system.label();
        EXPECT_EQ(c.enableWoW, e.wow) << e.system.label();
        EXPECT_EQ(c.rotation, e.rot) << e.system.label();
        EXPECT_TRUE(c.fineGrained) << e.system.label();
        EXPECT_TRUE(c.hasPcc()) << e.system.label();
        c.validate();
    }
}

TEST(Presets, NamesMatchPaperLabels)
{
    EXPECT_EQ(presets::Baseline.label(), "Baseline");
    EXPECT_EQ(presets::RoW_NR.label(), "RoW-NR");
    EXPECT_EQ(presets::WoW_NR.label(), "WoW-NR");
    EXPECT_EQ(presets::RWoW_NR.label(), "RWoW-NR");
    EXPECT_EQ(presets::RWoW_RD.label(), "RWoW-RD");
    EXPECT_EQ(presets::RWoW_RDE.label(), "RWoW-RDE");
}

TEST(Presets, AllModesListIsComplete)
{
    EXPECT_EQ(std::size(kPaperSystems), 6u);
    EXPECT_EQ(kPaperSystems[0], presets::Baseline);
    EXPECT_EQ(kPaperSystems[5], presets::RWoW_RDE);
}

TEST(Config, DefaultQueueingMatchesPaper)
{
    const ControllerConfig c;
    EXPECT_EQ(c.readQueueCap, 8u);
    EXPECT_EQ(c.writeQueueCap, 32u);
    EXPECT_DOUBLE_EQ(c.drainHighWatermark, 0.8);
}

TEST(ConfigDeath, RowWithoutFineGrainedIsFatal)
{
    ControllerConfig c;
    c.enableRoW = true;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "fine-grained");
}

TEST(ConfigDeath, BadWatermarksAreFatal)
{
    ControllerConfig c;
    c.drainLowWatermark = 0.9;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "watermark");
}

TEST(ConfigDeath, CancellationOnPcmapIsFatal)
{
    ControllerConfig c = controllerFor(presets::RWoW_RDE);
    c.enableWriteCancellation = true;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "conventional DIMM");
}

TEST(ConfigDeath, PresetOnPcmapIsFatal)
{
    ControllerConfig c = controllerFor(presets::RWoW_RD);
    c.enablePreset = true;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "conventional DIMM");
}

TEST(ConfigDeath, ZeroQueueIsFatal)
{
    ControllerConfig c;
    c.readQueueCap = 0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "positive");
}

} // namespace
} // namespace pcmap
