/**
 * @file
 * Tests for the composable ControllerPolicy layer: composition
 * parsing (including the rejection paths and their messages), the
 * six named presets and their compositions, and the policy-object
 * factories
 * that pick the scheduler / coalescer / layout implementations.
 */

#include <gtest/gtest.h>

#include "core/policy/controller_policy.h"
#include "mem/address.h"
#include "mem/backing_store.h"
#include "sim/log.h"

namespace pcmap {
namespace {

TEST(PolicyParse, SingleComponents)
{
    const auto base = ControllerPolicy::parse("base");
    ASSERT_TRUE(base);
    EXPECT_FALSE(base->fineGrained);
    EXPECT_FALSE(base->enableRoW);
    EXPECT_FALSE(base->enableWoW);
    EXPECT_EQ(base->rotation, RotationMode::None);

    const auto fg = ControllerPolicy::parse("fg");
    ASSERT_TRUE(fg);
    EXPECT_TRUE(fg->fineGrained);
    EXPECT_FALSE(fg->enableRoW);

    const auto row = ControllerPolicy::parse("row");
    ASSERT_TRUE(row);
    EXPECT_TRUE(row->fineGrained) << "row implies fg";
    EXPECT_TRUE(row->enableRoW);

    const auto wow = ControllerPolicy::parse("wow");
    ASSERT_TRUE(wow);
    EXPECT_TRUE(wow->fineGrained) << "wow implies fg";
    EXPECT_TRUE(wow->enableWoW);

    const auto rde = ControllerPolicy::parse("rde");
    ASSERT_TRUE(rde);
    EXPECT_TRUE(rde->fineGrained) << "rde needs the 10-chip DIMM";
    EXPECT_EQ(rde->rotation, RotationMode::DataEcc);

    // rd alone stays coarse: rotation without rank subsetting.
    const auto rd = ControllerPolicy::parse("rd");
    ASSERT_TRUE(rd);
    EXPECT_FALSE(rd->fineGrained);
    EXPECT_EQ(rd->rotation, RotationMode::Data);
}

TEST(PolicyParse, ComposedAndCaseInsensitive)
{
    const auto full = ControllerPolicy::parse("row+wow+rde");
    ASSERT_TRUE(full);
    EXPECT_TRUE(full->enableRoW);
    EXPECT_TRUE(full->enableWoW);
    EXPECT_EQ(full->rotation, RotationMode::DataEcc);

    const auto shouty = ControllerPolicy::parse("RoW+WOW+Rde");
    ASSERT_TRUE(shouty);
    EXPECT_EQ(*shouty, *full);

    // Order does not matter.
    const auto reordered = ControllerPolicy::parse("rde+wow+row");
    ASSERT_TRUE(reordered);
    EXPECT_EQ(*reordered, *full);
}

TEST(PolicyParse, RejectsUnknownComponentsNamingThem)
{
    std::string err;
    EXPECT_FALSE(ControllerPolicy::parse("row+bogus", &err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    EXPECT_NE(err.find("base, fg, row, wow, rd, rde"),
              std::string::npos)
        << "error must list the valid components: " << err;

    err.clear();
    EXPECT_FALSE(ControllerPolicy::parse("", &err));
    EXPECT_NE(err.find("valid components"), std::string::npos) << err;

    EXPECT_FALSE(ControllerPolicy::parse("row++wow"));
    EXPECT_FALSE(ControllerPolicy::parse("+row"));
    EXPECT_FALSE(ControllerPolicy::parse("row+"));
}

TEST(PolicyParse, RejectsConflictingCompositions)
{
    std::string err;
    EXPECT_FALSE(ControllerPolicy::parse("rd+rde", &err));
    EXPECT_NE(err.find("conflicting"), std::string::npos) << err;

    err.clear();
    EXPECT_FALSE(ControllerPolicy::parse("base+row", &err));
    EXPECT_NE(err.find("base"), std::string::npos) << err;
    EXPECT_FALSE(ControllerPolicy::parse("base+fg"));
    EXPECT_FALSE(ControllerPolicy::parse("base+rde"));
}

TEST(PolicyComposition, RoundTripsThroughParse)
{
    const char *compositions[] = {"base",   "fg",        "row",
                                  "wow",    "row+wow",   "rd",
                                  "fg+rd",  "row+rd",    "row+wow+rd",
                                  "rde",    "row+rde",   "row+wow+rde"};
    for (const char *comp : compositions) {
        const auto p = ControllerPolicy::parse(comp);
        ASSERT_TRUE(p) << comp;
        EXPECT_EQ(p->composition(), comp)
            << "canonical compositions must round-trip";
        const auto again = ControllerPolicy::parse(p->composition());
        ASSERT_TRUE(again) << comp;
        EXPECT_EQ(*again, *p) << comp;
    }
}

TEST(PolicyPresets, SixModesMapToCanonicalCompositions)
{
    const struct
    {
        ControllerPolicy preset;
        const char *composition;
    } table[] = {
        {presets::Baseline, "base"},
        {presets::RoW_NR, "row"},
        {presets::WoW_NR, "wow"},
        {presets::RWoW_NR, "row+wow"},
        {presets::RWoW_RD, "row+wow+rd"},
        {presets::RWoW_RDE, "row+wow+rde"},
    };
    for (const auto &e : table) {
        EXPECT_EQ(e.preset.composition(), e.composition)
            << e.preset.label();
        EXPECT_TRUE(e.preset.isPreset()) << e.composition;
        // Parsing the composition or the name lands on the preset,
        // which labels itself by name.
        const auto parsed = ControllerPolicy::parse(e.composition);
        ASSERT_TRUE(parsed);
        EXPECT_EQ(*parsed, e.preset);
        EXPECT_EQ(ControllerPolicy::parse(e.preset.label()), e.preset);
        EXPECT_EQ(parsed->label(), e.preset.label());
    }
}

TEST(PolicyPresets, NonPresetCompositionsHaveNoMode)
{
    for (const char *comp : {"fg", "rd", "fg+rd", "row+rd", "rde"}) {
        const auto p = ControllerPolicy::parse(comp);
        ASSERT_TRUE(p) << comp;
        EXPECT_FALSE(p->isPreset()) << comp;
        EXPECT_EQ(p->label(), comp) << "labelled by composition";
    }
}

TEST(PolicyPresets, FromConfigInvertsApplyTo)
{
    for (const ControllerPolicy &preset : kPaperSystems) {
        ControllerConfig cfg;
        preset.applyTo(cfg);
        EXPECT_EQ(ControllerPolicy::fromConfig(cfg), preset)
            << preset.label();
    }
}

TEST(PolicyFactories, PickImplementationsByComposition)
{
    const AddressMapper mapper{MemGeometry{}};
    BackingStore store;

    const struct
    {
        const char *composition;
        const char *scheduler;
        const char *coalescer;
        const char *layout;
    } table[] = {
        {"base", "frfcfs", "solo", "nr"},
        {"row", "row", "solo", "nr"},
        {"wow", "frfcfs", "wow", "nr"},
        {"row+wow", "row", "wow", "nr"},
        {"row+wow+rd", "row", "wow", "rd"},
        {"row+wow+rde", "row", "wow", "rde"},
    };
    for (const auto &e : table) {
        const auto p = ControllerPolicy::parse(e.composition);
        ASSERT_TRUE(p) << e.composition;
        ControllerConfig cfg;
        p->applyTo(cfg);
        const auto layout = p->makeLayout();
        EXPECT_STREQ(layout->name(), e.layout) << e.composition;
        EXPECT_EQ(layout->rotation(), p->rotation) << e.composition;
        EXPECT_EQ(layout->hasPcc(), cfg.hasPcc()) << e.composition;
        const auto sched =
            ControllerPolicy::makeScheduler(cfg, mapper, *layout);
        EXPECT_STREQ(sched->name(), e.scheduler) << e.composition;
        const auto coal = ControllerPolicy::makeCoalescer(
            cfg, mapper, *layout, store);
        EXPECT_STREQ(coal->name(), e.coalescer) << e.composition;
    }
}

TEST(ModeNames, ParseIsCaseInsensitive)
{
    const auto parse = [](const char *name) {
        return ControllerPolicy::parse(name);
    };
    EXPECT_EQ(parse("rwow-rde"), presets::RWoW_RDE);
    EXPECT_EQ(parse("RWOW-RDE"), presets::RWoW_RDE);
    EXPECT_EQ(parse("baseline"), presets::Baseline);
    EXPECT_EQ(parse("BASELINE"), presets::Baseline);
    EXPECT_EQ(parse("row_nr"), presets::RoW_NR) << "'_' accepted for '-'";
    EXPECT_EQ(parse("wow-nr"), presets::WoW_NR);
    EXPECT_FALSE(parse("rwow"));
    EXPECT_FALSE(parse(""));
}

TEST(ModeNames, NamesListCoversAllSixInOrder)
{
    std::string names;
    for (const ControllerPolicy &preset : kPaperSystems)
        names += (names.empty() ? "" : ", ") + preset.label();
    EXPECT_EQ(names,
              "Baseline, RoW-NR, WoW-NR, RWoW-NR, RWoW-RD, RWoW-RDE");
}

TEST(ModeNames, RequireHintsTheClosestName)
{
    ScopedErrorTrap trap;
    try {
        ControllerPolicy::require("RWoW-RDR", {"all"});
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown system mode 'RWoW-RDR'; did you "
                            "mean 'RWoW-RD'?"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("RWoW-RDE, all, or a '+' composition of "
                            "base, fg, row, wow, rd, rde"),
                  std::string::npos)
            << what;
    }
    EXPECT_THROW(ControllerPolicy::require("row+bogus"), SimError);
    EXPECT_EQ(ControllerPolicy::require("RoW+Rd").label(), "row+rd");
}

} // namespace
} // namespace pcmap
