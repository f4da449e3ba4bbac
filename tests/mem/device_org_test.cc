/**
 * @file
 * Property tests for the device-organization axis (org=slc|mlc|tlc|qlc).
 *
 * The per-org timing/energy tables are modeling inputs, so instead of
 * pinning every number the tests assert the *shape* the literature
 * gives them: denser cells read strictly slower, write far slower
 * (more and longer program-and-verify rounds), and widen the
 * write/read asymmetry the paper's mechanisms exploit.  The SLC row is
 * the exception — it must reproduce the default Table-I timing
 * exactly, because org=slc is documented to be byte-identical to the
 * legacy configuration.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/energy.h"
#include "mem/timing.h"
#include "sim/log.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_spec.h"

namespace pcmap {
namespace {

TEST(DeviceOrg, NamesRoundTripThroughParser)
{
    for (const DeviceOrg org : kAllOrgs) {
        const auto parsed = deviceOrgFromName(deviceOrgName(org));
        ASSERT_TRUE(parsed.has_value()) << deviceOrgName(org);
        EXPECT_EQ(*parsed, org);
    }
}

TEST(DeviceOrg, ParserIsCaseInsensitive)
{
    EXPECT_EQ(deviceOrgFromName("SLC"), DeviceOrg::Slc);
    EXPECT_EQ(deviceOrgFromName("Mlc"), DeviceOrg::Mlc);
    EXPECT_EQ(deviceOrgFromName("tLc"), DeviceOrg::Tlc);
    EXPECT_EQ(deviceOrgFromName("QLC"), DeviceOrg::Qlc);
}

TEST(DeviceOrg, UnknownNamesAreRejected)
{
    EXPECT_FALSE(deviceOrgFromName("plc").has_value());
    EXPECT_FALSE(deviceOrgFromName("").has_value());
    EXPECT_FALSE(deviceOrgFromName("slcc").has_value());
    EXPECT_FALSE(deviceOrgFromName("all").has_value())
        << "'all' is a CLI group, not an organization";
}

TEST(DeviceOrg, SlcTimingIsTheDefaultTiming)
{
    // org=slc must be indistinguishable from a default-constructed
    // config: every field that feeds the tick derivations matches.
    const PcmTiming def;
    const PcmTiming slc = PcmTiming::forOrg(DeviceOrg::Slc);
    EXPECT_EQ(slc.org, DeviceOrg::Slc);
    EXPECT_EQ(slc.writeRounds, 1u);
    EXPECT_DOUBLE_EQ(slc.arrayReadNs, def.arrayReadNs);
    EXPECT_DOUBLE_EQ(slc.setNs, def.setNs);
    EXPECT_DOUBLE_EQ(slc.resetNs, def.resetNs);
    EXPECT_EQ(slc.chipWriteTicks(), def.chipWriteTicks());
    EXPECT_EQ(slc.readMissTicks(), def.readMissTicks());
    EXPECT_EQ(slc.totalWritePulseTicks(), def.arrayWriteTicks());
}

TEST(DeviceOrg, RoundCountsDoublePerExtraBit)
{
    EXPECT_EQ(PcmTiming::forOrg(DeviceOrg::Slc).writeRounds, 1u);
    EXPECT_EQ(PcmTiming::forOrg(DeviceOrg::Mlc).writeRounds, 2u);
    EXPECT_EQ(PcmTiming::forOrg(DeviceOrg::Tlc).writeRounds, 4u);
    EXPECT_EQ(PcmTiming::forOrg(DeviceOrg::Qlc).writeRounds, 8u);
}

TEST(DeviceOrg, LatenciesAreStrictlyMonotoneInDensity)
{
    double prev_read = 0.0;
    double prev_pulse = 0.0;
    Tick prev_write = 0;
    for (const DeviceOrg org : kAllOrgs) {
        const PcmTiming t = PcmTiming::forOrg(org);
        t.validate();
        EXPECT_GT(t.arrayReadNs, prev_read) << deviceOrgName(org);
        EXPECT_GT(t.arrayWriteNs(), prev_pulse) << deviceOrgName(org);
        EXPECT_GT(t.totalWritePulseTicks(), prev_write)
            << deviceOrgName(org);
        prev_read = t.arrayReadNs;
        prev_pulse = t.arrayWriteNs();
        prev_write = t.totalWritePulseTicks();
    }
}

TEST(DeviceOrg, WriteReadAsymmetryWidensWithDensity)
{
    // The motivation for round-boundary pausing: total write time
    // grows faster than read time, so the write/read ratio is
    // strictly increasing (2.0x for SLC up to 6.0x for QLC).
    double prev_ratio = 0.0;
    for (const DeviceOrg org : kAllOrgs) {
        const PcmTiming t = PcmTiming::forOrg(org);
        const double ratio =
            static_cast<double>(t.writeRounds) * t.arrayWriteNs() /
            t.arrayReadNs;
        EXPECT_GT(ratio, prev_ratio) << deviceOrgName(org);
        prev_ratio = ratio;
    }
    EXPECT_DOUBLE_EQ(
        PcmTiming::forOrg(DeviceOrg::Slc).arrayWriteNs() /
            PcmTiming::forOrg(DeviceOrg::Slc).arrayReadNs,
        2.0);
    EXPECT_DOUBLE_EQ(prev_ratio, 6.0); // QLC: 8 * 180 / 240.
}

TEST(DeviceOrg, WithOrgPreservesCustomInterfaceConstants)
{
    PcmTiming t;
    t.tCL = 7;
    t.tWL = 6;
    const PcmTiming q = t.withOrg(DeviceOrg::Qlc);
    EXPECT_EQ(q.tCL, 7u);
    EXPECT_EQ(q.tWL, 6u);
    EXPECT_EQ(q.org, DeviceOrg::Qlc);
    // ...and withOrg(Slc) restores the Table-I cell latencies even
    // from a denser starting point.
    const PcmTiming back = q.withOrg(DeviceOrg::Slc);
    EXPECT_DOUBLE_EQ(back.arrayReadNs, 60.0);
    EXPECT_EQ(back.writeRounds, 1u);
    EXPECT_EQ(back.tCL, 7u);
}

TEST(DeviceOrg, ZeroWriteRoundsIsFatal)
{
    PcmTiming t;
    t.writeRounds = 0;
    EXPECT_EXIT(t.validate(), ::testing::ExitedWithCode(1), "round");
}

TEST(DeviceOrg, EnergyScalesWithDensity)
{
    double prev_read = 0.0;
    double prev_set = 0.0;
    double prev_reset = 0.0;
    for (const DeviceOrg org : kAllOrgs) {
        const EnergyParams p = EnergyParams::forOrg(org);
        EXPECT_GT(p.arrayReadPjPerBit, prev_read) << deviceOrgName(org);
        EXPECT_GT(p.setPjPerBit, prev_set) << deviceOrgName(org);
        EXPECT_GT(p.resetPjPerBit, prev_reset) << deviceOrgName(org);
        // Interface-side coefficients are org-independent.
        EXPECT_DOUBLE_EQ(p.rowBufferPjPerBit, 0.93);
        EXPECT_DOUBLE_EQ(p.busPjPerBit, 1.1);
        prev_read = p.arrayReadPjPerBit;
        prev_set = p.setPjPerBit;
        prev_reset = p.resetPjPerBit;
    }
    // SLC is exactly the legacy Lee et al. table (default params).
    const EnergyParams def;
    const EnergyParams slc = EnergyParams::forOrg(DeviceOrg::Slc);
    EXPECT_DOUBLE_EQ(slc.arrayReadPjPerBit, def.arrayReadPjPerBit);
    EXPECT_DOUBLE_EQ(slc.setPjPerBit, def.setPjPerBit);
    EXPECT_DOUBLE_EQ(slc.resetPjPerBit, def.resetPjPerBit);
}

TEST(DeviceOrgCli, ParseOrgsAcceptsListsAndAll)
{
    EXPECT_EQ(sweep::parseOrgs("slc"),
              (std::vector<DeviceOrg>{DeviceOrg::Slc}));
    EXPECT_EQ(sweep::parseOrgs("mlc,qlc"),
              (std::vector<DeviceOrg>{DeviceOrg::Mlc, DeviceOrg::Qlc}));
    EXPECT_EQ(sweep::parseOrgs("all"),
              (std::vector<DeviceOrg>{DeviceOrg::Slc, DeviceOrg::Mlc,
                                      DeviceOrg::Tlc, DeviceOrg::Qlc}));
    EXPECT_EQ(sweep::parseOrgs("TLC"),
              (std::vector<DeviceOrg>{DeviceOrg::Tlc}));
}

TEST(DeviceOrgCli, ParseOrgsRejectsUnknownWithSuggestion)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(sweep::parseOrgs(""), SimError);
    EXPECT_THROW(sweep::parseOrgs("slc,bogus"), SimError);
    try {
        sweep::parseOrgs("mlcc");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("mlcc"), std::string::npos) << what;
        EXPECT_NE(what.find("did you mean 'mlc'"), std::string::npos)
            << "near-miss names should get a suggestion: " << what;
        EXPECT_NE(what.find("slc, mlc, tlc, qlc"), std::string::npos)
            << "error must list the valid names: " << what;
    }
}

TEST(DeviceOrgSpec, LabelCarriesOrgSuffixOffDefault)
{
    sweep::SweepPoint p;
    p.system = presets::Baseline;
    p.workload = "MP1";
    const std::string base = p.label();
    p.org = DeviceOrg::Tlc;
    EXPECT_EQ(p.label(), base + "@tlc");
    p.org = DeviceOrg::Slc;
    EXPECT_EQ(p.label(), base) << "slc keeps the legacy label";
}

TEST(DeviceOrgSpec, ExpandIsOrgMajorWithSlcPrefixIdenticalToLegacy)
{
    sweep::SweepSpec legacy;
    legacy.workloads = {"MP1", "MP2"};
    legacy.seeds = {1};

    sweep::SweepSpec multi = legacy;
    multi.orgs.assign(std::begin(kAllOrgs), std::end(kAllOrgs));
    ASSERT_EQ(multi.size(), legacy.size() * 4);

    const auto legacy_pts = legacy.expand();
    const auto multi_pts = multi.expand();
    ASSERT_EQ(multi_pts.size(), legacy_pts.size() * 4);
    for (std::size_t i = 0; i < legacy_pts.size(); ++i) {
        // The slc-first block reproduces the legacy point list
        // exactly: same index, label, seed and timing.
        EXPECT_EQ(multi_pts[i].index, legacy_pts[i].index);
        EXPECT_EQ(multi_pts[i].label(), legacy_pts[i].label());
        EXPECT_EQ(multi_pts[i].runSeed, legacy_pts[i].runSeed);
        EXPECT_EQ(multi_pts[i].config.controller.timing.writeRounds, 1u);
    }
    // Later blocks carry the denser timing tables.
    for (std::size_t i = legacy_pts.size(); i < multi_pts.size(); ++i) {
        const auto &pt = multi_pts[i];
        EXPECT_NE(pt.org, DeviceOrg::Slc);
        EXPECT_EQ(pt.config.controller.timing.org, pt.org);
        EXPECT_GT(pt.config.controller.timing.writeRounds, 1u);
    }
}

TEST(DeviceOrgSpec, StableSerializeMentionsOrgsOnlyOffDefault)
{
    sweep::SweepSpec legacy;
    legacy.workloads = {"MP1"};
    const std::string legacy_text = sweep::stableSerialize(legacy);
    EXPECT_EQ(legacy_text.find("org"), std::string::npos)
        << "default (slc-only) specs keep the legacy fingerprint";

    sweep::SweepSpec multi = legacy;
    multi.orgs = {DeviceOrg::Slc, DeviceOrg::Qlc};
    const std::string multi_text = sweep::stableSerialize(multi);
    EXPECT_NE(multi_text.find("orgs=slc,qlc"), std::string::npos)
        << multi_text;
    EXPECT_NE(sweep::specFingerprint(legacy),
              sweep::specFingerprint(multi));

    // A config whose timing is itself non-slc serializes its org and
    // round count, so two configs differing only in org can't
    // fingerprint-collide.
    sweep::SweepSpec cfg = legacy;
    cfg.configs[0].base.controller.timing =
        cfg.configs[0].base.controller.timing.withOrg(DeviceOrg::Mlc);
    EXPECT_NE(sweep::stableSerialize(cfg).find("org=mlc,2"),
              std::string::npos);
}

} // namespace
} // namespace pcmap
