/**
 * @file
 * Unit tests for the WriteCoalescer policy, exercising the WoW merge
 * edge cases directly against a hand-built queue and bank state:
 * overlapping essential-chip sets must not merge, busy chips must
 * block admission, groups can grow past two members up to wowMaxMerge,
 * and the RDE rotation resolves same-slot (and ECC-chip) conflicts
 * that the fixed NR layout cannot.
 */

#include <gtest/gtest.h>

#include "core/controller_stats.h"
#include "core/policy/line_layout.h"
#include "core/policy/write_coalescer.h"
#include "mem/address.h"
#include "mem/rank.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

class WowCollectTest : public ::testing::Test
{
  protected:
    WowCollectTest()
    {
        ranks.emplace_back(geom.banksPerRank, /*has_pcc=*/true, &epoch);
        cfg.banksPerRank = geom.banksPerRank;
    }

    /** Line-aligned byte address of (bank, row, column) on rank 0. */
    std::uint64_t
    addrAt(unsigned bank, std::uint64_t row, unsigned column) const
    {
        DecodedAddr loc;
        loc.channel = 0;
        loc.rank = 0;
        loc.bank = bank;
        loc.row = row;
        loc.column = column;
        return mapper.encode(loc);
    }

    /** A queued write-back dirtying exactly @p words (stored is 0). */
    WriteEntry
    makeWrite(std::uint64_t addr, WordMask words) const
    {
        WriteEntry e;
        e.req.type = ReqType::Write;
        e.req.addr = addr;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (words & (1u << w))
                e.req.data.w[w] = 0x0101010101010101ull * (w + 1);
        }
        e.prime(mapper);
        return e;
    }

    MemGeometry geom{};
    AddressMapper mapper{geom};
    BackingStore store;
    ControllerConfig cfg = controllerFor(presets::WoW_NR);
    std::uint64_t epoch = 0;
    std::vector<Rank> ranks;
    BankStateView view{ranks, epoch};
    IdentityLayout nr{/*has_pcc=*/true};
    ControllerStats stats;
    std::vector<WriteGroupMember> group;
    ChipMask occupied = 0;
};

TEST_F(WowCollectTest, MergesDisjointChipSetsOnSameBank)
{
    const WowCoalescer wow(cfg, mapper, nr, store);
    WriteQueue q;
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'1100)); // chips 2,3
    q.push_back(makeWrite(addrAt(0, 0, 2), 0b0011'0000)); // chips 4,5

    occupied = 0b0000'0011; // head write on chips 0,1
    wow.collect(q, /*rank=*/0, /*bank=*/0, /*window_start=*/1000, view,
                group, occupied, stats);

    ASSERT_EQ(group.size(), 2u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(occupied, 0b0011'1111u);
    EXPECT_EQ(group[0].chips, 0b0000'1100u);
    EXPECT_EQ(group[0].nEssential, 2u);
    EXPECT_EQ(group[1].chips, 0b0011'0000u);
    EXPECT_EQ(stats.essentialWordsSum, 4u);
    EXPECT_EQ(stats.essentialHist[2], 2u);
}

TEST_F(WowCollectTest, OverlappingEssentialChipSetsDoNotMerge)
{
    const WowCoalescer wow(cfg, mapper, nr, store);
    WriteQueue q;
    // Word 1 collides with the head's chip 1 under the NR layout.
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'0110)); // chips 1,2
    q.push_back(makeWrite(addrAt(0, 0, 2), 0b0000'1100)); // chips 2,3

    occupied = 0b0000'0011; // head on chips 0,1
    wow.collect(q, 0, 0, 1000, view, group, occupied, stats);

    // Only the disjoint write joins; the overlapping one stays queued.
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0].chips, 0b0000'1100u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(mapper.decode(q.front().req.addr).column, 1u);
    EXPECT_EQ(occupied, 0b0000'1111u);
}

TEST_F(WowCollectTest, WritesToOtherBanksOrRanksAreSkipped)
{
    const WowCoalescer wow(cfg, mapper, nr, store);
    WriteQueue q;
    q.push_back(makeWrite(addrAt(1, 0, 0), 0b0000'0100)); // bank 1
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'1000)); // bank 0

    occupied = 0b0000'0001;
    wow.collect(q, 0, 0, 1000, view, group, occupied, stats);

    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0].chips, 0b0000'1000u);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(mapper.decode(q.front().req.addr).bank, 1u);
}

TEST_F(WowCollectTest, BusyChipsBlockAdmissionUntilTheWindowStart)
{
    const WowCoalescer wow(cfg, mapper, nr, store);
    // Chip 2 of bank 0 is mid-write until tick 5000.
    ranks[0].reserveChip(/*chip=*/2, /*bank=*/0, /*row=*/0,
                         /*start=*/0, /*end=*/5000, /*is_write=*/true);

    WriteQueue q;
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'0100)); // chip 2

    occupied = 0b0000'0001;
    wow.collect(q, 0, 0, /*window_start=*/1000, view, group, occupied,
                stats);
    EXPECT_TRUE(group.empty()) << "chip busy past the window start";
    EXPECT_EQ(q.size(), 1u);

    // A window starting at the chip's release admits the write.
    wow.collect(q, 0, 0, /*window_start=*/5000, view, group, occupied,
                stats);
    EXPECT_EQ(group.size(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST_F(WowCollectTest, SilentStoresAreLeftInTheQueue)
{
    const WowCoalescer wow(cfg, mapper, nr, store);
    WriteQueue q;
    // Data equals the stored (zero) line: no essential words.
    q.push_back(makeWrite(addrAt(0, 0, 1), 0));

    occupied = 0b0000'0001;
    wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
    EXPECT_TRUE(group.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(stats.essentialWordsSum, 0u);
}

TEST_F(WowCollectTest, MergesMoreThanTwoWritesUpToWowMaxMerge)
{
    WriteQueue q;
    for (unsigned i = 1; i <= 4; ++i)
        q.push_back(makeWrite(addrAt(0, 0, i), 1u << i)); // chip i

    // Simulate the head already being in the group, as the controller
    // does before calling collect().
    group.push_back(WriteGroupMember{makeWrite(addrAt(0, 0, 0), 1u), 1u,
                                     0b0000'0001, 0, 0, 1});
    occupied = 0b0000'0001;

    {
        ControllerConfig capped = cfg;
        capped.wowMaxMerge = 3;
        const WowCoalescer wow(capped, mapper, nr, store);
        wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
        EXPECT_EQ(group.size(), 3u) << "head + 2 admitted at cap 3";
        EXPECT_EQ(q.size(), 2u);
    }
    {
        const WowCoalescer wow(cfg, mapper, nr, store); // default cap 8
        wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
        EXPECT_EQ(group.size(), 5u) << "the rest join under the cap";
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(occupied, 0b0001'1111u);
    }
}

TEST_F(WowCollectTest, ScanDepthBoundsTheQueueWalk)
{
    ControllerConfig shallow = cfg;
    shallow.wowScanDepth = 1;
    shallow.perBankWriteQueues = false;
    const WowCoalescer wow(shallow, mapper, nr, store);

    WriteQueue q;
    q.push_back(makeWrite(addrAt(1, 0, 0), 0b0000'0100)); // other bank
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'1000)); // mergeable

    occupied = 0b0000'0001;
    wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
    EXPECT_TRUE(group.empty())
        << "the single scan slot was spent on the other-bank write";
    EXPECT_EQ(q.size(), 2u);
}

TEST_F(WowCollectTest, RdeRotationResolvesSameSlotAndEccConflicts)
{
    const RotateDataEccLayout rde;

    // Two same-bank lines that both dirty word 0.  Under the fixed NR
    // layout word 0 always lives on chip 0 and ECC always on chip 8,
    // so their footprints collide; under RDE the rotation offsets
    // differ and both the word-0 chips and the ECC chips diverge.
    const std::uint64_t addr_a = addrAt(0, 0, 0);
    const std::uint64_t line_a = mapper.lineAddr(addr_a);
    std::uint64_t addr_b = 0;
    std::uint64_t line_b = 0;
    bool found = false;
    for (unsigned col = 1; col < geom.linesPerRow(); ++col) {
        addr_b = addrAt(0, 0, col);
        line_b = mapper.lineAddr(addr_b);
        if (rde.chipForWord(line_b, 0) != rde.chipForWord(line_a, 0)) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "row must contain lines of distinct offsets";

    EXPECT_EQ(nr.chipForWord(line_a, 0), nr.chipForWord(line_b, 0));
    EXPECT_EQ(nr.eccChip(line_a), nr.eccChip(line_b))
        << "fixed layout serializes every ECC update on one chip";
    EXPECT_NE(rde.eccChip(line_a), rde.eccChip(line_b))
        << "RDE spreads the ECC words across chips";

    // NR: the second write's chip set collides with the head's.
    {
        const WowCoalescer wow(cfg, mapper, nr, store);
        WriteQueue q;
        q.push_back(makeWrite(addr_b, 1u));
        occupied = nr.chipsForWords(line_a, 1u);
        wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
        EXPECT_TRUE(group.empty());
        EXPECT_EQ(q.size(), 1u);
    }
    // RDE: the rotated chip sets are disjoint, so the merge succeeds.
    {
        group.clear();
        const WowCoalescer wow(cfg, mapper, rde, store);
        WriteQueue q;
        q.push_back(makeWrite(addr_b, 1u));
        occupied = rde.chipsForWords(line_a, 1u);
        wow.collect(q, 0, 0, 1000, view, group, occupied, stats);
        ASSERT_EQ(group.size(), 1u);
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(group[0].chips, rde.chipsForWords(line_b, 1u));
    }
}

TEST_F(WowCollectTest, PassThroughCoalescerNeverMerges)
{
    const ControllerConfig solo =
        controllerFor(presets::RoW_NR);
    const PassThroughCoalescer pass(solo, mapper, nr, store);
    WriteQueue q;
    q.push_back(makeWrite(addrAt(0, 0, 1), 0b0000'1100));

    occupied = 0b0000'0001;
    pass.collect(q, 0, 0, 1000, view, group, occupied, stats);
    EXPECT_TRUE(group.empty());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(occupied, 0b0000'0001u);
}

TEST(CoalescerSplit, TwoStepNeedsRowAndOneEssentialWordAndReaders)
{
    const MemGeometry geom{};
    const AddressMapper mapper{geom};
    BackingStore store;
    const IdentityLayout nr{true};

    ControllerConfig row = controllerFor(presets::RWoW_NR);
    const WowCoalescer wow(row, mapper, nr, store);
    EXPECT_TRUE(wow.splitTwoStep(1, true));
    EXPECT_FALSE(wow.splitTwoStep(1, false)) << "no reads waiting";
    EXPECT_FALSE(wow.splitTwoStep(2, true)) << "multi-word write";
    EXPECT_FALSE(wow.splitMultiStep(2, true))
        << "WoW consolidates in parallel instead of serializing";

    ControllerConfig solo = controllerFor(presets::RoW_NR);
    solo.rowMultiWordWrites = true;
    const PassThroughCoalescer pass(solo, mapper, nr, store);
    EXPECT_TRUE(pass.splitTwoStep(1, true));
    EXPECT_TRUE(pass.splitMultiStep(2, true));
    EXPECT_FALSE(pass.splitMultiStep(1, true)) << "two-step covers n=1";

    ControllerConfig wow_only =
        controllerFor(presets::WoW_NR);
    const WowCoalescer no_row(wow_only, mapper, nr, store);
    EXPECT_FALSE(no_row.splitTwoStep(1, true)) << "RoW disabled";
}

} // namespace
} // namespace pcmap
