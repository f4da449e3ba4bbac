/**
 * @file
 * Tests for the IRLP tracker: window accounting, chip deduplication,
 * overlap handling, and the metric's invariants.
 */

#include <gtest/gtest.h>

#include "mem/irlp.h"

namespace pcmap {
namespace {

TEST(Irlp, NoOpsMeansZero)
{
    IrlpTracker t;
    t.finalize(1000);
    EXPECT_EQ(t.mean(), 0.0);
    EXPECT_EQ(t.maxSeen(), 0u);
    EXPECT_EQ(t.writeWindowTicks(), 0.0);
}

TEST(Irlp, ReadsAloneOpenNoWindow)
{
    IrlpTracker t;
    t.addOp(0, 0, 100, 0xFF, false);
    t.finalize(200);
    EXPECT_EQ(t.writeWindowTicks(), 0.0);
    EXPECT_EQ(t.mean(), 0.0);
}

TEST(Irlp, SingleWriteCountsItsChips)
{
    IrlpTracker t;
    t.addOp(0, 0, 100, 0b0011, true); // 2 data chips
    t.finalize(200);
    EXPECT_DOUBLE_EQ(t.writeWindowTicks(), 100.0);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
    EXPECT_EQ(t.maxSeen(), 2u);
}

TEST(Irlp, ReadOverlappingWriteAddsItsChips)
{
    IrlpTracker t;
    t.addOp(0, 0, 100, 0b00000001, true);  // write on chip 0
    t.addOp(0, 0, 100, 0b11111110, false); // read on chips 1..7
    t.finalize(200);
    EXPECT_DOUBLE_EQ(t.mean(), 8.0);
    EXPECT_EQ(t.maxSeen(), 8u);
}

TEST(Irlp, SharedChipsCountOnce)
{
    IrlpTracker t;
    // Two overlapping ops both using chip 3 must count it once.
    t.addOp(0, 0, 100, 0b1000, true);
    t.addOp(0, 0, 100, 0b1000, false);
    t.finalize(200);
    EXPECT_DOUBLE_EQ(t.mean(), 1.0);
    EXPECT_EQ(t.maxSeen(), 1u);
}

TEST(Irlp, WindowOnlyWhileWriteActive)
{
    IrlpTracker t;
    t.addOp(0, 0, 50, 0b0001, true);    // write [0, 50)
    t.addOp(0, 50, 150, 0b1111, false); // read after the write
    t.finalize(200);
    EXPECT_DOUBLE_EQ(t.writeWindowTicks(), 50.0);
    EXPECT_DOUBLE_EQ(t.mean(), 1.0); // read outside window ignored
}

TEST(Irlp, PartialOverlapWeightsByTime)
{
    IrlpTracker t;
    t.addOp(0, 0, 100, 0b0001, true);   // 1 chip whole window
    t.addOp(0, 50, 100, 0b0010, false); // +1 chip second half
    t.finalize(100);
    // Window 100 ticks: 50 at 1 chip + 50 at 2 chips = 1.5 mean.
    EXPECT_DOUBLE_EQ(t.mean(), 1.5);
    EXPECT_EQ(t.maxSeen(), 2u);
}

TEST(Irlp, ConsecutiveWritesSeparateWindows)
{
    IrlpTracker t;
    t.addOp(0, 0, 100, 0b0011, true);
    t.addOp(100, 200, 300, 0b1100, true);
    t.finalize(400);
    EXPECT_DOUBLE_EQ(t.writeWindowTicks(), 200.0);
    EXPECT_DOUBLE_EQ(t.mean(), 2.0);
}

TEST(Irlp, BackToBackEdgesNoTransientMax)
{
    IrlpTracker t;
    // One write ends exactly when the next begins, on the same chips;
    // the maximum must not see them stacked.
    t.addOp(0, 0, 100, 0b1111, true);
    t.addOp(0, 100, 200, 0b1111, true);
    t.finalize(300);
    EXPECT_EQ(t.maxSeen(), 4u);
    EXPECT_DOUBLE_EQ(t.mean(), 4.0);
}

TEST(Irlp, ZeroChipOpsExtendWindowOnly)
{
    // The PCC step of a two-step write: a write window with no data
    // chips active dilutes the mean.
    IrlpTracker t;
    t.addOp(0, 0, 100, 0b0001, true);
    t.addOp(0, 100, 200, 0, true);
    t.finalize(300);
    EXPECT_DOUBLE_EQ(t.writeWindowTicks(), 200.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.5);
}

TEST(Irlp, MaxNeverExceedsChipCount)
{
    IrlpTracker t;
    for (int i = 0; i < 20; ++i)
        t.addOp(0, 0, 100, kAllChips, i == 0);
    t.finalize(200);
    EXPECT_LE(t.maxSeen(), kChipsPerRank);
    EXPECT_DOUBLE_EQ(t.mean(), kChipsPerRank);
}

TEST(Irlp, ZeroDurationOpsIgnored)
{
    IrlpTracker t;
    t.addOp(0, 50, 50, 0b1111, true);
    t.finalize(100);
    EXPECT_EQ(t.writeWindowTicks(), 0.0);
}

/** Tracker state the metric reports, for comparing two trackers. */
void
expectSameIntegral(const IrlpTracker &a, const IrlpTracker &b)
{
    EXPECT_DOUBLE_EQ(a.writeWindowTicks(), b.writeWindowTicks());
    EXPECT_DOUBLE_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.maxSeen(), b.maxSeen());
}

TEST(Irlp, WriteCancelledMidwayIntegratesAsAShorterWrite)
{
    // A write on chips 0-2 over [10, 100) is cancelled at tick 40 and
    // releases at 50; a read on chips 3-4 overlaps its cut-off tail.
    IrlpTracker cancelled;
    cancelled.addOp(0, 10, 100, 0b00111, true);
    cancelled.addOp(5, 30, 80, 0b11000, false);
    cancelled.truncateWrite(40, 10, 100, 50, 0b00111);
    cancelled.finalize(200);

    IrlpTracker shorter;
    shorter.addOp(0, 10, 50, 0b00111, true);
    shorter.addOp(5, 30, 80, 0b11000, false);
    shorter.finalize(200);

    expectSameIntegral(cancelled, shorter);
    EXPECT_DOUBLE_EQ(cancelled.writeWindowTicks(), 40.0);
    // [10, 30): 3 chips; [30, 50): 5 chips.
    EXPECT_DOUBLE_EQ(cancelled.mean(), (3.0 * 20 + 5.0 * 20) / 40.0);
}

TEST(Irlp, WriteCancelledBeforeItStartsNeverRan)
{
    // Cancelled at 20 with a release before its start: the op is cut
    // to [60, 60) and its begin and end edges share a tick.
    IrlpTracker cancelled;
    cancelled.addOp(0, 60, 100, 0b0110, true);
    cancelled.truncateWrite(20, 60, 100, 20, 0b0110);
    cancelled.addOp(30, 60, 90, 0b0001, true);
    cancelled.finalize(200);

    IrlpTracker never;
    never.addOp(30, 60, 90, 0b0001, true);
    never.finalize(200);

    expectSameIntegral(cancelled, never);
    EXPECT_DOUBLE_EQ(cancelled.writeWindowTicks(), 30.0);
}

TEST(Irlp, CutOnAnotherOpsEdgesKeepsCountsNonNegative)
{
    // The re-issued remainder on the same chips begins at the cut and
    // ends at the cancelled op's old end: at tick 100 two end edges
    // and the cancelling begin edge share a tick, and no order of
    // them may drive a chip count or the write count below zero.
    IrlpTracker cancelled;
    cancelled.addOp(0, 0, 100, 0b0011, true);
    cancelled.truncateWrite(20, 0, 100, 40, 0b0011);
    cancelled.addOp(30, 40, 100, 0b0011, true);
    cancelled.finalize(200);

    IrlpTracker shorter;
    shorter.addOp(0, 0, 40, 0b0011, true);
    shorter.addOp(30, 40, 100, 0b0011, true);
    shorter.finalize(200);

    expectSameIntegral(cancelled, shorter);
    EXPECT_DOUBLE_EQ(cancelled.writeWindowTicks(), 100.0);
    EXPECT_DOUBLE_EQ(cancelled.mean(), 2.0);
}

} // namespace
} // namespace pcmap
