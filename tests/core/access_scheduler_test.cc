/**
 * @file
 * Unit tests for the AccessScheduler policy: FR-FCFS/FCFS read
 * planning against a hand-built bank state, the RoW scheduler's
 * speculative plans (deferred ECC, PCC reconstruction) and their
 * gating, oldest-first write selection, and the drain/page-policy
 * queries the controller delegates.
 */

#include <gtest/gtest.h>

#include "core/policy/access_scheduler.h"
#include "core/policy/line_layout.h"
#include "mem/address.h"
#include "mem/rank.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

/** Deterministic stand-in for the controller's window arithmetic. */
class FixedWindowModel final : public ReadWindowModel
{
  public:
    void
    computeReadWindow(ChipMask chips, unsigned bank, std::uint64_t row,
                      Tick lower_bound, bool row_hit, Tick &start,
                      Tick &end) const override
    {
        (void)chips;
        (void)bank;
        (void)row;
        start = lower_bound;
        end = lower_bound + (row_hit ? 50 : 100);
    }
};

class SchedulerTest : public ::testing::Test
{
  protected:
    SchedulerTest()
    {
        ranks.emplace_back(geom.banksPerRank, /*has_pcc=*/true, &epoch);
        cfg.banksPerRank = geom.banksPerRank;
    }

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

    ReadEntry
    makeRead(std::uint64_t addr) const
    {
        ReadEntry e;
        e.req.type = ReqType::Read;
        e.req.addr = addr;
        e.prime(mapper, nr);
        return e;
    }

    /** Open @p row in @p bank across every chip in @p chips. */
    void
    openRow(ChipMask chips, unsigned bank, std::uint64_t row)
    {
        for (unsigned c = 0; c < kChipsPerRank; ++c) {
            if (chips & (1u << c))
                ranks[0].reserveChip(c, bank, row, 0, 0, false);
        }
    }

    MemGeometry geom{};
    AddressMapper mapper{geom};
    ControllerConfig cfg = controllerFor(presets::RoW_NR);
    std::uint64_t epoch = 0;
    std::vector<Rank> ranks;
    BankStateView view{ranks, epoch};
    IdentityLayout nr{/*has_pcc=*/true};
    FixedWindowModel windows;
};

TEST_F(SchedulerTest, FrFcfsPrefersRowHitAtEqualStart)
{
    const FrFcfsScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 7, 0)));
    q.push_back(makeRead(addrAt(1, 3, 0)));

    const std::uint64_t line1 = mapper.lineAddr(q[1].req.addr);
    const ChipMask inline1 =
        nr.dataChips(line1) |
        static_cast<ChipMask>(1u << nr.eccChip(line1));
    openRow(inline1, /*bank=*/1, /*row=*/3);

    const ReadPlan plan =
        sched.planRead(q, view, windows, /*now=*/100,
                       /*immediate_only=*/false, /*pending_verifies=*/0);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.index, 1u) << "row hit beats the older miss";
    EXPECT_TRUE(plan.rowHit);
    EXPECT_EQ(plan.start, 100u);
    EXPECT_FALSE(plan.speculative);
}

TEST_F(SchedulerTest, StrictFcfsConsidersOnlyTheOldestRead)
{
    ControllerConfig fcfs = cfg;
    fcfs.readScheduling = ReadScheduling::Fcfs;
    const FrFcfsScheduler sched(fcfs, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 7, 0)));
    q.push_back(makeRead(addrAt(1, 3, 0)));
    openRow(~ChipMask{0}, 1, 3);

    const ReadPlan plan =
        sched.planRead(q, view, windows, 100, false, 0);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.index, 0u)
        << "the younger row hit must not jump the queue under FCFS";
}

TEST_F(SchedulerTest, ImmediateOnlyRejectsBlockedPlansAndMarksDelay)
{
    const FrFcfsScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 0, 0)));

    // Every chip of bank 0 is mid-write until tick 500.
    for (unsigned c = 0; c < kChipsPerRank; ++c)
        ranks[0].reserveChip(c, 0, 0, 0, 500, /*is_write=*/true);

    const ReadPlan blocked =
        sched.planRead(q, view, windows, /*now=*/100,
                       /*immediate_only=*/true, 0);
    EXPECT_FALSE(blocked.feasible);
    EXPECT_TRUE(q[0].delayedByWrite)
        << "the entry must record that a write held it up";

    const ReadPlan waiting =
        sched.planRead(q, view, windows, 100, /*immediate_only=*/false,
                       0);
    ASSERT_TRUE(waiting.feasible);
    EXPECT_EQ(waiting.start, 500u);
    EXPECT_TRUE(q[0].delayedByWrite);
}

TEST_F(SchedulerTest, RowSchedulerDefersEccWhenOnlyEccChipIsBusy)
{
    const RowScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 0, 0)));
    const std::uint64_t line = mapper.lineAddr(q[0].req.addr);
    const unsigned ecc = nr.eccChip(line);
    ranks[0].reserveChip(ecc, 0, 0, 0, 1000, /*is_write=*/true);

    const ReadPlan plan =
        sched.planRead(q, view, windows, /*now=*/100, false, 0);
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.speculative);
    EXPECT_TRUE(plan.eccDeferred);
    EXPECT_FALSE(plan.reconstruct);
    EXPECT_EQ(plan.chips, nr.dataChips(line))
        << "only the data chips are read inline";
    EXPECT_EQ(plan.start, 100u) << "the read no longer waits for ECC";
}

TEST_F(SchedulerTest, RowSchedulerReconstructsAroundOneBusyDataChip)
{
    const RowScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 0, 0)));
    const std::uint64_t line = mapper.lineAddr(q[0].req.addr);
    const unsigned busy_chip = nr.chipForWord(line, 3);
    ranks[0].reserveChip(busy_chip, 0, 0, 0, 1000, /*is_write=*/true);

    const ReadPlan plan =
        sched.planRead(q, view, windows, /*now=*/100, false, 0);
    ASSERT_TRUE(plan.feasible);
    EXPECT_TRUE(plan.speculative);
    EXPECT_TRUE(plan.reconstruct);
    EXPECT_EQ(plan.busyChip, busy_chip);
    EXPECT_EQ(plan.missingWord, 3u);
    EXPECT_FALSE(plan.chips & (1u << busy_chip))
        << "the busy chip is not touched";
    EXPECT_TRUE(plan.chips & (1u << nr.pccChip(line)))
        << "reconstruction reads the PCC parity word";
    EXPECT_TRUE(plan.chips & (1u << nr.eccChip(line)));
    EXPECT_EQ(plan.start, 100u);
}

TEST_F(SchedulerTest, FrFcfsNeverSpeculates)
{
    const FrFcfsScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 0, 0)));
    const std::uint64_t line = mapper.lineAddr(q[0].req.addr);
    ranks[0].reserveChip(nr.eccChip(line), 0, 0, 0, 1000, true);

    const ReadPlan plan =
        sched.planRead(q, view, windows, 100, false, 0);
    ASSERT_TRUE(plan.feasible);
    EXPECT_FALSE(plan.speculative);
    EXPECT_EQ(plan.start, 1000u) << "waits for the ECC chip instead";
}

TEST_F(SchedulerTest, SpecBufferExhaustionDisablesSpeculation)
{
    const RowScheduler sched(cfg, mapper, nr);
    ReadQueue q;
    q.push_back(makeRead(addrAt(0, 0, 0)));
    const std::uint64_t line = mapper.lineAddr(q[0].req.addr);
    ranks[0].reserveChip(nr.eccChip(line), 0, 0, 0, 1000, true);

    const ReadPlan plan = sched.planRead(
        q, view, windows, 100, false,
        /*pending_verifies=*/cfg.specReadBufferCap);
    ASSERT_TRUE(plan.feasible);
    EXPECT_FALSE(plan.speculative)
        << "no buffer entry left to hold the unverified line";
    EXPECT_EQ(plan.start, 1000u);
}

TEST_F(SchedulerTest, SelectWritePicksOldestAmongFreeRanks)
{
    const FrFcfsScheduler sched(cfg, mapper, nr);
    WriteQueue q;
    WriteEntry a;
    a.req.type = ReqType::Write;
    a.req.addr = addrAt(0, 0, 0);
    a.prime(mapper);
    WriteEntry b = a;
    b.req.addr = addrAt(1, 0, 0);
    b.prime(mapper);
    q.push_back(a);
    q.push_back(b);

    std::vector<Tick> slot_free = {0};
    Tick soonest = 0;
    EXPECT_EQ(sched.selectWrite(q, slot_free, /*now=*/10, soonest), 0u);

    slot_free[0] = 400;
    EXPECT_EQ(sched.selectWrite(q, slot_free, 10, soonest), q.size())
        << "no rank has a free write slot";
    EXPECT_EQ(soonest, 400u) << "caller retries at the slot release";
}

TEST_F(SchedulerTest, DrainAndPagePolicyQueries)
{
    const FrFcfsScheduler conventional(cfg, mapper, nr);
    EXPECT_FALSE(conventional.servesReadsDuringDrain());

    const RowScheduler row(cfg, mapper, nr);
    EXPECT_TRUE(row.servesReadsDuringDrain());

    ControllerConfig no_drain_reads = cfg;
    no_drain_reads.serveReadsDuringDrain = false;
    const RowScheduler row_off(no_drain_reads, mapper, nr);
    EXPECT_FALSE(row_off.servesReadsDuringDrain());

    EXPECT_FALSE(conventional.closesRowAfterAccess());
    ControllerConfig closed = cfg;
    closed.pagePolicy = PagePolicy::Closed;
    const FrFcfsScheduler closer(closed, mapper, nr);
    EXPECT_TRUE(closer.closesRowAfterAccess());
}

} // namespace
} // namespace pcmap
