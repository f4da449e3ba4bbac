/**
 * @file
 * Differential test of the scheduler's kept read plans.
 *
 * FrFcfsScheduler::planRead keeps each queued read's plan in its
 * PlanRecord and re-plans only stale records.  This test drives seeded
 * random sequences of rank mutations (reserveChip, abortWrite,
 * closeRow), bus occupancy (the read windows' floors), queue appends
 * and erases, spec-buffer changes and time steps, and at every step
 * compares planRead on the live queue against planRead on a copy whose
 * records are reset: the plans must agree in every field, the entries
 * in their delayedByWrite marks, and the SpecPlan trace records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/channel_buses.h"
#include "core/policy/access_scheduler.h"
#include "core/policy/line_layout.h"
#include "mem/address.h"
#include "mem/rank.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

struct Variant
{
    const char *name;
    bool row;   ///< RoW scheduler (speculative plans)
    bool fcfs;  ///< strict FCFS instead of FR-FCFS
    bool pcc;   ///< rank has the PCC chip (RDE layout) or not
};

// gtest lists a parameter it cannot print as its raw bytes, which here
// include the address of the name string and so change from run to run.
void
PrintTo(const Variant &v, std::ostream *os)
{
    *os << v.name;
}

std::string
variantName(const ::testing::TestParamInfo<Variant> &info)
{
    return info.param.name;
}

class PlanCache : public ::testing::TestWithParam<Variant>
{
  protected:
    static constexpr unsigned kBanks = 2; ///< banks the traffic uses
    static constexpr unsigned kRows = 2;  ///< rows per bank it uses

    PlanCache()
    {
        const Variant &v = GetParam();
        cfg = controllerFor(v.row ? presets::RWoW_RDE : presets::Baseline);
        cfg.readScheduling =
            v.fcfs ? ReadScheduling::Fcfs : ReadScheduling::FrFcfs;
        if (v.pcc)
            layout = std::make_unique<RotateDataEccLayout>();
        else
            layout = std::make_unique<IdentityLayout>(false);
        ranks.emplace_back(geom.banksPerRank, v.pcc, &epoch);
    }

    std::unique_ptr<AccessScheduler>
    makeScheduler() const
    {
        if (GetParam().row)
            return std::make_unique<RowScheduler>(cfg, mapper, *layout);
        return std::make_unique<FrFcfsScheduler>(cfg, mapper, *layout);
    }

    ReadEntry
    makeRead(Rng &rng, ReqId id) const
    {
        DecodedAddr loc;
        loc.bank = static_cast<unsigned>(rng.below(kBanks));
        loc.row = rng.below(kRows);
        loc.column = static_cast<unsigned>(rng.below(16));
        ReadEntry e;
        e.req.type = ReqType::Read;
        e.req.id = id;
        e.req.addr = mapper.encode(loc);
        e.prime(mapper, *layout);
        return e;
    }

    /** A random chip mask: one chip, a coarse footprint or any. */
    ChipMask
    randomMask(Rng &rng) const
    {
        const ChipMask present = static_cast<ChipMask>(
            (1u << ranks[0].chips()) - 1u);
        switch (rng.below(3)) {
        case 0:
            return static_cast<ChipMask>(
                1u << rng.below(ranks[0].chips()));
        case 1:
            return static_cast<ChipMask>((1u << (kDataChips + 1)) - 1u);
        default: {
            const ChipMask m =
                static_cast<ChipMask>(rng.next()) & present;
            return m != 0 ? m : ChipMask{1};
        }
        }
    }

    /** Apply one random step to the timing state, queue or clock. */
    void
    step(Rng &rng)
    {
        const Tick cyc = cfg.timing.cycles(1);
        Rank &rank = ranks[0];
        const unsigned bank = static_cast<unsigned>(rng.below(kBanks));
        const unsigned chip =
            static_cast<unsigned>(rng.below(rank.chips()));
        switch (rng.below(10)) {
        case 0:
        case 1: {
            const ChipMask chips = randomMask(rng);
            const Tick start = std::max(now, rank.freeAt(chips, bank)) +
                               rng.below(4) * cyc;
            const Tick end = start + rng.between(1, 120) * cyc;
            const bool is_write = rng.below(2) == 0;
            const std::uint64_t row = rng.below(kRows);
            forEachSetBit(chips, [&](unsigned c) {
                rank.reserveChip(c, bank, row, start, end, is_write);
            });
            break;
        }
        case 2:
            rank.abortWrite(chip, bank, now + rng.below(3) * 8 * cyc);
            break;
        case 3:
            rank.closeRow(chip, bank);
            break;
        case 4:
            buses.occupy(randomMask(rng), now + rng.below(40) * cyc,
                         rng.below(2) == 0);
            break;
        case 5:
            if (queue.size() < cfg.readQueueCap)
                queue.push_back(makeRead(rng, nextId++));
            break;
        case 6:
            if (!queue.empty()) {
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.below(queue.size())));
            }
            break;
        case 7:
            pendingVerifies = static_cast<unsigned>(
                rng.below(cfg.specReadBufferCap + 2));
            break;
        default: {
            // Time steps, often landing exactly on (or just before) a
            // tick where some chip of a bank frees up.
            const Tick change = rank.nextBusyChange(bank, now);
            switch (rng.below(4)) {
            case 0:
                now += rng.below(2);
                break;
            case 1:
                now += rng.below(30) * cyc;
                break;
            default:
                if (change != kTickMax)
                    now = change - (rng.below(2) == 0 ? 1 : 0);
                break;
            }
            break;
        }
        }
    }

    MemGeometry geom{};
    AddressMapper mapper{geom};
    ControllerConfig cfg;
    std::unique_ptr<LineLayout> layout;
    std::uint64_t epoch = 0;
    std::vector<Rank> ranks;
    BankStateView view{ranks, epoch};
    ChannelBuses buses{cfg.timing, epoch};

    ReadQueue queue;
    Tick now = 0;
    unsigned pendingVerifies = 0;
    ReqId nextId = 1;
};

std::vector<obs::TraceEvent>
drain(obs::TraceRecorder &rec)
{
    std::vector<obs::TraceEvent> out;
    rec.ring().forEach(
        [&](const obs::TraceEvent &e) { out.push_back(e); });
    rec.ring().clear();
    return out;
}

TEST_P(PlanCache, KeptPlansEqualFreshPlans)
{
    const std::unique_ptr<AccessScheduler> live = makeScheduler();
    const std::unique_ptr<AccessScheduler> fresh = makeScheduler();
    obs::TraceRecorder live_trace(1024);
    obs::TraceRecorder fresh_trace(1024);
    live->setTrace(&live_trace, 0);
    fresh->setTrace(&fresh_trace, 0);

    unsigned kept = 0;      // entries planned from a kept record
    unsigned spec_plans = 0;
    unsigned feasible = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed);
        for (unsigned s = 0; s < 3000; ++s) {
            step(rng);
            SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                         std::to_string(s));

            ReadQueue reset = queue;
            for (ReadEntry &e : reset)
                e.record = PlanRecord{};
            const std::size_t scanned =
                GetParam().fcfs ? std::min<std::size_t>(1, queue.size())
                                : queue.size();
            for (std::size_t i = 0; i < scanned; ++i) {
                const PlanRecord &r = queue[i].record;
                if (r.epoch == view.epoch() && now < r.expireAt)
                    ++kept;
            }

            const bool immediate = rng.below(4) == 0;
            const ReadPlan want = fresh->planRead(
                reset, view, buses, now, immediate, pendingVerifies);
            const ReadPlan got = live->planRead(
                queue, view, buses, now, immediate, pendingVerifies);

            ASSERT_EQ(got.feasible, want.feasible);
            ASSERT_EQ(got.index, want.index);
            ASSERT_EQ(got.rank, want.rank);
            ASSERT_EQ(got.start, want.start);
            ASSERT_EQ(got.end, want.end);
            ASSERT_EQ(got.chips, want.chips);
            ASSERT_EQ(got.rowHit, want.rowHit);
            ASSERT_EQ(got.speculative, want.speculative);
            ASSERT_EQ(got.reconstruct, want.reconstruct);
            ASSERT_EQ(got.missingWord, want.missingWord);
            ASSERT_EQ(got.busyChip, want.busyChip);
            ASSERT_EQ(got.eccDeferred, want.eccDeferred);
            ASSERT_EQ(queue.size(), reset.size());
            for (std::size_t i = 0; i < queue.size(); ++i) {
                ASSERT_EQ(queue[i].delayedByWrite,
                          reset[i].delayedByWrite)
                    << "entry " << i;
            }

            const std::vector<obs::TraceEvent> got_ev = drain(live_trace);
            const std::vector<obs::TraceEvent> want_ev =
                drain(fresh_trace);
            ASSERT_EQ(got_ev.size(), want_ev.size());
            for (std::size_t i = 0; i < got_ev.size(); ++i) {
                ASSERT_EQ(got_ev[i].point, want_ev[i].point);
                ASSERT_EQ(got_ev[i].ts, want_ev[i].ts);
                ASSERT_EQ(got_ev[i].id, want_ev[i].id);
                ASSERT_EQ(got_ev[i].arg0, want_ev[i].arg0);
                ASSERT_EQ(got_ev[i].arg1, want_ev[i].arg1);
                ASSERT_EQ(got_ev[i].bank, want_ev[i].bank);
            }

            if (got.feasible)
                ++feasible;
            if (got.feasible && got.speculative)
                ++spec_plans;
        }
        // Each seed starts from an empty queue on the state left over.
        queue.clear();
    }

    // The sequences must actually exercise what they check.
    EXPECT_GT(kept, 10000u) << "few plans were kept across passes";
    EXPECT_GT(feasible, 20000u);
    if (GetParam().row) {
        EXPECT_GT(spec_plans, 200u) << "few speculative plans exercised";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, PlanCache,
    ::testing::Values(Variant{"frfcfs", false, false, false},
                      Variant{"fcfs", false, true, false},
                      Variant{"row", true, false, true},
                      Variant{"row_fcfs", true, true, true}),
    variantName);

} // namespace
} // namespace pcmap
