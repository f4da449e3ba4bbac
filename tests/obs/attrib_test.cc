/**
 * @file
 * Latency-attribution contracts:
 *
 *  - enabling per-request phase ledgers never changes simulation
 *    results — attribution observes completions, it never schedules
 *    or delays anything;
 *  - conservation: for every (tenant, op) family the phase spans sum
 *    to the enqueue->completion latency EXACTLY (in ticks, not
 *    approximately).  Writes conserve in-window even through the
 *    cancellation/redo path; speculative reads may carry an annex
 *    (verifyDefer/rollbackRedo past the completion tick), so their
 *    in-window phases alone must equal the total;
 *  - the unattributed residual bucket is zero: every tick of every
 *    request's latency is claimed by a named layer;
 *  - the attribution JSONL artifact is byte-identical at any sweep
 *    thread count, like every other obs file;
 *  - ledgers are recycled: a sampled or discarded ledger's slot is
 *    reused, a ref that outlived its ledger reaches nothing, and the
 *    slab stays bounded by the requests in flight, not the run length.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "core/system.h"
#include "fabric/fabric.h"
#include "obs/attrib.h"
#include "obs/observer.h"
#include "sweep/dist/atomic_file.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"

namespace pcmap {
namespace {

using obs::attrib::AttribCollector;
using obs::attrib::AttribOp;
using obs::attrib::kOpCount;
using obs::attrib::kPhaseCount;
using obs::attrib::LedgerRef;
using obs::attrib::Phase;
using obs::attrib::PhaseLedger;
using obs::attrib::TailExemplar;

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    presets::RWoW_RDE.applyTo(cfg.controller);
    cfg.instructionsPerCore = 6000;
    return cfg;
}

fabric::FabricConfig
twoTenantFabric()
{
    fabric::FabricConfig fab;
    fab.tenants.resize(2);
    for (unsigned t = 0; t < 2; ++t) {
        fabric::TenantSpec &ts = fab.tenants[t];
        ts.ratePerUs = 8.0;
        ts.arrival = fabric::ArrivalKind::Poisson;
        ts.qos = t == 0 ? fabric::QosClass::LatencySensitive
                        : fabric::QosClass::BestEffort;
        ts.requests = 2000;
    }
    // A real link so the linkWait phase is exercised, not bypassed.
    fab.linkGbps = 16.0;
    fab.linkNs = 20.0;
    return fab;
}

/** The org x tier x fabric matrix the conservation contract runs on. */
std::vector<SystemConfig>
configMatrix()
{
    std::vector<SystemConfig> out;
    for (const DeviceOrg org : {DeviceOrg::Slc, DeviceOrg::Qlc}) {
        for (const bool tier_on : {false, true}) {
            for (const bool fab_on : {false, true}) {
                SystemConfig cfg = baseConfig();
                cfg.controller.timing = PcmTiming::forOrg(org);
                if (tier_on)
                    // Small enough that dirty victims actually drain,
                    // populating the writeback family.
                    cfg.tier =
                        cache::tierConfigFromString("dram:64K:4:lru");
                if (fab_on)
                    cfg.fabric = twoTenantFabric();
                out.push_back(cfg);
            }
        }
    }
    return out;
}

SystemResults
runOnce(SystemConfig cfg, bool attrib, const System **sys_out,
        std::unique_ptr<System> &keep)
{
    cfg.obs.attrib = attrib;
    keep = std::make_unique<System>(
        cfg, workload::makeWorkload("streamcluster", cfg.numCores));
    if (sys_out != nullptr)
        *sys_out = keep.get();
    return keep->run();
}

TEST(AttribTest, AttributionNeverChangesResults)
{
    for (const SystemConfig &cfg : configMatrix()) {
        std::unique_ptr<System> a;
        std::unique_ptr<System> b;
        const SystemResults off = runOnce(cfg, false, nullptr, a);
        const SystemResults on = runOnce(cfg, true, nullptr, b);
        const std::string what =
            std::string(deviceOrgName(cfg.controller.timing.org)) +
            (cfg.tier.enabled() ? "+tier" : "") +
            (cfg.fabric.enabled() ? "+fabric" : "");
        EXPECT_EQ(off.simTicks, on.simTicks) << what;
        EXPECT_EQ(off.readsCompleted, on.readsCompleted) << what;
        EXPECT_EQ(off.writesCompleted, on.writesCompleted) << what;
        EXPECT_EQ(off.rowReads, on.rowReads) << what;
        EXPECT_EQ(off.deferredEccReads, on.deferredEccReads) << what;
        EXPECT_EQ(off.wowGroups, on.wowGroups) << what;
        EXPECT_EQ(off.wowMergedWrites, on.wowMergedWrites) << what;
        EXPECT_EQ(off.rollbacks, on.rollbacks) << what;
        EXPECT_EQ(off.ipcSum, on.ipcSum) << what;
        EXPECT_EQ(off.avgReadLatencyNs, on.avgReadLatencyNs) << what;
        EXPECT_EQ(off.writeThroughput, on.writeThroughput) << what;
        EXPECT_EQ(off.irlpMean, on.irlpMean) << what;
        EXPECT_EQ(off.irlpMax, on.irlpMax) << what;
        EXPECT_EQ(off.energyUj, on.energyUj) << what;
        EXPECT_EQ(off.instRetired, on.instRetired) << what;
        EXPECT_EQ(off.writeRoundsIssued, on.writeRoundsIssued) << what;
        EXPECT_EQ(off.writeRoundPauses, on.writeRoundPauses) << what;
    }
}

TEST(AttribTest, PhaseSumsConserveExactly)
{
    bool saw_read_family = false;
    bool saw_wb_family = false;
    for (const SystemConfig &cfg : configMatrix()) {
        std::unique_ptr<System> keep;
        const System *sys = nullptr;
        runOnce(cfg, true, &sys, keep);
        ASSERT_NE(sys->observer(), nullptr);
        const AttribCollector *col =
            sys->observer()->attribCollector();
        ASSERT_NE(col, nullptr);
        const std::string what =
            std::string(deviceOrgName(cfg.controller.timing.org)) +
            (cfg.tier.enabled() ? "+tier" : "") +
            (cfg.fabric.enabled() ? "+fabric" : "");

        EXPECT_GT(col->sampledCount(), 0u) << what;
        for (unsigned t = 0; t < col->tenants(); ++t) {
            for (std::size_t o = 0; o < kOpCount; ++o) {
                const auto op = static_cast<AttribOp>(o);
                const AttribCollector::PhaseHists &fam =
                    col->hists(t, op);
                if (fam.total.samples() == 0)
                    continue;
                const std::string who =
                    what + " t" + std::to_string(t) + " op" +
                    std::to_string(o);
                if (op == AttribOp::Read)
                    saw_read_family = true;
                if (op == AttribOp::Writeback)
                    saw_wb_family = true;

                // Every phase histogram sees exactly the family's
                // population: close() samples all phases per request.
                std::uint64_t all = 0;
                for (std::size_t p = 0; p < kPhaseCount; ++p) {
                    EXPECT_EQ(fam.phase[p].samples(),
                              fam.total.samples())
                        << who << " phase " << p;
                    all += fam.sumTicks[p];
                }

                // Nothing escapes the named layers.
                EXPECT_EQ(fam.sumTicks[static_cast<std::size_t>(
                              Phase::Unattributed)],
                          0u)
                    << who;

                // Conservation, exact in ticks.  Reads may carry an
                // annex past completion (deferred verify); everything
                // else conserves in-window, including cancelled
                // writes whose redo lands in rollbackRedo.
                const std::uint64_t annex =
                    fam.sumTicks[static_cast<std::size_t>(
                        Phase::VerifyDefer)] +
                    fam.sumTicks[static_cast<std::size_t>(
                        Phase::RollbackRedo)];
                if (op == AttribOp::Read) {
                    EXPECT_EQ(all - annex, fam.totalSumTicks) << who;
                } else {
                    EXPECT_EQ(all, fam.totalSumTicks) << who;
                }
            }
        }

        // The same rule holds per request on the tail exemplars.
        for (const TailExemplar &ex : col->exemplars()) {
            Tick all = 0;
            for (std::size_t p = 0; p < kPhaseCount; ++p)
                all += ex.spans[p];
            const Tick annex =
                ex.spans[static_cast<std::size_t>(
                    Phase::VerifyDefer)] +
                ex.spans[static_cast<std::size_t>(
                    Phase::RollbackRedo)];
            EXPECT_EQ(ex.spans[static_cast<std::size_t>(
                          Phase::Unattributed)],
                      0u)
                << what;
            if (ex.op == AttribOp::Read)
                EXPECT_EQ(all - annex, ex.total) << what;
            else
                EXPECT_EQ(all, ex.total) << what;
        }
    }
    // The matrix must actually exercise the interesting families.
    EXPECT_TRUE(saw_read_family);
    EXPECT_TRUE(saw_wb_family);
}

TEST(AttribTest, TenantAttributionFollowsTheFabricPartition)
{
    SystemConfig cfg = baseConfig();
    cfg.fabric = twoTenantFabric();
    std::unique_ptr<System> keep;
    const System *sys = nullptr;
    runOnce(cfg, true, &sys, keep);
    const AttribCollector *col = sys->observer()->attribCollector();
    ASSERT_NE(col, nullptr);
    ASSERT_EQ(col->tenants(), 2u);
    // Both tenants stream reads, so both read families are populated.
    EXPECT_GT(col->hists(0, AttribOp::Read).total.samples(), 0u);
    EXPECT_GT(col->hists(1, AttribOp::Read).total.samples(), 0u);
}

TEST(AttribTest, AttribJsonlIsThreadCountInvariant)
{
    sweep::SweepSpec spec;
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.workloads = {"MP1", "streamcluster"};
    spec.configs[0].base.instructionsPerCore = 3000;
    spec.configs[0].base.tier =
        cache::tierConfigFromString("dram:1M:4:lru");
    spec.configs[0].base.fabric = twoTenantFabric();

    auto runAt = [&spec](unsigned threads, const std::string &prefix) {
        sweep::SweepRunner::Options opts;
        opts.threads = threads;
        opts.collectStats = true;
        opts.obs.attrib = true;
        opts.obsPathPrefix = prefix;
        return sweep::SweepRunner(opts).run(spec);
    };
    const std::string p1 = ::testing::TempDir() + "attribdet_t1";
    const std::string p8 = ::testing::TempDir() + "attribdet_t8";
    const sweep::SweepReport r1 = runAt(1, p1);
    const sweep::SweepReport r8 = runAt(8, p8);
    ASSERT_EQ(r1.rows.size(), 4u);
    ASSERT_EQ(r8.rows.size(), 4u);

    for (unsigned i = 0; i < 4; ++i) {
        const std::string point =
            ".point" + std::to_string(i) + ".attrib.jsonl";
        const std::string f1 = sweep::dist::readFile(p1 + point);
        const std::string f8 = sweep::dist::readFile(p8 + point);
        ASSERT_FALSE(f1.empty()) << "point " << i;
        EXPECT_EQ(f1, f8) << "attrib jsonl for point " << i;
        // The flattened attrib.* stat columns agree as well.
        EXPECT_EQ(r1.rows[i].stats, r8.rows[i].stats)
            << "stats for point " << i;
    }
}

// --- Ledger slab ------------------------------------------------------

TEST(AttribSlab, SampledSlotIsReusedUnderANewGeneration)
{
    AttribCollector col(0);
    const LedgerRef a = col.open(AttribOp::Read, 0, 1, 100);
    ASSERT_TRUE(a);
    col.account(a, Phase::BankWait, 150);
    col.close(a, 200); // not held: samples and frees the slot
    EXPECT_EQ(col.sampledCount(), 1u);
    EXPECT_EQ(col.liveLedgers(), 0u);
    EXPECT_EQ(col.find(a), nullptr);

    const LedgerRef b = col.open(AttribOp::Write, 0, 2, 300);
    EXPECT_EQ(b.slot, a.slot);
    EXPECT_NE(b.generation, a.generation);
    EXPECT_EQ(col.slabSlots(), 1u);
    const PhaseLedger *led = col.find(b);
    ASSERT_NE(led, nullptr);
    EXPECT_EQ(led->startTick(), 300u);
    EXPECT_EQ(led->reqId(), 2u);
    EXPECT_EQ(led->op(), AttribOp::Write);
    for (std::size_t p = 0; p < kPhaseCount; ++p)
        EXPECT_EQ(led->span(static_cast<Phase>(p)), 0u) << p;
}

TEST(AttribSlab, StaleRefCallsLeaveTheNewLedgerAlone)
{
    AttribCollector col(0);
    const LedgerRef old = col.open(AttribOp::Read, 0, 1, 0);
    col.close(old, 50);
    const LedgerRef cur = col.open(AttribOp::Read, 0, 2, 100);
    ASSERT_EQ(cur.slot, old.slot);
    col.account(cur, Phase::QueueResidency, 120);

    const PhaseLedger *led = col.find(cur);
    ASSERT_NE(led, nullptr);
    std::array<Tick, kPhaseCount> spans{};
    auto snapshot = [&] {
        for (std::size_t p = 0; p < kPhaseCount; ++p)
            spans[p] = led->span(static_cast<Phase>(p));
    };
    auto unchanged = [&](const char *call) {
        for (std::size_t p = 0; p < kPhaseCount; ++p)
            EXPECT_EQ(led->span(static_cast<Phase>(p)), spans[p])
                << call << " phase " << p;
        EXPECT_EQ(col.sampledCount(), 1u) << call;
        EXPECT_EQ(col.discardedCount(), 0u) << call;
        EXPECT_EQ(col.liveLedgers(), 1u) << call;
        EXPECT_EQ(col.find(cur), led) << call;
    };
    snapshot();

    col.account(old, Phase::ArrayAccess, 200);
    unchanged("account");
    col.close(old, 210);
    unchanged("close");
    col.holdForVerify(old);
    unchanged("holdForVerify");
    col.finishSpec(old, 220, /*fault=*/true);
    unchanged("finishSpec");
    col.discard(old);
    unchanged("discard");

    // The stale holdForVerify did not hold the live ledger: closing
    // it samples at once, with the cursor where the live calls left it.
    col.account(cur, Phase::ArrayAccess, 300);
    col.close(cur, 300);
    EXPECT_EQ(col.sampledCount(), 2u);
    EXPECT_EQ(col.liveLedgers(), 0u);
    const AttribCollector::PhaseHists &fam = col.hists(0, AttribOp::Read);
    EXPECT_EQ(fam.totalSumTicks, 50u + 200u);
    EXPECT_EQ(fam.sumTicks[static_cast<std::size_t>(Phase::ArrayAccess)],
              180u);
    EXPECT_EQ(fam.sumTicks[static_cast<std::size_t>(Phase::RollbackRedo)],
              0u);
}

TEST(AttribSlab, EnsureKeepsAStaleRefAndOpensNothing)
{
    struct Req
    {
        unsigned coreId = 0;
        std::uint64_t id = 7;
        LedgerRef ledger;
    };
    AttribCollector col(0);
    Req req;
    const LedgerRef first = col.ensure(req, 10, AttribOp::Read);
    ASSERT_TRUE(first);
    col.discard(first);
    EXPECT_EQ(col.find(req.ledger), nullptr);

    const LedgerRef again = col.ensure(req, 20, AttribOp::Read);
    EXPECT_EQ(again.slot, first.slot);
    EXPECT_EQ(again.generation, first.generation);
    EXPECT_EQ(col.liveLedgers(), 0u);
    EXPECT_EQ(col.slabSlots(), 1u);
}

TEST(AttribSlab, FinalizeDiscardsEachLiveLedgerOnce)
{
    AttribCollector col(0);
    std::vector<LedgerRef> refs;
    for (std::uint64_t i = 0; i < 6; ++i)
        refs.push_back(col.open(AttribOp::Read, 0, i, 0));
    col.close(refs[0], 10);  // sampled
    col.close(refs[1], 10);  // sampled
    col.discard(refs[2]);    // discarded
    col.holdForVerify(refs[3]);
    col.close(refs[3], 10);  // closed, held for its verify: live
    // refs[4] and refs[5] stay open.
    ASSERT_EQ(col.liveLedgers(), 3u);

    col.finalize();
    EXPECT_EQ(col.sampledCount(), 2u);
    EXPECT_EQ(col.discardedCount(), 1u + 3u);
    EXPECT_EQ(col.liveLedgers(), 0u);
    for (const LedgerRef r : refs)
        EXPECT_EQ(col.find(r), nullptr);

    col.finalize();
    EXPECT_EQ(col.discardedCount(), 4u);
    EXPECT_EQ(col.hists(0, AttribOp::Read).total.samples(), 2u);
}

/**
 * The full stack at org=qlc: a closed-loop tenant of cores and an
 * open-loop Poisson tenant whose budget outlasts the run share a
 * queued link in front of a small DRAM tier.
 */
SystemConfig
fullStackConfig(std::uint64_t insts, std::uint64_t requests)
{
    SystemConfig cfg = baseConfig();
    cfg.controller.timing = PcmTiming::forOrg(DeviceOrg::Qlc);
    cfg.instructionsPerCore = insts;
    cfg.tier = cache::tierConfigFromString("dram:64K:4:lru");
    cfg.fabric = twoTenantFabric();
    cfg.fabric.tenants[0] = fabric::TenantSpec{};
    cfg.fabric.tenants[1].requests = requests;
    cfg.obs.attrib = true;
    return cfg;
}

/** Slab high-water mark of one full-stack run. */
std::size_t
slabHighWater(const SystemConfig &cfg)
{
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    sys.run();
    const AttribCollector *col = sys.observer()->attribCollector();
    EXPECT_EQ(col->liveLedgers(), 0u); // finalize() dropped the rest
    // Far more ledgers than the slab ever held at once went through it.
    EXPECT_GT(col->sampledCount() + col->discardedCount(),
              20 * col->slabSlots());
    return col->slabSlots();
}

/**
 * The most requests that can hold a ledger at once: each one waits in
 * a link queue, a tier MSHR or write-back buffer slot, or a
 * controller's read, write or speculative-read buffer, or is one of a
 * closed-loop core's outstanding reads below those.
 */
std::size_t
inFlightBound(const SystemConfig &cfg)
{
    std::size_t bound = cfg.fabric.tenants.size() * cfg.fabric.queueCap;
    bound += cfg.tier.mshrCap + cfg.tier.wbBufferCap;
    bound += cfg.geometry.channels *
             (cfg.controller.readQueueCap + cfg.controller.writeQueueCap +
              cfg.controller.specReadBufferCap);
    bound += static_cast<std::size_t>(cfg.numCores) *
             cfg.core.maxOutstandingReads;
    return bound;
}

TEST(AttribTest, LedgerSlabStaysBoundedByRequestsInFlight)
{
    for (const ControllerPolicy &mode :
         {presets::Baseline, presets::RWoW_RDE}) {
        SystemConfig small = fullStackConfig(100'000, 10'000);
        mode.applyTo(small.controller);
        SystemConfig large = small;
        large.instructionsPerCore *= 4;
        large.fabric.tenants[1].requests *= 4;

        const std::size_t bound = inFlightBound(small);
        const std::size_t n = slabHighWater(small);
        const std::size_t n4 = slabHighWater(large);
        EXPECT_LE(n, bound) << mode.label();
        EXPECT_LE(n4, bound) << mode.label();
        // A longer run only meets a rarer in-flight peak; a ledger
        // leaked once in a few hundred requests would grow the slab
        // with the 4x run length instead.
        EXPECT_LE(n4, n + n / 4) << mode.label();
    }
}

} // namespace
} // namespace pcmap
