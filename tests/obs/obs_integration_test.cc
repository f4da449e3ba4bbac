/**
 * @file
 * End-to-end observability contracts:
 *
 *  - enabling tracing + epoch sampling never changes simulation
 *    results (the epoch sampler is cancelled before it can extend
 *    simulated time);
 *  - the final timeline sample restates the run's aggregate results
 *    exactly — IRLP mean/max, RoW/WoW rates and write throughput
 *    recompute bit-for-bit;
 *  - timeline JSONL round-trips every value exactly;
 *  - per-point sweep obs files are byte-identical at any thread
 *    count (the determinism contract extended to trace artifacts).
 */

#include <gtest/gtest.h>

#include <string>

#include "core/system.h"
#include "obs/json_mini.h"
#include "obs/observer.h"
#include "sweep/dist/atomic_file.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"

namespace pcmap {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    presets::RWoW_RDE.applyTo(cfg.controller);
    cfg.instructionsPerCore = 6000;
    return cfg;
}

std::unique_ptr<System>
makeSystem(const SystemConfig &cfg)
{
    return std::make_unique<System>(
        cfg, workload::makeWorkload("streamcluster", cfg.numCores));
}

TEST(ObsIntegrationTest, ObservabilityNeverChangesResults)
{
    SystemConfig plain = baseConfig();
    System a(plain, workload::makeWorkload("streamcluster",
                                           plain.numCores));
    const SystemResults off = a.run();

    SystemConfig traced = baseConfig();
    traced.obs.trace = true;
    traced.obs.epochTicks = 1'000'000; // 1 us: several epochs
    System b(traced, workload::makeWorkload("streamcluster",
                                            traced.numCores));
    const SystemResults on = b.run();

    // Bitwise-identical results: the sampler reads state but never
    // advances time.  (Host event counters legitimately differ — the
    // epoch events themselves execute.)
    EXPECT_EQ(off.simTicks, on.simTicks);
    EXPECT_EQ(off.readsCompleted, on.readsCompleted);
    EXPECT_EQ(off.writesCompleted, on.writesCompleted);
    EXPECT_EQ(off.rowReads, on.rowReads);
    EXPECT_EQ(off.deferredEccReads, on.deferredEccReads);
    EXPECT_EQ(off.wowGroups, on.wowGroups);
    EXPECT_EQ(off.wowMergedWrites, on.wowMergedWrites);
    EXPECT_EQ(off.rollbacks, on.rollbacks);
    EXPECT_EQ(off.ipcSum, on.ipcSum);
    EXPECT_EQ(off.avgReadLatencyNs, on.avgReadLatencyNs);
    EXPECT_EQ(off.writeThroughput, on.writeThroughput);
    EXPECT_EQ(off.irlpMean, on.irlpMean);
    EXPECT_EQ(off.irlpMax, on.irlpMax);
    EXPECT_EQ(off.energyUj, on.energyUj);
    EXPECT_EQ(off.instRetired, on.instRetired);
}

TEST(ObsIntegrationTest, ObservabilityIsInvariantForEveryDeviceOrg)
{
    // The multi-round write path (round chaining, boundary
    // pause/cancel) schedules its own continuation events; the epoch
    // sampler must stay invisible to it for every organization, with
    // cancellation enabled so the round-boundary abort path runs.
    // Two configs per org: the RWoW-RDE preset covers the fine-grained
    // round-chaining path, the Baseline + write-cancellation config
    // covers the coarse round-boundary abort path (cancellation only
    // exists on the conventional-DIMM baseline).
    std::vector<SystemConfig> bases(2, baseConfig());
    presets::Baseline.applyTo(bases[1].controller);
    bases[1].controller.enableWriteCancellation = true;
    for (const SystemConfig &base : bases)
    for (const DeviceOrg org : kAllOrgs) {
        SystemConfig plain = base;
        plain.controller.timing = PcmTiming::forOrg(org);
        System a(plain, workload::makeWorkload("streamcluster",
                                               plain.numCores));
        const SystemResults off = a.run();

        SystemConfig traced = plain;
        traced.obs.trace = true;
        traced.obs.epochTicks = 1'000'000;
        System b(traced, workload::makeWorkload("streamcluster",
                                                traced.numCores));
        const SystemResults on = b.run();

        EXPECT_EQ(off.simTicks, on.simTicks) << deviceOrgName(org);
        EXPECT_EQ(off.readsCompleted, on.readsCompleted)
            << deviceOrgName(org);
        EXPECT_EQ(off.writesCompleted, on.writesCompleted)
            << deviceOrgName(org);
        EXPECT_EQ(off.avgReadLatencyNs, on.avgReadLatencyNs)
            << deviceOrgName(org);
        EXPECT_EQ(off.energyUj, on.energyUj) << deviceOrgName(org);
        EXPECT_EQ(off.writeRoundsIssued, on.writeRoundsIssued)
            << deviceOrgName(org);
        EXPECT_EQ(off.writeRoundPauses, on.writeRoundPauses)
            << deviceOrgName(org);
        if (org == DeviceOrg::Slc) {
            EXPECT_EQ(off.writeRoundsIssued, 0u)
                << "single-round orgs must not count rounds";
        } else {
            EXPECT_GT(off.writeRoundsIssued, 0u) << deviceOrgName(org);
        }
    }
}

TEST(ObsIntegrationTest, FinalSampleRestatesAggregateResultsExactly)
{
    SystemConfig cfg = baseConfig();
    cfg.obs.trace = true;
    cfg.obs.epochTicks = 1'000'000;
    const auto sys = makeSystem(cfg);
    const SystemResults res = sys->run();

    ASSERT_NE(sys->observer(), nullptr);
    const obs::Timeline &tl = sys->observer()->timeline();
    ASSERT_GE(tl.size(), 2u) << "expected intermediate + final samples";
    const obs::TimelineSample &last = tl.back();

    // The run must exercise the mechanisms whose rates we recompute.
    ASSERT_GT(res.readsCompleted, 0u);
    ASSERT_GT(res.writesCompleted, 0u);
    ASSERT_GT(res.wowMergedWrites, 0u);
    ASSERT_GT(res.rowReads + res.deferredEccReads, 0u);

    EXPECT_EQ(last.tick, res.simTicks);
    EXPECT_EQ(last.readsCompleted, res.readsCompleted);
    EXPECT_EQ(last.writesCompleted, res.writesCompleted);
    EXPECT_EQ(last.rowReads, res.rowReads);
    EXPECT_EQ(last.deferredEccReads, res.deferredEccReads);
    EXPECT_EQ(last.wowGroups, res.wowGroups);
    EXPECT_EQ(last.wowMergedWrites, res.wowMergedWrites);

    // Exact double equality, not near: the sample sums the same
    // per-channel values in the same order as System::run.
    EXPECT_EQ(last.irlpMean(), res.irlpMean);
    EXPECT_EQ(static_cast<double>(last.irlpMax), res.irlpMax);
    EXPECT_EQ(last.rowHitRate(),
              static_cast<double>(res.rowReads + res.deferredEccReads) /
                  static_cast<double>(res.readsCompleted));
    EXPECT_EQ(last.wowMergeRate(),
              static_cast<double>(res.wowMergedWrites) /
                  static_cast<double>(res.writesCompleted));
    ASSERT_GT(last.irlpWindowTicks, 0.0);
    EXPECT_EQ(static_cast<double>(last.writesCompleted) /
                  (last.irlpWindowTicks * 1e-12),
              res.writeThroughput);

    // All intermediate samples sit on the epoch grid; cumulative
    // counters never decrease.
    for (std::size_t i = 0; i < tl.size(); ++i) {
        const obs::TimelineSample &s = tl.samples()[i];
        if (i + 1 < tl.size())
            EXPECT_EQ(s.tick, (i + 1) * cfg.obs.epochTicks);
        if (i > 0) {
            const obs::TimelineSample &prev = tl.samples()[i - 1];
            EXPECT_GE(s.readsCompleted, prev.readsCompleted);
            EXPECT_GE(s.writesCompleted, prev.writesCompleted);
            EXPECT_GE(s.irlpArea, prev.irlpArea);
            EXPECT_GE(s.irlpMax, prev.irlpMax);
        }
    }
}

TEST(ObsIntegrationTest, TimelineJsonlRoundTripsExactly)
{
    SystemConfig cfg = baseConfig();
    cfg.obs.epochTicks = 1'000'000; // timeline-only: no trace
    const auto sys = makeSystem(cfg);
    sys->run();
    ASSERT_NE(sys->observer(), nullptr);
    EXPECT_EQ(sys->observer()->recorder(), nullptr);
    const obs::Timeline &tl = sys->observer()->timeline();
    ASSERT_FALSE(tl.empty());

    const std::string text = obs::timelineJsonl(tl);
    std::size_t start = 0;
    std::size_t row = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        ASSERT_NE(nl, std::string::npos);
        std::string err;
        const auto parsed =
            obs::parseTimelineLine(text.substr(start, nl - start), &err);
        ASSERT_TRUE(parsed) << "row " << row << ": " << err;
        const obs::TimelineSample &want = tl.samples()[row];
        EXPECT_EQ(parsed->tick, want.tick);
        EXPECT_EQ(parsed->readsCompleted, want.readsCompleted);
        EXPECT_EQ(parsed->writesCompleted, want.writesCompleted);
        EXPECT_EQ(parsed->rowReads, want.rowReads);
        EXPECT_EQ(parsed->deferredEccReads, want.deferredEccReads);
        EXPECT_EQ(parsed->writesEnqueued, want.writesEnqueued);
        EXPECT_EQ(parsed->wowGroups, want.wowGroups);
        EXPECT_EQ(parsed->wowMergedWrites, want.wowMergedWrites);
        // Shortest-round-trip formatting: doubles come back bitwise.
        EXPECT_EQ(parsed->irlpArea, want.irlpArea);
        EXPECT_EQ(parsed->irlpWindowTicks, want.irlpWindowTicks);
        EXPECT_EQ(parsed->irlpMax, want.irlpMax);
        EXPECT_EQ(parsed->readQueueDepth, want.readQueueDepth);
        EXPECT_EQ(parsed->writeQueueDepth, want.writeQueueDepth);
        EXPECT_EQ(parsed->bankBusyFraction, want.bankBusyFraction);
        start = nl + 1;
        ++row;
    }
    EXPECT_EQ(row, tl.size());
}

TEST(ObsIntegrationTest, TraceRecorderProducesValidChromeJson)
{
    SystemConfig cfg = baseConfig();
    cfg.obs.trace = true;
    const auto sys = makeSystem(cfg);
    sys->run();
    ASSERT_NE(sys->observer(), nullptr);
    const obs::TraceRecorder *rec = sys->observer()->recorder();
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->ring().recorded(), 0u);

    std::string err;
    const auto doc = obs::parseJson(obs::chromeTraceJson(rec->ring()),
                                    &err);
    ASSERT_TRUE(doc) << err;
    EXPECT_EQ(doc->get("otherData")->get("recorded")->asU64(),
              rec->ring().recorded());
    EXPECT_EQ(doc->get("traceEvents")->items().size(),
              rec->ring().size());
}

TEST(ObsIntegrationTest, DisabledObsCreatesNoObserver)
{
    SystemConfig cfg = baseConfig();
    const auto sys = makeSystem(cfg);
    EXPECT_EQ(sys->observer(), nullptr);
    sys->run();
    EXPECT_EQ(sys->observer(), nullptr);
}

TEST(ObsIntegrationTest, SweepObsFilesAreThreadCountInvariant)
{
    sweep::SweepSpec spec;
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.workloads = {"MP1", "streamcluster"};
    spec.configs[0].base.instructionsPerCore = 3000;

    auto runAt = [&spec](unsigned threads, const std::string &prefix) {
        sweep::SweepRunner::Options opts;
        opts.threads = threads;
        opts.obs.trace = true;
        opts.obs.epochTicks = 1'000'000;
        opts.obsPathPrefix = prefix;
        return sweep::SweepRunner(opts).run(spec);
    };
    const std::string p1 = ::testing::TempDir() + "obsdet_t1";
    const std::string p8 = ::testing::TempDir() + "obsdet_t8";
    const sweep::SweepReport r1 = runAt(1, p1);
    const sweep::SweepReport r8 = runAt(8, p8);
    ASSERT_EQ(r1.rows.size(), 4u);
    ASSERT_EQ(r8.rows.size(), 4u);

    for (unsigned i = 0; i < 4; ++i) {
        const std::string point = ".point" + std::to_string(i);
        const std::string t1 =
            sweep::dist::readFile(p1 + point + ".trace.json");
        const std::string t8 =
            sweep::dist::readFile(p8 + point + ".trace.json");
        ASSERT_FALSE(t1.empty());
        EXPECT_EQ(t1, t8) << "trace for point " << i;
        const std::string e1 =
            sweep::dist::readFile(p1 + point + ".timeline.jsonl");
        const std::string e8 =
            sweep::dist::readFile(p8 + point + ".timeline.jsonl");
        ASSERT_FALSE(e1.empty());
        EXPECT_EQ(e1, e8) << "timeline for point " << i;
    }
}

} // namespace
} // namespace pcmap
