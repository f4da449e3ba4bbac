/**
 * @file
 * Tests for the multi-tenant request fabric: Jain-index properties,
 * config parsing/validation (including the closest-match suggestions),
 * the backward-compatibility guarantee (1 closed-loop tenant behind a
 * zero-delay link is byte-identical to the legacy path), thread-count
 * determinism of fabric sweeps, observability neutrality with link
 * tracing on, and link queueing/QoS attribution under saturation.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "fabric/fabric.h"
#include "fabric/link_model.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"

namespace pcmap {
namespace {

using fabric::ArrivalKind;
using fabric::FabricConfig;
using fabric::QosClass;

TEST(JainIndex, ExactlyOneForIdenticalTenants)
{
    EXPECT_DOUBLE_EQ(fabric::jainIndex({5.0, 5.0, 5.0, 5.0}), 1.0);
    EXPECT_DOUBLE_EQ(fabric::jainIndex({0.25}), 1.0);
    // Nothing to be unfair about.
    EXPECT_DOUBLE_EQ(fabric::jainIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(fabric::jainIndex({0.0, 0.0}), 1.0);
}

TEST(JainIndex, DropsMonotonicallyAsOneTenantOutgrowsTheRest)
{
    double prev = fabric::jainIndex({1.0, 1.0, 1.0, 1.0});
    for (const double hog : {2.0, 4.0, 8.0, 16.0}) {
        const double j = fabric::jainIndex({1.0, 1.0, 1.0, hog});
        EXPECT_LT(j, prev) << "hog=" << hog;
        prev = j;
    }
    // Limit: one tenant starving n-1 others approaches 1/n.
    EXPECT_NEAR(fabric::jainIndex({0.0, 0.0, 0.0, 1000.0}), 0.25,
                1e-9);
}

TEST(FabricNames, ParsersRejectUnknownNamesWithSuggestion)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(fabric::qosClassFromName("lol"), SimError);
    try {
        fabric::qosClassFromName("lz");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'ls'"),
                  std::string::npos)
            << e.what();
    }
    try {
        fabric::linkArbFromName("wrrr");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("did you mean 'wrr'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FabricConfigValidate, RejectsUnusableShapes)
{
    ScopedErrorTrap trap;

    FabricConfig too_many;
    too_many.tenants.resize(9);
    EXPECT_THROW(too_many.validate(8), SimError);

    FabricConfig open_no_rate;
    open_no_rate.tenants.resize(1);
    open_no_rate.tenants[0].arrival = ArrivalKind::Poisson;
    EXPECT_THROW(open_no_rate.validate(8), SimError);

    FabricConfig closed_with_rate;
    closed_with_rate.tenants.resize(1);
    closed_with_rate.tenants[0].ratePerUs = 4.0;
    EXPECT_THROW(closed_with_rate.validate(8), SimError);

    FabricConfig zero_queue;
    zero_queue.tenants.resize(1);
    zero_queue.queueCap = 0;
    EXPECT_THROW(zero_queue.validate(8), SimError);

    FabricConfig ok;
    ok.tenants.resize(2);
    ok.tenants[1].arrival = ArrivalKind::Poisson;
    ok.tenants[1].ratePerUs = 4.0;
    EXPECT_NO_THROW(ok.validate(8));
}

/** Run @p cfg on MP1 and return (report text, flat stat listing). */
std::pair<std::string, stats::FlatStats>
runAndExport(const SystemConfig &cfg)
{
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    const SystemResults r = sys.run();
    std::ostringstream os;
    dumpResults(r, os);
    stats::FlatStats flat;
    stats::Writer writer(flat);
    sys.exportStats(writer);
    return {os.str(), flat};
}

TEST(FabricCompat, SingleClosedTenantZeroLinkMatchesLegacyByteForByte)
{
    SystemConfig legacy;
    presets::RWoW_RDE.applyTo(legacy.controller);
    legacy.numCores = 4;
    legacy.instructionsPerCore = 20'000;
    legacy.seed = 7;

    SystemConfig via_fabric = legacy;
    via_fabric.fabric.tenants.resize(1); // closed loop, zero link

    const auto [legacy_text, legacy_stats] = runAndExport(legacy);
    const auto [fabric_text, fabric_stats] = runAndExport(via_fabric);

    // The whole human-readable report and the whole flattened counter
    // listing: a 1-tenant closed-loop fabric run with a bypass link
    // must execute the identical event sequence as the legacy source
    // path.  The fabric run only appends its "fabric." keys.
    EXPECT_EQ(legacy_text, fabric_text);
    ASSERT_GT(fabric_stats.size(), legacy_stats.size());
    const stats::FlatStats head(fabric_stats.begin(),
                                fabric_stats.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        legacy_stats.size()));
    EXPECT_EQ(legacy_stats, head);
    for (std::size_t i = legacy_stats.size(); i < fabric_stats.size();
         ++i) {
        EXPECT_EQ(fabric_stats[i].first.rfind("fabric.", 0), 0u)
            << fabric_stats[i].first;
    }
}

/** A 4-tenant mixed-QoS open-loop spec over a real (queued) link. */
FabricConfig
mixedFabric(double rate_per_us, std::uint64_t requests)
{
    FabricConfig fab;
    fab.tenants.resize(4);
    for (unsigned t = 0; t < 4; ++t) {
        fab.tenants[t].arrival = ArrivalKind::Poisson;
        fab.tenants[t].ratePerUs = rate_per_us;
        fab.tenants[t].qos = t % 2 == 0 ? QosClass::LatencySensitive
                                        : QosClass::BestEffort;
        fab.tenants[t].requests = requests;
    }
    fab.arb = fabric::LinkArb::WeightedRoundRobin;
    fab.linkGbps = 16.0;
    fab.linkNs = 20.0;
    return fab;
}

TEST(FabricDeterminism, SweepJsonlIdenticalAcrossThreadCounts)
{
    sweep::SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.seeds = {1};
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.configs[0].base.fabric = mixedFabric(8.0, 2'000);

    sweep::SweepRunner::Options one;
    one.threads = 1;
    sweep::SweepRunner::Options eight;
    eight.threads = 8;
    const std::string a = sweep::toJsonl(sweep::SweepRunner(one).run(spec));
    const std::string b =
        sweep::toJsonl(sweep::SweepRunner(eight).run(spec));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(FabricObs, LinkTracingDoesNotPerturbResults)
{
    SystemConfig off;
    presets::RWoW_RDE.applyTo(off.controller);
    off.numCores = 4;
    off.seed = 3;
    off.fabric = mixedFabric(8.0, 2'000);

    SystemConfig on = off;
    on.obs.trace = true;
    on.obs.traceCapacity = 1u << 12;

    const auto [off_text, off_stats] = runAndExport(off);
    const auto [on_text, on_stats] = runAndExport(on);
    EXPECT_EQ(off_text, on_text);
    EXPECT_EQ(off_stats, on_stats);
}

TEST(FabricLink, SaturationAttributesQueueingAndHonorsPriority)
{
    // 2 tenants x 50 req/us offered against a 1 GB/s link that serves
    // ~13.9 req/us: deeply saturated, so the tail must live in link
    // wait, strict priority must favor the LS tenant, and the bounded
    // queues must reject some arrivals.
    SystemConfig cfg;
    presets::Baseline.applyTo(cfg.controller);
    cfg.numCores = 4;
    cfg.seed = 11;
    cfg.fabric.tenants.resize(2);
    for (unsigned t = 0; t < 2; ++t) {
        cfg.fabric.tenants[t].arrival = ArrivalKind::Poisson;
        cfg.fabric.tenants[t].ratePerUs = 50.0;
        cfg.fabric.tenants[t].requests = 2'000;
    }
    cfg.fabric.tenants[0].qos = QosClass::LatencySensitive;
    cfg.fabric.tenants[1].qos = QosClass::BestEffort;
    cfg.fabric.arb = fabric::LinkArb::StrictPriority;
    cfg.fabric.linkGbps = 1.0;
    cfg.fabric.queueCap = 32;

    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    sys.run();
    const fabric::LinkModel *link = sys.fabricLink();
    ASSERT_NE(link, nullptr);
    EXPECT_FALSE(link->bypass());
    EXPECT_GT(link->busyTicks(), 0);

    std::uint64_t rejected = 0;
    for (unsigned t = 0; t < 2; ++t) {
        const fabric::TenantCounters &c = link->tenant(t);
        // Every accepted request drains before the run ends, and each
        // is granted the link exactly once.
        EXPECT_EQ(c.readsCompleted, c.readsAccepted) << "tenant " << t;
        EXPECT_LE(c.writesCommitted, c.writesAccepted)
            << "tenant " << t;
        EXPECT_EQ(c.linkWait.summary().samples,
                  c.readsAccepted + c.writesAccepted)
            << "tenant " << t;
        rejected += c.rejected;
    }
    EXPECT_GT(rejected, 0u);

    const auto ls = link->tenant(0).linkWait.summary();
    const auto be = link->tenant(1).linkWait.summary();
    EXPECT_GT(be.mean, 0.0);
    EXPECT_LT(ls.mean, be.mean)
        << "strict priority must give the LS tenant the shorter "
           "link wait";
}

} // namespace
} // namespace pcmap
