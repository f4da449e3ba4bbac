/**
 * @file
 * fig-attrib: where the p99 goes — cross-layer latency attribution.
 *
 * Runs the full fabric -> cache tier -> PCM stack with per-request
 * phase ledgers enabled and prints, per (system, organization, tier),
 * each tenant's read-latency decomposition: total p99 next to the
 * share of summed latency spent in every pipeline phase (link wait,
 * cache lookup, MSHR wait, queue residency, bank wait, array access,
 * verify/rollback).  Comparing the tier=none row against the cached
 * row — and slc against qlc — shows which layer the tail actually
 * lives in, not just how long it is.  This is an observability
 * extension study, not a figure from the paper.
 *
 * Harness-specific keys (plus the common ones in bench_common.h):
 *   tiers=LIST    tier specs, "none" and/or dram:SIZE:WAYS:REPL
 *                 (default none,dram:4M:8:lru)
 *   workload=W    workload name for the per-core profiles
 *                 (default MP1)
 *   modes=LIST    systems (names or compositions), or all | pcmap
 *                 (default Baseline,RWoW-RDE)
 *
 * The fabric keys (tenants=, rate=, ...) default to a 2-tenant
 * Poisson 8/us mixed-QoS stream over a 16 GB/s + 20 ns link when not
 * given, so every phase of the stack is exercised by default.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cache/tier.h"
#include "sim/log.h"
#include "sweep/sweep_io.h"

namespace {

using namespace pcmap;

/** Flat-stat lookup; 0.0 when the key is absent. */
double
stat(const sweep::RunRecord &rec, const std::string &key)
{
    for (const auto &kv : rec.stats) {
        if (kv.first == key)
            return kv.second;
    }
    return 0.0;
}

/** Share of tenant @p t's summed read latency spent in @p phase. */
double
phaseShare(const sweep::RunRecord &rec, unsigned t,
           const std::string &phase)
{
    const std::string base = "attrib.t" + std::to_string(t) + ".read.";
    const double total = stat(rec, base + "totalSumNs");
    if (total <= 0.0)
        return 0.0;
    return stat(rec, base + phase + "SumNs") / total;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pcmap::bench;

    HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("latency attribution: where each tenant's read p99 goes",
           "observability extension study (not a paper figure)", hc);
    HostReport host;

    const Config &args = hc.raw;
    const std::vector<std::string> tier_specs = sweep::splitCommas(
        args.getString("tiers", "none,dram:4M:8:lru"));
    if (tier_specs.empty())
        fatal("tiers= needs at least one spec");
    const std::string workload = args.getString("workload", "MP1");

    // Default fabric: two open-loop tenants over a real link, so the
    // link-wait and queue phases are populated even when no fabric
    // keys are given.
    fabric::FabricConfig fab = hc.fabric;
    if (!fab.enabled()) {
        fab.tenants.resize(2);
        for (unsigned t = 0; t < 2; ++t) {
            fabric::TenantSpec &ts = fab.tenants[t];
            ts.ratePerUs = 8.0;
            ts.arrival = fabric::ArrivalKind::Poisson;
            ts.qos = t == 0 ? fabric::QosClass::LatencySensitive
                            : fabric::QosClass::BestEffort;
            ts.requests = 4000;
        }
        fab.linkGbps = 16.0;
        fab.linkNs = 20.0;
    }

    std::vector<cache::TierConfig> tiers;
    for (const std::string &spec_str : tier_specs)
        tiers.push_back(cache::tierConfigFromString(spec_str));

    sweep::SweepSpec spec;
    spec.configs.clear();
    for (const cache::TierConfig &tier : tiers) {
        sweep::ConfigVariant v;
        v.name = cache::tierConfigToString(tier);
        v.base = hc.system(presets::Baseline);
        v.base.fabric = fab;
        v.base.tier = tier;
        spec.configs.push_back(v);
    }
    spec.systems = hc.withPolicies(
        sweep::parseModes(args.getString("modes", "Baseline,RWoW-RDE")));
    spec.workloads = {workload};
    spec.seeds = {hc.seed};
    spec.orgs = hc.orgs;

    sweep::SweepRunner::Options opts;
    opts.threads = hc.threads;
    opts.collectStats = true;
    opts.obs = hc.obs.obs;
    // This figure IS the attribution study: ledgers are always on.
    opts.obs.attrib = true;
    opts.obsPathPrefix = hc.obs.pathPrefix;
    const sweep::SweepReport report =
        sweep::SweepRunner(opts).run(spec);

    if (!hc.jsonl.empty()) {
        std::ofstream out(hc.jsonl);
        if (!out)
            fatal("cannot open '", hc.jsonl, "' for writing");
        sweep::writeJsonl(report, out);
    }

    const auto num_tenants =
        static_cast<unsigned>(fab.tenants.size());
    std::printf("\nfabric: %u tenants, link %gGB/s + %gns; "
                "workload=%s; shares are of summed read latency\n",
                num_tenants, fab.linkGbps, fab.linkNs,
                workload.c_str());

    for (const DeviceOrg org : hc.orgs) {
        for (const std::string &label : systemLabels(spec.systems, org)) {
            std::printf("\n== %s ==\n", label.c_str());
            std::printf("%-22s %6s %9s %6s %6s %6s %6s %6s %6s %6s\n",
                        "tier", "tenant", "p99", "link", "cache",
                        "queue", "bank", "array", "verify", "other");
            rule(88);
            for (const cache::TierConfig &tier : tiers) {
                const std::string name =
                    cache::tierConfigToString(tier);
                const sweep::RunRecord *rec =
                    report.find(name, label, workload, hc.seed);
                if (rec == nullptr || !rec->ok) {
                    std::printf("%-22s  (run failed)\n", name.c_str());
                    continue;
                }
                for (unsigned t = 0; t < num_tenants; ++t) {
                    const std::string base =
                        "attrib.t" + std::to_string(t) + ".read.";
                    const double link = phaseShare(*rec, t, "linkWait");
                    const double tier_share =
                        phaseShare(*rec, t, "cacheLookup") +
                        phaseShare(*rec, t, "mshrWait");
                    const double queue =
                        phaseShare(*rec, t, "queueResidency");
                    const double bank = phaseShare(*rec, t, "bankWait");
                    const double array =
                        phaseShare(*rec, t, "arrayAccess");
                    const double verify =
                        phaseShare(*rec, t, "verifyDefer") +
                        phaseShare(*rec, t, "rollbackRedo");
                    const double other =
                        phaseShare(*rec, t, "wbBufferStall") +
                        phaseShare(*rec, t, "roundPause") +
                        phaseShare(*rec, t, "unattributed");
                    std::printf("%-22s %6u %7.1fns %5.1f%% %5.1f%% "
                                "%5.1f%% %5.1f%% %5.1f%% %5.1f%% "
                                "%5.1f%%\n",
                                t == 0 ? name.c_str() : "", t,
                                stat(*rec, base + "total.p99"),
                                100.0 * link, 100.0 * tier_share,
                                100.0 * queue, 100.0 * bank,
                                100.0 * array, 100.0 * verify,
                                100.0 * other);
                }
            }
        }
    }

    for (const sweep::RunRecord &rec : report.rows) {
        if (rec.ok)
            host.add(rec.results);
    }
    host.print();
    return report.failures() == 0 ? 0 : 1;
}
