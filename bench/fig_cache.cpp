/**
 * @file
 * fig-cache: the DRAM cache tier's filtering effect on PCM traffic.
 *
 * Sweeps tier shape (none plus sizes x replacement policies) against
 * device organization and system, and prints one table per
 * (system, organization): tier hit rate, PCM writes actually
 * committed behind the tier, dirty words per write-back, read
 * latency, and — because every point runs through the request fabric
 * — per-tenant p99 read latency, so the table shows how cache
 * filtering reshapes the tail, not just the mean.  This is the tiered
 * memory extension study, not a figure from the paper.
 *
 * Harness-specific keys (plus the common ones in bench_common.h):
 *   sizes=LIST    tier capacities, one curve row each, with K/M/G
 *                 suffixes (default 1M,4M)
 *   ways=N        tier associativity (default 8)
 *   repl=LIST     replacement policies, lru | mac (default lru,mac)
 *   workload=W    workload name for the per-core profiles
 *                 (default MP1)
 *   modes=LIST    systems (names or compositions), or all | pcmap
 *                 (default Baseline)
 *
 * The fabric keys (tenants=, rate=, ...) default to a 2-tenant
 * Poisson 8/us mixed-QoS stream over a 16 GB/s + 20 ns link when not
 * given, so the fabric -> cache -> PCM composition is exercised by
 * default and the p99 column is always measured.
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace pcmap::bench;

    HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("DRAM cache tier: hit rate vs PCM write traffic vs tail",
           "tiered-memory extension study (not a paper figure)", hc);
    HostReport host;

    const Config &args = hc.raw;
    const std::vector<std::string> sizes =
        sweep::splitCommas(args.getString("sizes", "1M,4M"));
    if (sizes.empty())
        fatal("sizes= needs at least one capacity");
    const unsigned ways = args.getUnsigned("ways", 8);
    std::vector<std::string> repls =
        sweep::splitCommas(args.getString("repl", "lru,mac"));
    if (repls.empty())
        fatal("repl= needs at least one policy");
    const std::string workload = args.getString("workload", "MP1");

    // Default fabric: two open-loop tenants over a real link, so the
    // p99 column is measured through the full stack even when no
    // fabric keys are given.
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

    // The tier axis: "none" first (the uncached baseline row), then
    // every size x replacement-policy combination.
    std::vector<cache::TierConfig> tiers;
    tiers.emplace_back(); // tier=none
    for (const std::string &size : sizes) {
        for (const std::string &repl : repls) {
            tiers.push_back(cache::tierConfigFromString(
                "dram:" + size + ":" + std::to_string(ways) + ":" +
                repl));
        }
    }

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
        sweep::parseModes(args.getString("modes", "Baseline")));
    spec.workloads = {workload};
    spec.seeds = {hc.seed};
    spec.orgs = hc.orgs;

    sweep::SweepRunner::Options opts;
    opts.threads = hc.threads;
    opts.collectStats = true;
    opts.obs = hc.obs.obs;
    opts.obsPathPrefix = hc.obs.pathPrefix;
    const sweep::SweepReport report =
        sweep::SweepRunner(opts).run(spec);

    if (!hc.jsonl.empty()) {
        std::ofstream out(hc.jsonl);
        if (!out)
            fatal("cannot open '", hc.jsonl, "' for writing");
        sweep::writeJsonl(report, out);
    }

    std::printf("\nfabric: %u tenants, link %gGB/s + %gns; "
                "tier ways=%u workload=%s\n",
                static_cast<unsigned>(fab.tenants.size()), fab.linkGbps,
                fab.linkNs, ways, workload.c_str());

    for (const DeviceOrg org : hc.orgs) {
        for (const std::string &label : systemLabels(spec.systems, org)) {
            std::printf("\n== %s ==\n", label.c_str());
            std::printf("%-22s %7s %9s %9s %8s %8s %8s %8s\n", "tier",
                        "hitRate", "pcmWrites", "dirtyW/WB", "readLat",
                        "t0.p99", "wbBatch", "ipcSum");
            rule(86);
            for (const cache::TierConfig &tier : tiers) {
                const std::string name =
                    cache::tierConfigToString(tier);
                const sweep::RunRecord *rec =
                    report.find(name, label, workload, hc.seed);
                if (rec == nullptr || !rec->ok) {
                    std::printf("%-22s  (run failed)\n", name.c_str());
                    continue;
                }
                const double wbs = stat(*rec, "cache.writebacks");
                const double dirty_per_wb =
                    wbs > 0.0
                        ? stat(*rec, "cache.dirtyWordsWrittenBack") /
                              wbs
                        : 0.0;
                std::printf(
                    "%-22s %7.3f %9.0f %9.2f %7.1fns %7.1f %8.1f "
                    "%8.3f\n",
                    name.c_str(), stat(*rec, "cache.hitRate"),
                    static_cast<double>(rec->results.writesCompleted),
                    dirty_per_wb, rec->results.avgReadLatencyNs,
                    stat(*rec, "fabric.tenant0.read.p99"),
                    stat(*rec, "cache.writebackBatch.mean"),
                    rec->results.ipcSum);
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
