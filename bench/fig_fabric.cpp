/**
 * @file
 * fig-fabric: multi-tenant throughput vs tail latency on the link.
 *
 * Sweeps per-tenant offered load across the request fabric and prints
 * one table per (system, organization): per-tenant achieved
 * throughput, p50/p99/p999 read latency, link-queueing vs device
 * attribution, slowdown against a solo run of the same tenant at the
 * same rate, and the Jain fairness index across tenants.  This is the
 * QoS extension study, not a figure from the paper.
 *
 * Harness-specific keys (plus the common ones in bench_common.h):
 *   rates=LIST    per-tenant offered rates in requests/us, one curve
 *                 point each (default 2,4,8,16)
 *   tenants=N     tenants sharing the fabric (default 4)
 *   qos=Q         "mixed" (alternating ls/be, default), "ls" or "be"
 *   burst=B       on/off burstiness factor; >1 selects the bursty
 *                 arrival process (default 1 = Poisson)
 *   arb=A         link arbiter, "prio" or "wrr" (default prio)
 *   linkGbps=G    link bandwidth (default 16)
 *   linkNs=D      one-way link propagation delay (default 20)
 *   linkQueue=N   per-tenant link queue depth (default 256)
 *   reqs=N        per-tenant request budget (default 20000)
 *   workload=W    workload name supplying the per-core address/mix
 *                 profiles (default MP1)
 *   modes=LIST    systems (names or compositions), or all | pcmap
 *                 (default all)
 *
 * Every run pairs a "shared" point (all tenants active) with a "solo"
 * point (one tenant, same rate, same link) so the slowdown column is
 * measured, not modeled.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
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

/** Flat-stat key "fabric.tenant<t>.<leaf>". */
std::string
tenantKey(unsigned t, const char *leaf)
{
    return "fabric.tenant" + std::to_string(t) + "." + leaf;
}

/** Compact rate label: 2 -> "2", 2.5 -> "2.5". */
std::string
rateLabel(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", rate);
    return buf;
}

/** The shared-run fabric: @p n open-loop tenants at @p rate each. */
fabric::FabricConfig
sharedFabric(const fabric::FabricConfig &proto, unsigned n,
             double rate, double burst, const std::string &qos)
{
    fabric::FabricConfig fab = proto;
    fab.tenants.assign(n, fabric::TenantSpec{});
    for (unsigned t = 0; t < n; ++t) {
        fabric::TenantSpec &spec = fab.tenants[t];
        spec.ratePerUs = rate;
        spec.burst = burst;
        spec.arrival = burst > 1.0 ? fabric::ArrivalKind::Bursty
                                   : fabric::ArrivalKind::Poisson;
        if (qos == "mixed")
            spec.qos = t % 2 == 0 ? fabric::QosClass::LatencySensitive
                                  : fabric::QosClass::BestEffort;
        else
            spec.qos = fabric::qosClassFromName(qos);
        spec.requests = proto.tenants.empty()
                            ? spec.requests
                            : proto.tenants[0].requests;
    }
    return fab;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pcmap::bench;

    HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Multi-tenant fabric: throughput vs tail latency",
           "QoS extension study (not a paper figure)", hc);
    HostReport host;

    const Config &args = hc.raw;
    std::vector<double> rates;
    for (const std::string &tok :
         sweep::splitCommas(args.getString("rates", "2,4,8,16"))) {
        char *end = nullptr;
        const double r = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0' || r <= 0.0)
            fatal("rates=: '", tok, "' is not a positive rate");
        rates.push_back(r);
    }
    const unsigned tenants = args.getUnsigned("tenants", 4);
    if (tenants == 0)
        fatal("tenants= must be at least 1");
    const std::string qos = args.getString("qos", "mixed");
    if (qos != "mixed" && qos != "ls" && qos != "be")
        fatal("qos=: '", qos, "' (known: mixed, ls, be)");
    const double burst = args.getDouble("burst", 1.0);
    const std::string workload = args.getString("workload", "MP1");

    // Link/arbiter prototype shared by every variant.  The link is on
    // by default here — a zero-delay link would make the queueing
    // columns trivially empty.
    fabric::FabricConfig proto;
    proto.tenants.resize(1);
    proto.tenants[0].requests = args.getUint("reqs", 20'000);
    proto.arb = fabric::linkArbFromName(args.getString("arb", "prio"));
    proto.linkGbps = args.getDouble("linkGbps", 16.0);
    proto.linkNs = args.getDouble("linkNs", 20.0);
    proto.queueCap = args.getUnsigned("linkQueue", proto.queueCap);

    // Two config variants per curve point: the shared run, and a solo
    // run of one tenant at the same rate on the same link — the
    // measured baseline for the slowdown column.
    sweep::SweepSpec spec;
    spec.configs.clear();
    for (const double r : rates) {
        sweep::ConfigVariant shared;
        shared.name = "shared@r" + rateLabel(r);
        shared.base = hc.system(presets::Baseline);
        shared.base.fabric =
            sharedFabric(proto, tenants, r, burst, qos);
        spec.configs.push_back(shared);

        sweep::ConfigVariant solo;
        solo.name = "solo@r" + rateLabel(r);
        solo.base = hc.system(presets::Baseline);
        solo.base.fabric = sharedFabric(proto, 1, r, burst, "ls");
        spec.configs.push_back(solo);
    }
    spec.systems = hc.withPolicies(
        sweep::parseModes(args.getString("modes", "all")));
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

    std::printf("\nlink: %gGB/s + %gns, arb=%s, queue=%u; "
                "tenants=%u qos=%s burst=%g workload=%s\n",
                proto.linkGbps, proto.linkNs,
                fabric::linkArbName(proto.arb), proto.queueCap,
                tenants, qos.c_str(), burst, workload.c_str());

    for (const DeviceOrg org : hc.orgs) {
        for (const std::string &label : systemLabels(spec.systems, org)) {
            std::printf("\n== %s ==\n", label.c_str());
            std::printf("%6s %4s %-4s %8s %8s %8s %8s %8s %8s %8s\n",
                        "rate", "ten", "qos", "tput", "p50", "p99",
                        "p999", "lnkW.p99", "dev.p99", "slowdown");
            rule(80);
            for (const double r : rates) {
                const sweep::RunRecord *shared = report.find(
                    "shared@r" + rateLabel(r), label, workload,
                    hc.seed);
                const sweep::RunRecord *solo = report.find(
                    "solo@r" + rateLabel(r), label, workload,
                    hc.seed);
                if (shared == nullptr || !shared->ok ||
                    solo == nullptr || !solo->ok) {
                    std::printf("%6s  (run failed)\n",
                                rateLabel(r).c_str());
                    continue;
                }
                const double solo_mean =
                    stat(*solo, tenantKey(0, "read.mean"));
                double total_tput = 0.0;
                double rejected = 0.0;
                for (unsigned t = 0; t < tenants; ++t) {
                    const double mean =
                        stat(*shared, tenantKey(t, "read.mean"));
                    const double tput = stat(
                        *shared, tenantKey(t, "throughputMops"));
                    total_tput += tput;
                    rejected +=
                        stat(*shared, tenantKey(t, "rejected"));
                    std::printf(
                        "%6s %4u %-4s %8.3f %8.1f %8.1f %8.1f "
                        "%8.1f %8.1f %7.2fx\n",
                        t == 0 ? rateLabel(r).c_str() : "", t,
                        qos == "mixed"
                            ? (t % 2 == 0 ? "ls" : "be")
                            : qos.c_str(),
                        tput,
                        stat(*shared, tenantKey(t, "read.p50")),
                        stat(*shared, tenantKey(t, "read.p99")),
                        stat(*shared, tenantKey(t, "read.p999")),
                        stat(*shared, tenantKey(t, "linkWait.p99")),
                        stat(*shared, tenantKey(t, "device.p99")),
                        solo_mean > 0.0 ? mean / solo_mean : 0.0);
                }
                std::printf("%6s %4s %-4s %8.3f  offered=%g "
                            "Jain=%.3f linkUtil=%.2f rejected=%.0f\n",
                            "", "all", "", total_tput,
                            r * tenants,
                            stat(*shared, "fabric.jainIndex"),
                            stat(*shared, "fabric.linkUtilization"),
                            rejected);
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
