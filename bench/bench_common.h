/**
 * @file
 * Shared infrastructure for the figure/table reproduction harnesses.
 *
 * Every harness accepts "key=value" arguments:
 *   insts=N     instructions per core per run (default 600000)
 *   seed=N      simulation seed (default 1)
 *   threads=N   worker threads for the run matrix (default 1)
 *   jsonl=PATH  also write the raw sweep rows as JSONL
 *   policy=LIST extra systems ("fg,row+rd", "RWoW-NR") appended as
 *               figure columns after the harness's own systems; one
 *               already among them is not repeated
 *   org=LIST    device organizations (slc,mlc,tlc,qlc or all;
 *               default slc): figure tables repeat per org, and a
 *               multi-org run appends a cross-org comparison table
 *   trace=PREFIX, obsEpoch=TICKS, obsOut=PREFIX, traceCap=N
 *               observability, same syntax as pcmap-sweep: per-run
 *               trace/timeline files named by the sweep point index;
 *               zero overhead when omitted
 *   tenants=N, rate=, burst=, qos=, window=, reqs=, arb=, linkGbps=,
 *   linkNs=, linkQueue=
 *               multi-tenant request fabric, same syntax as
 *               pcmap-sweep (see sweep::fabricFromConfig); off unless
 *               tenants= is given
 *   tier=SPEC, tierHitNs=, tierMshr=, tierWbBatch=, tierWbBuffer=
 *               DRAM cache tier, same syntax as pcmap-sweep (see
 *               sweep::tierFromConfig); off unless tier=dram:... is
 *               given
 * plus harness-specific keys documented in each binary.
 *
 * The figure harnesses no longer loop over (system, workload) by hand:
 * they declare their run matrix as a sweep::SweepSpec and execute it
 * through sweep::SweepRunner, which shards runs across threads with
 * deterministic per-run seeding — the printed tables are identical at
 * any thread count.
 */

#ifndef PCMAP_BENCH_COMMON_H
#define PCMAP_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/system.h"
#include "sim/config.h"
#include "sim/perf.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"
#include "workload/profile.h"

namespace pcmap::bench {

/**
 * Uniform host wall-clock footer for the harnesses.
 *
 * Construct before the simulations start, add() every SystemResults
 * produced, and print() once at the end; every harness then reports
 * host throughput through the same perf::RunMetrics line as
 * tools/pcmap-perf instead of ad-hoc timing printouts.
 */
class HostReport
{
  public:
    /** Fold one finished run into the totals. */
    void
    add(const SystemResults &r)
    {
        total.eventsExecuted += r.hostEventsExecuted;
        total.scheduleCalls += r.hostScheduleCalls;
        total.requestsCompleted +=
            r.readsCompleted + r.writesCompleted;
        total.instructions += r.instRetired;
        total.simTicks += r.simTicks;
    }

    /** Print the standard "host:" footer line. */
    void
    print() const
    {
        perf::RunMetrics m = total;
        m.wallSeconds = timer.seconds();
        std::printf("\nhost: %s peakRss=%ldKiB\n",
                    perf::summaryLine(m).c_str(), perf::peakRssKb());
    }

  private:
    perf::RunMetrics total;
    perf::WallTimer timer;
};

/** Common harness parameters parsed from the command line. */
struct HarnessConfig
{
    std::uint64_t insts = 600'000;
    std::uint64_t seed = 1;
    unsigned threads = 1;
    /** When non-empty, figure harnesses dump raw rows here. */
    std::string jsonl;
    /** Extra systems from policy=, in the order given. */
    std::vector<ControllerPolicy> policies;
    /** Device organizations to run (org=LIST; default SLC only). */
    std::vector<DeviceOrg> orgs{DeviceOrg::Slc};
    /** Observability selections (trace=/obsEpoch=/obsOut=/traceCap=). */
    sweep::ObsCliOptions obs;
    /** Multi-tenant fabric (tenants=/rate=/qos=/...; off by default). */
    fabric::FabricConfig fabric;
    /** DRAM cache tier (tier=/tierHitNs=/...; off by default). */
    cache::TierConfig tier;
    Config raw;

    static HarnessConfig
    parse(int argc, char **argv)
    {
        HarnessConfig hc;
        hc.raw = Config::fromArgs(argc, argv);
        hc.insts = hc.raw.getUint("insts", hc.insts);
        hc.seed = hc.raw.getUint("seed", hc.seed);
        hc.threads = hc.raw.getUnsigned("threads", hc.threads);
        hc.jsonl = hc.raw.getString("jsonl", hc.jsonl);
        hc.obs = sweep::obsFromConfig(hc.raw);
        hc.fabric = sweep::fabricFromConfig(hc.raw);
        hc.tier = sweep::tierFromConfig(hc.raw);
        if (hc.raw.has("policy"))
            hc.policies =
                sweep::parsePolicies(hc.raw.requireString("policy"));
        if (hc.raw.has("org"))
            hc.orgs = sweep::parseOrgs(hc.raw.requireString("org"));
        return hc;
    }

    /** Base configuration for one run of @p policy. */
    SystemConfig
    system(const ControllerPolicy &policy) const
    {
        SystemConfig cfg;
        policy.applyTo(cfg.controller);
        cfg.instructionsPerCore = insts;
        cfg.seed = seed;
        cfg.fabric = fabric;
        cfg.tier = tier;
        return cfg;
    }

    /** @p systems, then each policy= system not among them. */
    std::vector<ControllerPolicy>
    withPolicies(std::vector<ControllerPolicy> systems) const
    {
        for (const ControllerPolicy &p : policies) {
            if (std::find(systems.begin(), systems.end(), p) ==
                systems.end())
                systems.push_back(p);
        }
        return systems;
    }

    /**
     * The evaluation run matrix of Figures 8-11 as a sweep spec: the
     * six paper systems (plus policy=) against @p workloads, base
     * seed folded in.  Per-run seeds are derived per point, so figure
     * tables produced through this spec are reproducible from (insts,
     * seed) alone.
     */
    sweep::SweepSpec
    evaluationSpec(const std::vector<std::string> &workloads) const
    {
        sweep::SweepSpec spec;
        spec.configs[0].base = system(presets::Baseline);
        spec.systems = withPolicies(
            {std::begin(kPaperSystems), std::end(kPaperSystems)});
        spec.workloads = workloads;
        spec.seeds = {seed};
        spec.orgs = orgs;
        return spec;
    }
};

/**
 * Report labels of @p systems under @p org, as SweepPoint::label()
 * writes them: an "@org" suffix off the default organization.
 */
inline std::vector<std::string>
systemLabels(const std::vector<ControllerPolicy> &systems,
             DeviceOrg org = DeviceOrg::Slc)
{
    std::vector<std::string> labels;
    for (const ControllerPolicy &system : systems) {
        sweep::SweepPoint p;
        p.system = system;
        p.org = org;
        labels.push_back(p.label());
    }
    return labels;
}

/** Run one (system, workload) point. */
inline SystemResults
runPoint(const HarnessConfig &hc, const ControllerPolicy &system,
         const std::string &workload)
{
    return runWorkload(hc.system(system), workload);
}

/** Geometric mean of a vector of positive ratios. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/** Print a horizontal rule sized for @p width columns. */
void rule(unsigned width);

/** Print the standard harness banner. */
void banner(const char *title, const char *paper_ref,
            const HarnessConfig &hc);

/** Metric extracted from one run for the figure sweeps. */
using Metric = double (*)(const SystemResults &);

/** One figure harness: its banner text plus how to read each run. */
struct FigureDef
{
    const char *title;
    const char *paperRef;
    Metric metric;
    /**
     * When true, report metric / baseline-metric per workload (the
     * paper's "normalized to baseline" presentation) and print
     * baseline absolutes in the first column.
     */
    bool normalize;
};

/**
 * Run the evaluation sweep of Figures 8-11: the six multi-threaded
 * workloads plus Average(MT) over the 13 PARSEC programs, then the
 * six multiprogrammed mixes plus Average(MP), across the systems.
 * Executes the whole matrix through sweep::SweepRunner with
 * hc.threads workers.
 */
void figureSweep(const HarnessConfig &hc, Metric metric,
                 bool normalize);

/** Standard main() body for a figure harness. */
int figureMain(int argc, char **argv, const FigureDef &def);

} // namespace pcmap::bench

#endif // PCMAP_BENCH_COMMON_H
