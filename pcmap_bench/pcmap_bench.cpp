/**
 * @file
 * pcmap-bench: the repository benchmark program.
 *
 * Runs one named workload -- a fixed sweep matrix written in the
 * pcmap-sweep key=value grammar -- single-threaded from a seed, checks
 * the simulated results, and prints every metric by name and unit,
 * then one JSON result line:
 *
 *   trace=0  end to end: sweep and set-up wall time, peak RSS, and the
 *            paper's Fig. 8-11 quantities beside the paper's values;
 *   trace=1  per layer: wall time of the calls into System (construct,
 *            run, destroy), heap allocations counted by a replaced
 *            global operator new, event-queue counters, the cost of
 *            attribution, and the simulated per-layer counters read
 *            back from the sweep JSONL.
 *
 * Systems are selected only by their config labels and every simulated
 * number is read from the serialized JSONL, so refactors behind the
 * sweep grammar and the JSONL format need no change here.
 *
 * usage: pcmap-bench workload=NAME [seed=N] [seconds=S] [trace=0|1]
 *                    [insts=N] [commit=REV]
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "analysis.h"
#include "core/system.h"
#include "sim/config.h"
#include "sim/log.h"
#include "sim/perf.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"

#ifndef PCMAP_BENCH_BUILD_TYPE
#define PCMAP_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace pcmap;
using namespace pcmap::repobench;
using sweep::SweepPoint;

/** One benchmark workload: a sweep matrix in pcmap-sweep's grammar. */
struct Workload
{
    const char *name;
    /** Axis and stack keys; seeds= and insts= are added per run. */
    std::vector<std::string> keys;
    /** Instructions per core. */
    std::uint64_t insts;
    /** digest() of the sweep JSONL at kDigestSeed and these insts. */
    const char *digest;
};

constexpr std::uint64_t kDigestSeed = 1;
/** Construct-only passes behind setup_s, after one warm-up pass. */
constexpr unsigned kSetupPasses = 51;
/** Fewest timed sweeps behind sweep_s, however short the budget. */
constexpr unsigned kMinSweeps = 3;
/** Re-serializations behind sweep.serialize_ms. */
constexpr unsigned kSerializeReps = 5;
/** calibrate()'s wall time on an undisturbed 4-vCPU Xeon VM. */
constexpr double kCalibrationSeconds = 0.065;

// The paper's values (Fig. 8-11, all at org=slc), printed beside ours.
constexpr double kPaperIpcGainMpPct = 15.6;
constexpr double kPaperIpcGainMtPct = 16.7;
constexpr double kPaperReadLatRatio = 0.5;
constexpr double kPaperIrlp = 4.5;
constexpr double kPaperWriteTputGain = 1.33;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> table = {
        // The six paper systems on a multi-programmed and a
        // multi-threaded workload at org=slc: the BENCH_kernel.json /
        // CI perf-smoke matrix.  Read-dominated; it builds no fabric,
        // tier or obs, so gains confined to those layers must leave
        // it unchanged.
        {"paper_slc", {"workloads=MP1,canneal", "modes=all"}, 300'000,
         "f7b20cfa4f652bf2"},
        // Write-heavy programs at org=tlc: freqmine (WPKI 3.3 against
        // RPKI 0.8) and stream's dense full-line writes, which WoW can
        // rarely merge.  Multi-round write trains, round-boundary
        // pauses, WoW scans and a wear update on every write: a
        // read-path gain that costs the write path shows here.
        {"write_heavy_tlc",
         {"workloads=freqmine,stream", "modes=Baseline,WoW-NR,RWoW-RDE",
          "org=tlc"},
         600'000,
         "5e1c4cc4d945e8b1"},
        // The full stack at org=qlc: a closed-loop tenant of cores and
        // an open-loop Poisson tenant share a 16 Gb/s link in front of
        // a 4 MB DRAM tier, with attribution on.  The only workload
        // that exercises the fabric, the tier and the ledgers.  The
        // open-loop budget spans the whole run, so Baseline saturates
        // the be tenant (link back-pressure, rejects) and RWoW-RDE
        // does not: both paths run.
        {"full_stack_qlc",
         {"workloads=MP1", "modes=Baseline,RWoW-RDE", "org=qlc",
          "tier=dram:4M:8:lru", "tenants=2", "rate=0,8", "qos=ls,be",
          "reqs=100000", "linkGbps=16", "linkNs=20", "attrib=1"},
         2'000'000,
         "90fe9e8d22bfd2df"},
    };
    return table;
}

const Workload &
findWorkload(const std::string &name)
{
    std::vector<std::string> names;
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return w;
        names.push_back(w.name);
    }
    fatalUnknown("workload", name, names,
                 "known: paper_slc, write_heavy_tlc, full_stack_qlc");
}

/** The workload's sweep keys plus this run's seed and length. */
Config
sweepArgs(const Workload &w, std::uint64_t seed, std::uint64_t insts)
{
    Config c;
    for (const std::string &kv : w.keys) {
        const auto eq = kv.find('=');
        c.set(kv.substr(0, eq), kv.substr(eq + 1));
    }
    c.set("seeds", std::to_string(seed));
    c.set("insts", std::to_string(insts));
    return c;
}

/** Cores the workload runs closed-loop (all of them without a fabric). */
unsigned
closedCores(const Config &c)
{
    const auto cores =
        static_cast<unsigned>(c.getUint("cores", SystemConfig{}.numCores));
    const auto tenants = static_cast<unsigned>(c.getUint("tenants", 0));
    const std::vector<std::string> given =
        sweep::splitCommas(c.getString("rate", "0"));
    std::vector<double> rates;
    for (unsigned t = 0; t < tenants; ++t)
        rates.push_back(std::stod(given.size() == 1 ? given[0] : given.at(t)));
    return closedLoopCores(cores, rates);
}

double
ms(const perf::WallTimer &t)
{
    return t.seconds() * 1e3;
}

double
per(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
pctOver(double v, double base)
{
    return base > 0.0 ? 100.0 * (v / base - 1.0) : 0.0;
}

sweep::SweepRunner::Options
runnerOptions(const obs::ObsConfig &obs)
{
    sweep::SweepRunner::Options o;
    o.threads = 1;
    o.obs = obs;
    return o;
}

std::vector<std::uint64_t>
instRetired(const sweep::SweepReport &report)
{
    std::vector<std::uint64_t> out;
    for (const sweep::RunRecord &rec : report.rows)
        out.push_back(rec.results.instRetired);
    return out;
}

/** Keeps calibrate()'s loop from being optimized away. */
volatile std::uint64_t calibrationSink = 0;

/**
 * Wall seconds of a fixed loop of hash-map, heap and pointer-chasing
 * work, code the simulator does not share.  On a shared 4-vCPU Xeon VM
 * the same sweep took from 1.1 to 2.0 s in phases lasting seconds to
 * minutes; this loop, timed right after it, slows with it, so
 * host-time metrics are reported as wall time / calibrate() *
 * kCalibrationSeconds: seconds at the reference host's speed.
 */
double
calibrate()
{
    static const std::vector<std::uint32_t> next = [] {
        // One random cycle through 4 MiB of indices.
        const std::uint32_t n = 1u << 20;
        std::vector<std::uint32_t> order(n);
        for (std::uint32_t i = 0; i < n; ++i)
            order[i] = i;
        std::uint64_t x = 88172645463325252ull;
        for (std::uint32_t i = n - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(order[i], order[x % (i + 1)]);
        }
        std::vector<std::uint32_t> cycle(n);
        for (std::uint32_t i = 0; i < n; ++i)
            cycle[order[i]] = order[(i + 1) % n];
        return cycle;
    }();
    const perf::WallTimer timer;
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::priority_queue<std::uint64_t> heap;
    std::uint64_t x = 1;
    std::uint64_t h = 0;
    std::uint32_t i = 0;
    for (int k = 0; k < 400'000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        i = next[i];
        map[x & 0x7fff] += i;
        heap.push(x ^ i);
        if (heap.size() > 512)
            heap.pop();
        if (x & 1)
            h += map.count(x & 0x3fff);
        if ((k & 4095) == 0)
            map.clear();
    }
    calibrationSink = h + heap.top();
    return timer.seconds();
}

/** Seconds spent constructing every point's System. */
double
constructAll(const std::vector<SweepPoint> &points,
             const obs::ObsConfig &obs)
{
    double total = 0.0;
    for (const SweepPoint &p : points) {
        SystemConfig cfg = p.config;
        cfg.obs = obs;
        const perf::WallTimer timer;
        const System sys(cfg,
                         workload::makeWorkload(p.workload, cfg.numCores));
        total += timer.seconds();
    }
    return total;
}

/** The calls one point makes into System, timed and counted. */
struct HostPoint
{
    double setupMs = 0.0;
    double runMs = 0.0;
    double teardownMs = 0.0;
    alloc::Tally setupAllocs;
    alloc::Tally runAllocs;
    EventQueue::Counters kernel;
};

/** One pass over the matrix through HostPoint-recording runs. */
struct HostPass
{
    std::vector<HostPoint> points;
    std::vector<Row> rows;

    double
    total(double HostPoint::*field) const
    {
        double sum = 0.0;
        for (const HostPoint &h : points)
            sum += h.*field;
        return sum;
    }

    std::uint64_t
    runAllocCalls() const
    {
        std::uint64_t sum = 0;
        for (const HostPoint &h : points)
            sum += h.runAllocs.calls;
        return sum;
    }
};

/**
 * Run every point the way the sweep runner does, timing System's
 * constructor, run() and destructor separately and, when @p count,
 * counting the allocations of construction and of run().
 */
HostPass
hostPass(const std::vector<SweepPoint> &points, const obs::ObsConfig &obs,
         bool count)
{
    HostPass pass;
    pass.points.resize(points.size());
    sweep::SweepRunner runner;
    runner.setRunFn([&](const SweepPoint &p, sweep::RunRecord &rec) {
        SystemConfig cfg = p.config;
        cfg.obs = obs;
        HostPoint &h = pass.points.at(p.index);
        alloc::enable(count);
        const alloc::Tally a0 = alloc::tally();
        perf::WallTimer timer;
        std::optional<System> sys;
        sys.emplace(cfg, workload::makeWorkload(p.workload, cfg.numCores));
        h.setupMs = ms(timer);
        const alloc::Tally a1 = alloc::tally();
        timer.restart();
        rec.results = sys->run();
        h.runMs = ms(timer);
        const alloc::Tally a2 = alloc::tally();
        alloc::enable(false);
        h.kernel = sys->eventQueue().counters();
        timer.restart();
        sys.reset();
        h.teardownMs = ms(timer);
        h.setupAllocs = a1 - a0;
        h.runAllocs = a2 - a1;
    });
    pass.rows = parseJsonl(sweep::toJsonl(runner.runPoints(points)));
    alloc::enable(false);
    return pass;
}

/** Every row of @p got carries the simulated results of @p want. */
void
expectSameResults(Tally &tally, const std::vector<Row> &want,
                  const std::vector<Row> &got, const std::string &what)
{
    tally.attempted += got.size();
    tally.expect(got.size() == want.size(), what + ": row count differs");
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        tally.expect(got[i].ok && got[i].metrics == want[i].metrics,
                     what + ": row " + std::to_string(i) +
                         " differs from the timed sweep");
    }
}

/**
 * The per-layer host metrics: untraced, traced (allocations counted)
 * and attribution-toggled passes, repeated over @p seconds.
 */
std::vector<Metric>
hostLayers(Tally &tally, const std::vector<SweepPoint> &points,
           const obs::ObsConfig &obs, const obs::ObsConfig &obs_toggled,
           const std::vector<Row> &rows, const sweep::SweepReport &report,
           double seconds)
{
    double reads = 0.0;
    double requests = 0.0;
    for (const Row &r : rows) {
        reads += value(r.metrics, "readsCompleted");
        requests += value(r.metrics, "readsCompleted") +
                    value(r.metrics, "writesCompleted");
    }

    std::vector<HostPass> traced;
    std::vector<double> trace_pct;
    std::vector<double> attrib_pct;
    double attrib_allocs = 0.0;
    const perf::WallTimer budget;
    do {
        const HostPass plain = hostPass(points, obs, false);
        HostPass counted = hostPass(points, obs, true);
        const HostPass toggled = hostPass(points, obs_toggled, true);
        expectSameResults(tally, rows, plain.rows, "untraced pass");
        expectSameResults(tally, rows, counted.rows, "traced pass");
        expectSameResults(tally, rows, toggled.rows, "attrib-toggled pass");
        const HostPass &on = obs.attrib ? counted : toggled;
        const HostPass &off = obs.attrib ? toggled : counted;
        trace_pct.push_back(pctOver(counted.total(&HostPoint::runMs),
                                    plain.total(&HostPoint::runMs)));
        attrib_pct.push_back(pctOver(on.total(&HostPoint::runMs),
                                     off.total(&HostPoint::runMs)));
        attrib_allocs = per(static_cast<double>(on.runAllocCalls()) -
                                static_cast<double>(off.runAllocCalls()),
                            requests);
        traced.push_back(std::move(counted));
    } while (budget.seconds() < seconds);

    std::vector<Metric> out;
    std::vector<double> run_sums;
    for (const auto &[name, field] :
         {std::pair{"setup", &HostPoint::setupMs},
          std::pair{"run", &HostPoint::runMs},
          std::pair{"teardown", &HostPoint::teardownMs}}) {
        std::vector<double> sums;
        std::vector<double> samples;
        for (const HostPass &p : traced) {
            sums.push_back(p.total(field));
            for (const HostPoint &h : p.points)
                samples.push_back(h.*field);
        }
        const std::string base = std::string("core.system.") + name;
        out.push_back({base + "_ms_sum", "ms", median(sums)});
        out.push_back({base + "_ms_p50", "ms", median(samples)});
        if (field == &HostPoint::runMs)
            run_sums = sums;
    }
    out.push_back({"core.system.samples", "count",
                   static_cast<double>(traced.size() * points.size())});

    double setup_allocs = 0.0;
    double run_allocs = 0.0;
    double run_bytes = 0.0;
    double events = 0.0;
    double schedules = 0.0;
    double cancels = 0.0;
    double oversized = 0.0;
    for (const HostPoint &h : traced.back().points) {
        setup_allocs += static_cast<double>(h.setupAllocs.calls);
        run_allocs += static_cast<double>(h.runAllocs.calls);
        run_bytes += static_cast<double>(h.runAllocs.bytes);
        events += static_cast<double>(h.kernel.eventsExecuted);
        schedules += static_cast<double>(h.kernel.scheduleCalls);
        cancels += static_cast<double>(h.kernel.cancels);
        oversized += static_cast<double>(h.kernel.oversizedCallbacks);
    }
    std::vector<double> serialize_ms;
    for (unsigned i = 0; i < kSerializeReps; ++i) {
        const perf::WallTimer timer;
        const std::string text = sweep::toJsonl(report);
        serialize_ms.push_back(ms(timer));
    }
    double stat_keys = 0.0;
    for (const Row &r : rows)
        stat_keys += static_cast<double>(r.stats.size());

    const std::vector<Metric> rest = {
        {"core.system.run_allocs_per_req", "allocs/req",
         per(run_allocs, requests)},
        {"core.system.run_alloc_bytes_per_req", "B/req",
         per(run_bytes, requests)},
        {"core.system.setup_allocs", "count", setup_allocs},
        {"sim.events_per_req", "events/req", per(events, requests)},
        {"sim.schedules_per_req", "1/req", per(schedules, requests)},
        {"sim.cancels_per_req", "1/req", per(cancels, requests)},
        {"sim.ns_per_event", "ns/event", per(median(run_sums) * 1e6, events)},
        {"sim.oversized_per_read", "1/read", per(oversized, reads)},
        {"obs.attrib_overhead_pct", "%", median(attrib_pct)},
        {"obs.attrib_allocs_per_req", "allocs/req", attrib_allocs},
        {"sweep.serialize_ms", "ms", median(serialize_ms)},
        {"sweep.stat_keys", "count", stat_keys},
        {"trace.overhead_pct", "%", median(trace_pct)},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

void
printStamp(const Workload &w, std::uint64_t seed, std::uint64_t insts,
           std::size_t points, bool trace, const std::string &commit)
{
    const perf::MachineInfo mi = perf::machineInfo();
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    std::printf("# pcmap-bench workload=%s seed=%llu points=%zu "
                "insts/core=%llu trace=%d\n",
                w.name, static_cast<unsigned long long>(seed), points,
                static_cast<unsigned long long>(insts), trace ? 1 : 0);
    std::printf("# host=%s os=%s cpu=%s hw_threads=%u nproc=%d\n",
                mi.host.c_str(), mi.os.c_str(), mi.cpu.c_str(),
                mi.hardwareThreads, nproc);
    std::printf("# build=%s commit=%s\n", PCMAP_BENCH_BUILD_TYPE,
                commit.c_str());
    if (std::string(PCMAP_BENCH_BUILD_TYPE) != "Release") {
        std::printf("# WARNING: %s build, not Release: host timings are "
                    "not comparable\n",
                    PCMAP_BENCH_BUILD_TYPE);
    }
}

void
printAccuracy(const std::vector<Row> &rows)
{
    std::printf("# accuracy against the paper (reported, not gated; the "
                "paper evaluates org=slc, EXPERIMENTS.md explains the "
                "known deviations)\n");
    const auto line = [](const std::string &workload, const char *what,
                         double sim, double paper) {
        std::printf("#   %-9s %-16s %10.4f  paper %6.2f  error %+7.1f%%\n",
                    workload.c_str(), what, sim, paper,
                    100.0 * (sim - paper) / paper);
    };
    for (const Pair &p : pairs(rows)) {
        const auto ratio = [&](const char *key) {
            return per(value(p.pcmap->metrics, key),
                       value(p.base->metrics, key));
        };
        const std::string &w = p.base->workload;
        const bool mp = w.rfind("MP", 0) == 0;
        line(w, "ipc_gain_pct", 100.0 * (ratio("ipcSum") - 1.0),
             mp ? kPaperIpcGainMpPct : kPaperIpcGainMtPct);
        line(w, "read_lat_ratio", ratio("avgReadLatencyNs"),
             kPaperReadLatRatio);
        line(w, "irlp_mean", value(p.pcmap->metrics, "irlpMean"),
             kPaperIrlp);
        line(w, "write_tput_gain", ratio("writeThroughput"),
             kPaperWriteTputGain);
    }
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const std::vector<std::string> known = {"workload", "seed",  "seconds",
                                            "trace",    "insts", "commit"};
    for (const std::string &key : args.keys()) {
        if (std::find(known.begin(), known.end(), key) == known.end()) {
            fatalUnknown("key", key, known,
                         "known: workload, seed, seconds, trace, insts, "
                         "commit");
        }
    }
    const Workload &w = findWorkload(args.requireString("workload"));
    const std::uint64_t seed = args.getUint("seed", kDigestSeed);
    const double seconds = args.getDouble("seconds", 10.0);
    const bool trace = args.getBool("trace", false);
    const std::uint64_t insts = args.getUint("insts", w.insts);

    const Config sweep_args = sweepArgs(w, seed, insts);
    const std::vector<SweepPoint> points =
        sweep::specFromConfig(sweep_args).expand();
    const obs::ObsConfig obs = sweep::obsFromConfig(sweep_args).obs;
    Config toggled_args = sweep_args;
    toggled_args.set("attrib", std::string(obs.attrib ? "0" : "1"));
    const obs::ObsConfig obs_toggled =
        sweep::obsFromConfig(toggled_args).obs;
    const Expectations want{
        seed == kDigestSeed && insts == w.insts ? w.digest : "",
        closedCores(sweep_args) * insts};

    printStamp(w, seed, insts, points.size(), trace,
               args.getString("commit", "unknown"));
    Tally tally;

    // Set-up: build every System and drop it again.  The first pass
    // warms lazy state (allocator arenas, profile tables); it is not
    // counted.
    std::vector<double> setup_s;
    const double setup_cal_before = calibrate();
    for (unsigned pass = 0; pass <= (trace ? 0 : kSetupPasses); ++pass) {
        const double s = constructAll(points, obs);
        if (pass > 0)
            setup_s.push_back(s);
    }
    const double setup_cal =
        0.5 * (setup_cal_before + calibrate());

    // The timed sweep, repeated over the budget; every repetition must
    // serialize byte-identically.
    const sweep::SweepRunner runner(runnerOptions(obs));
    std::optional<sweep::SweepReport> report;
    std::string jsonl;
    std::vector<double> sweep_s;
    std::vector<double> sweep_calibrated;
    const perf::WallTimer budget;
    do {
        const perf::WallTimer timer;
        sweep::SweepReport rep = runner.runPoints(points);
        std::string text = sweep::toJsonl(rep);
        sweep_s.push_back(timer.seconds());
        sweep_calibrated.push_back(sweep_s.back() / calibrate() *
                                   kCalibrationSeconds);
        tally.attempted += points.size();
        if (!report) {
            report = std::move(rep);
            jsonl = std::move(text);
        } else {
            tally.expect(text == jsonl,
                         "sweep " + std::to_string(sweep_s.size()) +
                             " serialized differently from sweep 1");
        }
    } while (!trace &&
             (sweep_s.size() < kMinSweeps || budget.seconds() < seconds));
    const double peak_rss_mb = perf::peakRssKb() / 1024.0;

    const std::vector<Row> rows = parseJsonl(jsonl);
    std::printf("# sweep JSONL digest %s (recorded for seed %llu: %s)\n",
                digest(jsonl).c_str(),
                static_cast<unsigned long long>(kDigestSeed), w.digest);
    checkRows(tally, jsonl, rows, instRetired(*report), want);

    // Observability must be neutral: the matrix with attribution
    // toggled agrees on everything outside the attrib.* stats.
    const sweep::SweepReport toggled_report =
        sweep::SweepRunner(runnerOptions(obs_toggled)).runPoints(points);
    const std::string toggled_jsonl = sweep::toJsonl(toggled_report);
    const std::vector<Row> toggled = parseJsonl(toggled_jsonl);
    tally.attempted += points.size();
    checkRows(tally, toggled_jsonl, toggled, instRetired(toggled_report),
              {"", want.instsPerRow});
    tally.expect(toggled.size() == rows.size(),
                 "toggling attribution changed the row count");
    for (std::size_t i = 0; i < std::min(rows.size(), toggled.size()); ++i) {
        tally.expect(equalIgnoringAttrib(rows[i], toggled[i]),
                     "row " + std::to_string(i) +
                         ": attribution on and off disagree outside "
                         "attrib.*");
    }

    std::vector<Metric> metrics;
    if (!trace) {
        const SimSummary s = summarize(rows);
        metrics = {
            {"sweep_s", "s", median(sweep_calibrated)},
            {"setup_s", "s",
             median(setup_s) / setup_cal * kCalibrationSeconds},
            {"peak_rss_mb", "MB", peak_rss_mb},
            {"ipc_ratio", "ratio", s.ipcRatio},
            {"read_lat_ratio", "ratio", s.readLatRatio},
            {"irlp_mean", "chips", s.irlpMean},
            {"write_tput_gain", "ratio", s.writeTputGain},
            {"t0_read_p99_ns", "ns", s.t0ReadP99Ns},
        };
        printAccuracy(rows);
        std::printf("# sweep_s: median of %zu calibrated sweeps (raw wall "
                    "median %.4f s, fastest %.4f s); setup_s: median of "
                    "%zu construct-only passes (raw %.6f s)\n",
                    sweep_s.size(), median(sweep_s),
                    *std::min_element(sweep_s.begin(), sweep_s.end()),
                    setup_s.size(), median(setup_s));
    } else {
        metrics = hostLayers(tally, points, obs, obs_toggled, rows, *report,
                             seconds);
        const std::vector<Row> &attrib_rows = obs.attrib ? rows : toggled;
        for (Metric &m : simLayers(rows, attrib_rows))
            metrics.push_back(std::move(m));
    }
    for (Metric &m : metrics) {
        if (!tally.expect(std::isfinite(m.value), m.name + " is not finite"))
            m.value = 0.0;
        std::printf("%-40s %18.8g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("# fail_frac %.6g (%llu failed of %llu attempted)\n",
                per(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    printResult(tally, metrics);
    return tally.failed == 0 ? 0 : 1;
}
