/**
 * @file
 * pcmap-perf: measure host-side simulator throughput.
 *
 * Runs a fixed-seed matrix of (system x workload) simulations and
 * reports wall-clock kernel metrics — events/sec, simulated
 * requests/sec, schedule-call counts, peak RSS — per point and in
 * aggregate, optionally as JSON (the BENCH_kernel.json format).
 *
 * The simulated results are bit-deterministic, so two builds of the
 * same source always execute the identical event sequence; only the
 * wall-clock denominators differ.  That makes the aggregate
 * events/sec a clean apples-to-apples measure of kernel speed across
 * commits, which CI's perf-smoke job tracks with a generous floor.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "sim/config.h"
#include "sim/log.h"
#include "sim/perf.h"
#include "sweep/sweep_cli.h"
#include "workload/mixes.h"

namespace {

using namespace pcmap;

void
usage()
{
    std::puts(
        "pcmap-perf: measure host-side simulator throughput\n"
        "\n"
        "usage: pcmap-perf key=value ...\n"
        "\n"
        "  workloads=LIST  comma list of mix/program names, or a group\n"
        "                  mt | mp | evaluated (default MP1,canneal)\n"
        "  modes=LIST      comma list of systems, or all | pcmap\n"
        "                  (default all)\n"
        "  org=NAME        PCM cell organization slc|mlc|tlc|qlc\n"
        "                  (default slc)\n"
        "  insts=N         instructions per core per run (default 120000)\n"
        "  cores=N         cores per simulated system (default 8)\n"
        "  seed=N          base seed for every run (default 1)\n"
        "  repeat=N        repetitions of the whole matrix; rates are\n"
        "                  reported over the total (default 1)\n"
        "  json=PATH       append one measurement object to a JSON\n"
        "                  report at PATH (created when missing)\n"
        "  label=STR       label recorded in the JSON measurement\n"
        "                  (default \"run\")\n"
        "  table=BOOL      per-point summary lines (default true)\n"
        "  tenants=N, rate=, burst=, qos=, window=, reqs=, arb=,\n"
        "  linkGbps=, linkNs=, linkQueue=\n"
        "                  multi-tenant request fabric, same syntax as\n"
        "                  pcmap-sweep; off unless tenants= is given\n"
        "  help=1          print this reference and exit");
}

/** One (system, workload) simulation, returning its host metrics. */
perf::RunMetrics
measurePoint(const ControllerPolicy &system, const std::string &workload,
             std::uint64_t insts, unsigned cores, std::uint64_t seed,
             DeviceOrg org, const fabric::FabricConfig &fab)
{
    SystemConfig cfg;
    system.applyTo(cfg.controller);
    cfg.numCores = cores;
    cfg.instructionsPerCore = insts;
    cfg.seed = seed;
    cfg.fabric = fab;
    if (org != DeviceOrg::Slc)
        cfg.controller.timing = cfg.controller.timing.withOrg(org);

    System sys(cfg, workload::makeWorkload(workload, cfg.numCores));
    perf::WallTimer timer;
    const SystemResults results = sys.run();
    const double wall = timer.seconds();

    const EventQueue::Counters &kc = sys.eventQueue().counters();
    perf::RunMetrics m;
    m.label = system.label() + "/" + workload;
    m.wallSeconds = wall;
    m.eventsExecuted = kc.eventsExecuted;
    m.scheduleCalls = kc.scheduleCalls;
    m.requestsCompleted =
        results.readsCompleted + results.writesCompleted;
    m.instructions =
        static_cast<std::uint64_t>(cfg.numCores) * insts;
    m.simTicks = results.simTicks;
    return m;
}

/**
 * Append @p entry (a complete JSON object line) to the measurements
 * array of the report at @p path, creating the file when missing.
 * The report is a single JSON object:
 *   {"benchmark": "pcmap-perf", "measurements": [ {...}, ... ]}
 * Kept line-oriented so appending is a local edit.
 */
void
appendToReport(const std::string &path, const std::string &entry)
{
    std::string body;
    {
        std::ifstream in(path);
        if (in) {
            std::string line;
            while (std::getline(in, line))
                body += line + "\n";
        }
    }
    if (body.empty()) {
        body = "{\"benchmark\": \"pcmap-perf\",\n"
               " \"measurements\": [\n" +
               entry + "\n]}\n";
    } else {
        const auto tail = body.rfind("\n]}");
        if (tail == std::string::npos)
            fatal("json=", path,
                  ": not a pcmap-perf report (missing \"\\n]}\" "
                  "terminator); use a fresh path");
        body.insert(tail, ",\n" + entry);
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("json=", path, ": cannot open for writing");
    out << body;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    if (args.getBool("help", false)) {
        usage();
        return 0;
    }

    const std::vector<std::string> workloads = sweep::parseWorkloads(
        args.getString("workloads", "MP1,canneal"));
    const std::vector<ControllerPolicy> modes =
        sweep::parseModes(args.getString("modes", "all"));
    const std::uint64_t insts = args.getUint("insts", 120'000);
    const unsigned cores = args.getUnsigned("cores", 8);
    const std::uint64_t seed = args.getUint("seed", 1);
    const std::uint64_t repeat = args.getUint("repeat", 1);
    const bool table = args.getBool("table", true);
    DeviceOrg org = DeviceOrg::Slc;
    if (args.has("org")) {
        const std::string org_name = args.requireString("org");
        const auto parsed = deviceOrgFromName(org_name);
        if (!parsed) {
            fatal("unknown device organization '", org_name,
                  "' (known: ", deviceOrgNames(), ")");
        }
        org = *parsed;
    }
    if (repeat == 0)
        fatal("repeat= must be at least 1");
    const fabric::FabricConfig fab = sweep::fabricFromConfig(args);

    const std::size_t points =
        modes.size() * workloads.size() * repeat;
    std::printf("pcmap-perf: %zu points (%zu modes x %zu workloads "
                "x %llu reps), insts=%llu cores=%u seed=%llu\n",
                points, modes.size(), workloads.size(),
                static_cast<unsigned long long>(repeat),
                static_cast<unsigned long long>(insts), cores,
                static_cast<unsigned long long>(seed));

    perf::RunMetrics total;
    total.label = args.getString("label", "run");
    std::vector<perf::RunMetrics> runs;
    for (std::uint64_t rep = 0; rep < repeat; ++rep) {
        for (const ControllerPolicy &system : modes) {
            for (const std::string &w : workloads) {
                perf::RunMetrics m = measurePoint(system, w, insts,
                                                  cores, seed, org,
                                                  fab);
                if (table) {
                    std::printf("  %-18s %s\n", m.label.c_str(),
                                perf::summaryLine(m).c_str());
                    std::fflush(stdout);
                }
                total += m;
                if (rep == 0)
                    runs.push_back(std::move(m));
            }
        }
    }

    const long rss_kb = perf::peakRssKb();
    std::printf("total: %s peakRss=%ldKiB\n",
                perf::summaryLine(total).c_str(), rss_kb);

    if (args.has("json")) {
        std::ostringstream entry;
        entry << "  {\"label\": \"" << perf::jsonEscape(total.label)
              << "\",\n   \"machine\": ";
        perf::writeJson(perf::machineInfo(), entry);
        entry << ",\n   \"config\": {\"insts\": " << insts
              << ", \"cores\": " << cores << ", \"seed\": " << seed
              << ", \"repeat\": " << repeat
              << ", \"modes\": " << modes.size()
              << ", \"workloads\": " << workloads.size() << "},\n"
              << "   \"peak_rss_kb\": " << rss_kb << ",\n"
              << "   \"total\": ";
        perf::writeJson(total, entry);
        entry << ",\n   \"runs\": [";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            entry << (i ? ",\n            " : "");
            perf::writeJson(runs[i], entry);
        }
        entry << "]}";
        appendToReport(args.requireString("json"), entry.str());
        std::printf("appended measurement \"%s\" to %s\n",
                    total.label.c_str(),
                    args.requireString("json").c_str());
    }
    return 0;
}
