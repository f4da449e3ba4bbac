/**
 * @file
 * pcmap-sweep: run a matrix of PCMap simulations and aggregate the
 * results as JSONL/CSV — on a thread pool, as one shard of a larger
 * run, or as an orchestrator supervising shard worker processes.
 *
 * Run with no arguments or `help=1` for the key reference.  The
 * distributed contract: per-point seeds depend only on (baseSeed,
 * pointIndex), every artifact is written atomically, and shard
 * partials carry the spec fingerprint — so `procs=N`, any manual
 * `shard=K/N` + pcmap-merge combination, and a plain `threads=1` run
 * all produce byte-identical JSONL.
 *
 * Exit status: plain and procs= modes exit 0 only when every run
 * succeeded (CI gates on this); a shard worker exits 0 once its
 * partial is durably written, even if some rows failed — failures are
 * data (recorded per row, re-runnable via resume=), while a non-zero
 * worker exit means the partial was not produced and the orchestrator
 * should retry.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/log.h"
#include "sweep/dist/atomic_file.h"
#include "sweep/dist/orchestrator.h"
#include "sweep/dist/partial_io.h"
#include "sweep/dist/shard_plan.h"
#include "sweep/dist/worker.h"
#include "sweep/sweep_cli.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

namespace {

using namespace pcmap;

void
usage()
{
    std::puts(
        "pcmap-sweep: run a matrix of PCMap simulations\n"
        "\n"
        "usage: pcmap-sweep key=value ...\n"
        "\n"
        "axes:\n"
        "  workloads=LIST  comma list of mix/program names, or a group:\n"
        "                  mt | mp | evaluated.  Required.\n"
        "  modes=LIST      comma list of systems: preset names\n"
        "                  (Baseline, RoW-NR, WoW-NR, RWoW-NR, RWoW-RD,\n"
        "                  RWoW-RDE) or compositions, or all | pcmap\n"
        "                  (default all; omitted when policy= is given)\n"
        "  policy=LIST     comma list of composed controller policies:\n"
        "                  components base|fg|row|wow|rd|rde joined\n"
        "                  with '+' (e.g. row+wow+rde).  A composition\n"
        "                  equal to a preset runs under the preset's\n"
        "                  name, ahead of the others; combines with an\n"
        "                  explicit modes=\n"
        "  seeds=LIST      comma list of unsigned base seeds (default 1);\n"
        "                  per-run seed = hash(baseSeed, pointIndex)\n"
        "  org=LIST        comma list of PCM cell organizations:\n"
        "                  slc | mlc | tlc | qlc, or all (default slc).\n"
        "                  Non-slc rows are labelled mode@org\n"
        "  insts=N         instructions per core per run (default 200000)\n"
        "  cores=N         cores per simulated system (default 8)\n"
        "\n"
        "request fabric (multi-tenant host streams; off by default):\n"
        "  tenants=N       partition the cores among N tenant streams\n"
        "  rate=LIST       open-loop injection rate per tenant in\n"
        "                  requests/us (one value broadcasts; 0 = keep\n"
        "                  that tenant closed-loop)\n"
        "  burst=LIST      burstiness per tenant: B>1 turns Poisson\n"
        "                  arrivals into on/off bursts at B x rate with\n"
        "                  duty 1/B (default 1 = smooth Poisson)\n"
        "  qos=LIST        per-tenant class, ls | be, or 'mixed' to\n"
        "                  alternate (default ls for every tenant)\n"
        "  window=N        closed-loop tenants' max outstanding reads\n"
        "                  (default 0 = the core model's MSHR count)\n"
        "  arb=NAME        link arbiter: prio | wrr (default prio)\n"
        "  linkGbps=G      link bandwidth cap in GB/s (0 = no link\n"
        "                  model: requests pass through untimed)\n"
        "  linkNs=N        one-way link propagation delay in ns\n"
        "  reqs=N          open-loop requests per tenant (default 20000)\n"
        "  linkQueue=N     per-tenant link queue depth (default 256)\n"
        "\n"
        "DRAM cache tier (off by default; composes with org= and the\n"
        "fabric keys above):\n"
        "  tier=SPEC       none (default), or dram:<size>:<ways>:<repl>\n"
        "                  with a K/M/G size suffix and repl lru | mac\n"
        "                  (e.g. tier=dram:256M:8:lru)\n"
        "  tierHitNs=N     DRAM hit service time in ns (default 40)\n"
        "  tierMshr=N      outstanding distinct-line misses (default 16)\n"
        "  tierWbBatch=N   dirty victims per drain burst (default 4)\n"
        "  tierWbBuffer=N  parked victims before back-pressure\n"
        "                  (default 32)\n"
        "\n"
        "execution:\n"
        "  threads=N       worker threads in this process (default 1)\n"
        "  procs=N         orchestrate N shard worker processes of this\n"
        "                  binary; requires jsonl=, merges the partials\n"
        "                  into it after verifying full coverage\n"
        "  retries=R       extra attempts per crashed/timed-out worker\n"
        "                  in procs= mode (default 2)\n"
        "  workerTimeout=S kill a worker attempt after S seconds in\n"
        "                  procs= mode (default 0 = unlimited)\n"
        "  shard=K/N       run only shard K of N (1-based): the K-th\n"
        "                  contiguous slice of the expanded point space.\n"
        "                  jsonl= then names this shard's partial file\n"
        "                  (header line + rows; merge with pcmap-merge)\n"
        "  resume=PATH     with shard=K/N: read an earlier partial of\n"
        "                  the same spec+slice, keep its ok rows, and\n"
        "                  re-run only failed/missing points\n"
        "\n"
        "output:\n"
        "  jsonl=PATH      write the report (atomically: tmp+rename)\n"
        "  csv=PATH        write the report as CSV (plain mode only)\n"
        "  table=BOOL      print the per-run summary table (default\n"
        "                  true; forced off for procs= workers)\n"
        "  progress=BOOL   emit machine-readable '@point I ok|fail'\n"
        "                  lines (used by the procs= orchestrator)\n"
        "  help=1          print this reference and exit\n"
        "\n"
        "observability (zero overhead when omitted):\n"
        "  trace=PREFIX    record request-lifecycle traces per point to\n"
        "                  PREFIX.point<I>.trace.json (Chrome trace\n"
        "                  JSON; load in Perfetto or pcmap-trace)\n"
        "  obsEpoch=TICKS  sample an epoch timeline every TICKS sim\n"
        "                  ticks (1 tick = 1 ps) per point to\n"
        "                  PREFIX.point<I>.timeline.jsonl\n"
        "  obsOut=PREFIX   output prefix for obsEpoch= without trace=\n"
        "  traceCap=N      trace ring capacity in events (default 2^18;\n"
        "                  oldest events are overwritten beyond it)\n"
        "  attrib=0|1      per-request latency attribution: attrib.*\n"
        "                  stat columns per tenant/op/phase, plus\n"
        "                  PREFIX.point<I>.attrib.jsonl when trace= or\n"
        "                  obsOut= gives a prefix (default 0)\n"
        "  attribK=N       tail exemplars kept per run, the N slowest\n"
        "                  requests with full phase ledgers (default 8)\n"
        "\n"
        "exit status: 0 when every run succeeded (plain/procs modes) or\n"
        "the partial was written (shard mode); non-zero otherwise.");
}

/** Every key pcmap-sweep understands, for typo diagnostics. */
const std::vector<std::string> kKnownKeys = {
    "workloads", "modes",    "policy",        "seeds",
    "org",       "insts",    "cores",    "threads",       "procs",
    "retries",   "workerTimeout", "shard",    "resume",
    "jsonl",     "csv",      "table",         "progress",
    "help",      "trace",    "obsEpoch",      "obsOut",
    "traceCap",  "attrib",   "attribK",
    "tenants",   "rate",     "burst",
    "qos",       "window",   "arb",           "linkGbps",
    "linkNs",    "reqs",     "linkQueue",
    "tier",      "tierHitNs", "tierMshr",     "tierWbBatch",
    "tierWbBuffer",
};

/** Reject unknown keys, suggesting the closest known one. */
void
validateKeys(const Config &args)
{
    for (const std::string &key : args.keys()) {
        if (std::find(kKnownKeys.begin(), kKnownKeys.end(), key) !=
            kKnownKeys.end()) {
            continue;
        }
        fatalUnknown("unknown key", key, kKnownKeys,
                     "help=1 lists every key");
    }
}

/** Shared per-run console reporting for plain and shard modes. */
sweep::SweepRunner::Options
runnerOptions(const Config &args, std::size_t total, bool default_table)
{
    sweep::SweepRunner::Options opts;
    opts.threads = args.getUnsigned("threads", 1);
    const sweep::ObsCliOptions obs = sweep::obsFromConfig(args);
    opts.obs = obs.obs;
    opts.obsPathPrefix = obs.pathPrefix;
    const bool table = args.getBool("table", default_table);
    const bool progress = args.getBool("progress", false);
    auto done = std::make_shared<std::size_t>(0);
    opts.onRunDone = [=](const sweep::RunRecord &rec) {
        ++*done;
        if (progress) {
            std::printf("@point %zu %s\n", rec.point.index,
                        rec.ok ? "ok" : "fail");
        }
        if (table) {
            if (rec.ok) {
                std::printf(
                    "[%3zu/%zu] %-8s %-9s seed=%llu  ipc=%7.3f "
                    "irlp=%5.2f readLat=%7.1fns  (%.0f ms)\n",
                    *done, total, rec.point.workload.c_str(),
                    rec.point.label().c_str(),
                    static_cast<unsigned long long>(rec.point.baseSeed),
                    rec.results.ipcSum, rec.results.irlpMean,
                    rec.results.avgReadLatencyNs, rec.wallMs);
            } else {
                std::printf(
                    "[%3zu/%zu] %-8s %-9s seed=%llu  FAILED: %s\n",
                    *done, total, rec.point.workload.c_str(),
                    rec.point.label().c_str(),
                    static_cast<unsigned long long>(rec.point.baseSeed),
                    rec.error.c_str());
            }
        }
        std::fflush(stdout);
    };
    return opts;
}

/** `shard=K/N`: run one slice and write a crash-safe partial. */
int
workerMain(const Config &args, const sweep::SweepSpec &spec,
           const std::string &shard_arg)
{
    const auto ref = sweep::dist::parseShardRef(shard_arg);
    if (!ref) {
        fatal("shard=: '", shard_arg,
              "' is not K/N with 1 <= K <= N (e.g. shard=2/3)");
    }
    if (args.has("csv"))
        fatal("csv= is not available in shard mode; merge the "
              "partials with pcmap-merge first");
    const std::string out_path = args.requireString("jsonl");

    sweep::dist::WorkerJob job;
    job.spec = spec;
    job.shard = *ref;
    job.outPath = out_path;
    job.resumePath = args.getString("resume", "");
    const auto slice = sweep::dist::shardSlice(spec.size(), ref->shard,
                                               ref->shards);
    job.runnerOpts = runnerOptions(args, slice.size(),
                                   /*default_table=*/true);

    std::printf("pcmap-sweep shard %u/%u: points [%zu, %zu) of %zu\n",
                ref->shard, ref->shards, slice.begin, slice.end,
                spec.size());
    const sweep::dist::WorkerOutcome outcome =
        sweep::dist::runShardWorker(job);
    std::printf("shard %u/%u complete: %zu run (%zu resumed), "
                "%zu failed rows -> %s\n",
                ref->shard, ref->shards, outcome.ran, outcome.resumed,
                outcome.failedRows, out_path.c_str());
    // The partial is durably on disk: exit 0 so the orchestrator
    // does not retry deterministic row failures.
    return 0;
}

/** `procs=N`: fork/exec shard workers of this binary and merge. */
int
orchestratorMain(int argc, char **argv, const Config &args,
                 const sweep::SweepSpec &spec)
{
    const unsigned procs = args.getUnsigned("procs", 1);
    if (procs == 0)
        fatal("procs= must be at least 1");
    if (args.has("resume"))
        fatal("resume= applies to shard workers, not procs= mode; "
              "re-running procs= re-runs only what the existing "
              "partials are missing once you pass them to shard "
              "workers yourself");
    if (args.has("csv"))
        fatal("csv= is not available in procs= mode; convert the "
              "merged JSONL instead");
    const std::string out_path = args.requireString("jsonl");
    const std::size_t total = spec.size();

    // Worker command lines: this binary, the original axis keys, and
    // the shard/output/reporting overrides.
    static const std::vector<std::string> kOrchKeys = {
        "procs", "retries", "workerTimeout", "jsonl", "csv",
        "table", "progress", "help",
    };
    std::vector<std::string> forwarded;
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];
        const std::string key = token.substr(0, token.find('='));
        if (std::find(kOrchKeys.begin(), kOrchKeys.end(), key) ==
            kOrchKeys.end()) {
            forwarded.push_back(token);
        }
    }
    std::vector<sweep::dist::WorkerProcSpec> workers;
    std::vector<std::string> partial_paths;
    for (unsigned k = 1; k <= procs; ++k) {
        std::ostringstream name;
        name << "shard" << k << "of" << procs;
        partial_paths.push_back(out_path + "." + name.str());
        sweep::dist::WorkerProcSpec w;
        w.name = name.str();
        w.argv.push_back(argv[0]);
        w.argv.insert(w.argv.end(), forwarded.begin(),
                      forwarded.end());
        w.argv.push_back("shard=" + std::to_string(k) + "/" +
                         std::to_string(procs));
        w.argv.push_back("jsonl=" + partial_paths.back());
        w.argv.push_back("table=false");
        w.argv.push_back("progress=true");
        workers.push_back(std::move(w));
    }

    sweep::dist::Orchestrator::Options opts;
    opts.maxAttempts = 1 + args.getUnsigned("retries", 2);
    opts.timeoutSec = args.getDouble("workerTimeout", 0.0);
    std::size_t done = 0;
    opts.onLine = [&](std::size_t w, const std::string &line) {
        std::size_t idx = 0;
        char status[8] = {0};
        if (std::sscanf(line.c_str(), "@point %zu %7s", &idx,
                        status) == 2) {
            ++done;
            std::printf("[%3zu/%zu] shard %zu: point %zu %s\n", done,
                        total, w + 1, idx, status);
        } else if (!line.empty() && line[0] != '@') {
            std::printf("[shard %zu] %s\n", w + 1, line.c_str());
        }
        std::fflush(stdout);
    };
    opts.onAttemptEnd = [&](std::size_t w,
                            const sweep::dist::WorkerProcResult &r,
                            bool will_retry) {
        if (r.ok)
            return;
        warn("shard ", w + 1, "/", procs, " attempt ", r.attempts,
             r.timedOut ? " timed out" : " failed", " (exit code ",
             r.exitCode, "); ",
             will_retry ? "retrying" : "giving up");
    };

    std::printf("pcmap-sweep: %zu points across %u worker processes "
                "(max %u attempts each)\n",
                total, procs, opts.maxAttempts);
    const sweep::dist::Orchestrator orch(opts);
    const std::vector<sweep::dist::WorkerProcResult> results =
        orch.run(workers);

    bool workers_ok = true;
    for (unsigned k = 0; k < procs; ++k) {
        if (!results[k].ok) {
            std::fprintf(stderr,
                         "pcmap-sweep: shard %u/%u failed after %u "
                         "attempts (exit code %d%s)\n",
                         k + 1, procs, results[k].attempts,
                         results[k].exitCode,
                         results[k].timedOut ? ", timed out" : "");
            workers_ok = false;
        }
    }
    if (!workers_ok)
        return 1;

    std::vector<sweep::dist::Partial> parts;
    parts.reserve(procs);
    for (const std::string &path : partial_paths)
        parts.push_back(sweep::dist::loadPartial(path));
    sweep::dist::MergeOutcome merged;
    std::string err;
    if (!sweep::dist::mergePartials(parts, merged, err))
        fatal("merging worker partials: ", err);
    sweep::dist::atomicWriteFile(out_path, merged.body);
    std::printf("merged %u partials: %zu rows (%zu failed) -> %s\n",
                procs, merged.rows, merged.failedRows,
                out_path.c_str());
    return merged.failedRows == 0 ? 0 : 1;
}

/** Plain single-process mode (optionally multi-threaded). */
int
plainMain(const Config &args, const sweep::SweepSpec &spec)
{
    if (args.has("resume"))
        fatal("resume= needs shard=K/N (use shard=1/1 for a "
              "whole-sweep resumable partial)");
    const std::size_t total = spec.size();
    sweep::SweepRunner::Options opts =
        runnerOptions(args, total, /*default_table=*/true);

    std::printf("pcmap-sweep: %zu points (%zu workloads x %zu systems "
                "x %zu seeds), %u thread%s\n",
                total, spec.workloads.size(),
                spec.systems.size(),
                spec.seeds.size(), std::max(1u, opts.threads),
                opts.threads > 1 ? "s" : "");

    const sweep::SweepRunner runner(opts);
    const sweep::SweepReport report = runner.run(spec);

    if (args.has("jsonl")) {
        const std::string path = args.requireString("jsonl");
        sweep::dist::atomicWriteFile(path, sweep::toJsonl(report));
        std::printf("wrote %zu rows to %s\n", report.rows.size(),
                    path.c_str());
    }
    if (args.has("csv")) {
        const std::string path = args.requireString("csv");
        std::ostringstream csv;
        sweep::writeCsv(report, csv);
        sweep::dist::atomicWriteFile(path, csv.str());
        std::printf("wrote %zu rows to %s\n", report.rows.size(),
                    path.c_str());
    }

    const std::size_t failures = report.failures();
    std::printf("sweep complete: %zu ok, %zu failed\n",
                report.rows.size() - failures, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc <= 1) {
        usage();
        return 0;
    }
    const Config args = Config::fromArgs(argc, argv);
    if (args.getBool("help", false)) {
        usage();
        return 0;
    }
    validateKeys(args);

    const sweep::SweepSpec spec = sweep::specFromConfig(args);
    const bool sharded = args.has("shard");
    const bool orchestrated = args.has("procs");
    if (sharded && orchestrated)
        fatal("shard= and procs= are mutually exclusive (procs= "
              "spawns its own shard workers)");

    if (orchestrated)
        return orchestratorMain(argc, argv, args, spec);
    if (sharded)
        return workerMain(args, spec, args.requireString("shard"));
    return plainMain(args, spec);
}
