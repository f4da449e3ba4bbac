/**
 * @file
 * Thread-pool execution of a SweepSpec.
 *
 * Each point runs as an isolated simulation on a worker thread; a
 * fatal(), panic(), or thrown exception inside one run is captured as
 * a failed row instead of taking down the sweep.  Results land in a
 * vector indexed by point, so the report is byte-for-byte identical
 * no matter how many threads executed it or in which order runs
 * completed.
 */

#ifndef PCMAP_SWEEP_SWEEP_RUNNER_H
#define PCMAP_SWEEP_SWEEP_RUNNER_H

#include <functional>
#include <string>
#include <vector>

#include "obs/obs_config.h"
#include "sim/stats.h"
#include "sweep/sweep_spec.h"

namespace pcmap::sweep {

/** Outcome of one sweep point. */
struct RunRecord
{
    SweepPoint point;
    bool ok = false;
    /** Failure description when !ok ("fatal: ...", "panic: ..."). */
    std::string error;
    /** Harvested metrics (valid when ok). */
    SystemResults results{};
    /** Flattened SystemStatExport counters (valid when ok). */
    stats::FlatStats stats;
    /** Wall-clock cost of this run; informational only — never part
     *  of the stable serialized output. */
    double wallMs = 0.0;
};

/** All rows of one sweep, ordered by point index. */
struct SweepReport
{
    std::vector<RunRecord> rows;

    std::size_t failures() const;
    /** Row whose point label (SweepPoint::label()) matches; nullptr
     *  if absent. */
    const RunRecord *find(const std::string &config,
                          const std::string &label,
                          const std::string &workload,
                          std::uint64_t base_seed) const;
};

/** Executes sweeps; cheap to construct, reusable across specs. */
class SweepRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 or 1 runs inline on the caller. */
        unsigned threads = 1;
        /** Also export the full SystemStatExport counter listing. */
        bool collectStats = true;
        /**
         * Per-run observability (tracing / epoch timeline).  Applied
         * to every point's config; never affects results or the spec
         * fingerprint.
         */
        obs::ObsConfig obs{};
        /**
         * Where per-point observability files land:
         * "<prefix>.point<I>.trace.json" (Chrome trace) and
         * "<prefix>.point<I>.timeline.jsonl" (epoch samples).  The
         * point index I is unique across threads and shards, so the
         * file set is deterministic at any thread count.  Required
         * when obs.enabled(); files are written atomically.
         */
        std::string obsPathPrefix;
        /** Called after each run completes (from the worker thread,
         *  under a mutex — safe to print from).  Optional. */
        std::function<void(const RunRecord &)> onRunDone;
    };

    /**
     * How one point is executed.  The default builds a System from
     * point.config, runs it, and fills results (+stats when enabled).
     * Tests and embedders may substitute their own.
     */
    using RunFn = std::function<void(const SweepPoint &, RunRecord &)>;

    SweepRunner() : SweepRunner(Options()) {}
    explicit SweepRunner(Options options);

    /** Replace the per-point executor (rec.ok is managed by run()). */
    void setRunFn(RunFn fn);

    /** Execute every point of @p spec; never throws for per-run
     *  failures. */
    SweepReport run(const SweepSpec &spec) const;

    /**
     * Execute an explicit point list (e.g. one shard's slice of an
     * expanded spec, or only the points a resume found missing).
     * Points keep the indices and derived seeds they were expanded
     * with; report rows come back in the order given.
     */
    SweepReport runPoints(const std::vector<SweepPoint> &points) const;

  private:
    Options opts;
    RunFn runFn;
};

} // namespace pcmap::sweep

#endif // PCMAP_SWEEP_SWEEP_RUNNER_H
