#include "sweep/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/attrib.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "sim/log.h"
#include "sweep/dist/atomic_file.h"
#include "workload/mixes.h"

namespace pcmap::sweep {

std::size_t
SweepReport::failures() const
{
    std::size_t n = 0;
    for (const RunRecord &r : rows) {
        if (!r.ok)
            ++n;
    }
    return n;
}

const RunRecord *
SweepReport::find(const std::string &config, const std::string &label,
                  const std::string &workload,
                  std::uint64_t base_seed) const
{
    for (const RunRecord &r : rows) {
        if (r.point.configName == config && r.point.label() == label &&
            r.point.workload == workload &&
            r.point.baseSeed == base_seed) {
            return &r;
        }
    }
    return nullptr;
}

SweepRunner::SweepRunner(Options options) : opts(std::move(options))
{
    const bool collect_stats = opts.collectStats;
    const obs::ObsConfig obs_cfg = opts.obs;
    const std::string obs_prefix = opts.obsPathPrefix;
    runFn = [collect_stats, obs_cfg,
             obs_prefix](const SweepPoint &p, RunRecord &rec) {
        SystemConfig cfg = p.config;
        cfg.obs = obs_cfg;
        System sys(cfg,
                   workload::makeWorkload(p.workload, cfg.numCores));
        rec.results = sys.run();
        const obs::RunObserver *ob = sys.observer();
        const obs::attrib::AttribCollector *attrib =
            ob != nullptr ? ob->attribCollector() : nullptr;
        if (collect_stats) {
            // fabric.*, cache.* and attrib.* keys exist only on runs
            // that built that layer, so legacy rows keep their exact
            // column set.
            stats::Writer writer(rec.stats);
            sys.exportStats(writer);
        }
        if (ob != nullptr && !obs_prefix.empty()) {
            const std::string base =
                obs_prefix + ".point" + std::to_string(p.index);
            if (ob->recorder() != nullptr) {
                dist::atomicWriteFile(
                    base + ".trace.json",
                    obs::chromeTraceJson(ob->recorder()->ring()));
            }
            if (obs_cfg.epochTicks > 0) {
                dist::atomicWriteFile(
                    base + ".timeline.jsonl",
                    obs::timelineJsonl(ob->timeline()));
            }
            if (attrib != nullptr) {
                dist::atomicWriteFile(
                    base + ".attrib.jsonl",
                    obs::attrib::attribJsonl(*attrib));
            }
        }
    };
}

void
SweepRunner::setRunFn(RunFn fn)
{
    runFn = std::move(fn);
}

SweepReport
SweepRunner::run(const SweepSpec &spec) const
{
    return runPoints(spec.expand());
}

SweepReport
SweepRunner::runPoints(const std::vector<SweepPoint> &points) const
{
    SweepReport report;
    report.rows.resize(points.size());

    std::atomic<std::size_t> cursor{0};
    std::mutex done_mutex;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size())
                return;
            RunRecord &rec = report.rows[i];
            rec.point = points[i];
            const auto start = std::chrono::steady_clock::now();
            try {
                // Within this run, fatal()/panic() throw SimError so a
                // bad point becomes a failed row, not a dead sweep.
                ScopedErrorTrap trap;
                runFn(points[i], rec);
                rec.ok = true;
            } catch (const SimError &e) {
                rec.ok = false;
                rec.error = std::string(e.kind() ==
                                                SimError::Kind::Fatal
                                            ? "fatal: "
                                            : "panic: ") +
                            e.what();
            } catch (const std::exception &e) {
                rec.ok = false;
                rec.error = std::string("exception: ") + e.what();
            } catch (...) {
                rec.ok = false;
                rec.error = "unknown exception";
            }
            rec.wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (opts.onRunDone) {
                std::lock_guard<std::mutex> lock(done_mutex);
                opts.onRunDone(rec);
            }
        }
    };

    const unsigned threads =
        std::max(1u, std::min<unsigned>(
                         opts.threads,
                         static_cast<unsigned>(points.size())));
    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return report;
}

} // namespace pcmap::sweep
