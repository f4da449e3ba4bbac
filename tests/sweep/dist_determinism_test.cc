/**
 * @file
 * The distributed-sweep headline invariant: running a spec as K shard
 * workers (any K, shards completing in any order) and merging the
 * partials is byte-identical to a single-process `threads=1` run of
 * the same spec.  Also covers resume: a partial with missing or
 * failed rows is completed by re-running exactly those points, again
 * reproducing the identical bytes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/log.h"
#include "sweep/dist/atomic_file.h"
#include "sweep/dist/partial_io.h"
#include "sweep/dist/worker.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"

namespace pcmap::sweep::dist {
namespace {

/** 2 modes x 3 workloads = 6 real simulation points. */
SweepSpec
matrixSpec()
{
    SweepSpec spec;
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.workloads = {"MP1", "MP4", "canneal"};
    spec.configs[0].base.instructionsPerCore = 3000;
    return spec;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "pcmap_dist_" + name;
}

/** Run shard k/n of the spec through the production worker path. */
std::string
runShard(const SweepSpec &spec, unsigned k, unsigned n,
         const std::string &name, const std::string &resume = "")
{
    WorkerJob job;
    job.spec = spec;
    job.shard = {k, n};
    job.outPath = tempPath(name);
    job.resumePath = resume;
    job.runnerOpts.threads = 2;
    runShardWorker(job);
    return job.outPath;
}

TEST(DistDeterminism, MergedShardsAreByteIdenticalToSingleProcess)
{
    const SweepSpec spec = matrixSpec();
    SweepRunner::Options serial;
    serial.threads = 1;
    const std::string reference =
        toJsonl(SweepRunner(serial).run(spec));
    ASSERT_FALSE(reference.empty());

    for (const unsigned shards : {1u, 3u, 4u}) {
        std::vector<Partial> parts;
        // Load in reverse spawn order: merge must not care which
        // shard finished (or is listed) first.
        for (unsigned k = shards; k >= 1; --k) {
            const std::string path = runShard(
                spec, k, shards,
                "full_" + std::to_string(k) + "of" +
                    std::to_string(shards) + ".jsonl");
            parts.push_back(loadPartial(path));
            std::remove(path.c_str());
        }
        MergeOutcome merged;
        std::string err;
        ASSERT_TRUE(mergePartials(parts, merged, err)) << err;
        EXPECT_EQ(merged.body, reference) << shards << " shards";
        EXPECT_EQ(merged.failedRows, 0u);
    }
}

TEST(DistDeterminism, ResumeRerunsOnlyMissingPoints)
{
    const SweepSpec spec = matrixSpec();
    const std::string full =
        runShard(spec, 1, 2, "resume_full.jsonl");
    const std::string full_bytes = readFile(full);

    // Simulate a crash that lost all but the first row.
    const Partial p = loadPartial(full);
    ASSERT_GE(p.rows.size(), 2u);
    const std::string cut = tempPath("resume_cut.jsonl");
    atomicWriteFile(cut,
                    composePartial(p.header, {p.rows[0].line}));

    // Resume: only the missing points run again.
    WorkerJob job;
    job.spec = spec;
    job.shard = {1, 2};
    job.outPath = tempPath("resume_out.jsonl");
    job.resumePath = cut;
    std::vector<std::size_t> reran;
    job.runnerOpts.onRunDone = [&](const RunRecord &rec) {
        reran.push_back(rec.point.index);
    };
    const WorkerOutcome outcome = runShardWorker(job);
    EXPECT_EQ(outcome.resumed, 1u);
    EXPECT_EQ(outcome.ran, p.rows.size() - 1);
    for (const std::size_t idx : reran)
        EXPECT_NE(idx, p.rows[0].index);

    EXPECT_EQ(readFile(job.outPath), full_bytes);
    for (const std::string &path : {full, cut, job.outPath})
        std::remove(path.c_str());
}

TEST(DistDeterminism, ResumeRerunsFailedRows)
{
    // First pass: point 1 fails; its row is recorded as failed.
    SweepSpec spec = matrixSpec();
    WorkerJob job;
    job.spec = spec;
    job.shard = {1, 1};
    job.outPath = tempPath("resume_failed.jsonl");
    // runShardWorker builds its own runner, so inject failure via a
    // workload that cannot be constructed: replace one name.
    job.spec.workloads[1] = "nosuchworkload";
    const WorkerOutcome first = runShardWorker(job);
    EXPECT_GT(first.failedRows, 0u);

    // Resume with the *same* (still-broken) spec: the ok rows are
    // carried over verbatim and only the failed points re-run.
    WorkerJob retry = job;
    retry.resumePath = job.outPath;
    retry.outPath = tempPath("resume_failed_out.jsonl");
    std::size_t reran = 0;
    retry.runnerOpts.onRunDone =
        [&](const RunRecord &) { ++reran; };
    const WorkerOutcome second = runShardWorker(retry);
    EXPECT_EQ(reran, first.failedRows);
    EXPECT_EQ(second.resumed,
              spec.size() - first.failedRows);
    EXPECT_EQ(readFile(retry.outPath), readFile(job.outPath));
    std::remove(job.outPath.c_str());
    std::remove(retry.outPath.c_str());
}

TEST(DistDeterminism, ResumeRejectsMismatchedSpecOrSlice)
{
    const SweepSpec spec = matrixSpec();
    const std::string full =
        runShard(spec, 1, 2, "resume_guard.jsonl");

    ScopedErrorTrap trap;
    // Different spec, same slice: fingerprint mismatch.
    SweepSpec other = spec;
    other.configs[0].base.instructionsPerCore = 4000;
    WorkerJob wrong_spec;
    wrong_spec.spec = other;
    wrong_spec.shard = {1, 2};
    wrong_spec.outPath = tempPath("resume_guard_out.jsonl");
    wrong_spec.resumePath = full;
    EXPECT_THROW(runShardWorker(wrong_spec), SimError);

    // Same spec, different slice: slice mismatch.
    WorkerJob wrong_slice;
    wrong_slice.spec = spec;
    wrong_slice.shard = {2, 2};
    wrong_slice.outPath = tempPath("resume_guard_out.jsonl");
    wrong_slice.resumePath = full;
    EXPECT_THROW(runShardWorker(wrong_slice), SimError);
    std::remove(full.c_str());
}

} // namespace
} // namespace pcmap::sweep::dist
