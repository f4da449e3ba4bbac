/**
 * @file
 * The repository benchmark's analysis: sweep JSONL rows read back, the
 * simulated end-to-end and per-layer metrics derived from them, and the
 * row-level correctness checks.
 *
 * Everything here works on the serialized JSONL, not on the
 * simulator's result structs, so refactors behind the JSONL format need
 * no change here, and the checks are unit-tested on hand-built rows.
 */

#ifndef PCMAP_BENCH_ANALYSIS_H
#define PCMAP_BENCH_ANALYSIS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcmap::repobench {

/** One sweep JSONL line read back. */
struct Row
{
    std::string mode; ///< system label, e.g. "RWoW-RDE@qlc"
    std::string workload;
    bool ok = false; ///< also false for a line that does not parse
    std::map<std::string, double> metrics;
    std::map<std::string, double> stats;
};

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Work attempted and failures seen; any failure fails the run. */
struct Tally
{
    std::uint64_t attempted = 0; ///< point executions
    std::uint64_t failed = 0;    ///< failed points plus failed checks

    /** Unless @p ok, count a failure and print "FAIL: <what>". */
    bool expect(bool ok, const std::string &what);
};

/** What the rows of one report must satisfy besides being ok. */
struct Expectations
{
    /** digest() the whole JSONL must have; empty skips the check. */
    std::string digest;
    /** Instructions each row's closed-loop cores retire together. */
    std::uint64_t instsPerRow = 0;
};

/** A workload's Baseline row and its RWoW-RDE row (same org). */
struct Pair
{
    const Row *base = nullptr;
    const Row *pcmap = nullptr;
};

/**
 * The paper's Fig. 8-11 quantities, RWoW-RDE against Baseline, and
 * the matrix's tenant-0 read tail.
 */
struct SimSummary
{
    double ipcRatio = 0.0;      ///< geomean ipcSum ratio
    double readLatRatio = 0.0;  ///< geomean avgReadLatencyNs ratio
    double irlpMean = 0.0;      ///< mean RWoW-RDE write-time IRLP
    double writeTputGain = 0.0; ///< geomean writeThroughput ratio
    double t0ReadP99Ns = 0.0;   ///< geomean tenant-0 read p99 of all rows
};

/** Parse a sweep JSONL document, one Row per line. */
std::vector<Row> parseJsonl(const std::string &jsonl);

/** FNV-1a 64-bit digest of @p text as 16 hex digits. */
std::string digest(const std::string &text);

/** Median (mean of the middle two for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * Geometric mean of num[i] / den[i]; 0 when the lists are empty, of
 * different lengths, or hold a non-positive value.
 */
double geomeanRatio(const std::vector<double> &num,
                    const std::vector<double> &den);

/** m[key], or 0 when absent. */
double value(const std::map<std::string, double> &m,
             const std::string &key);

/**
 * Cores that run closed-loop when @p tenant_rates gives each tenant's
 * open-loop rate (0 = closed loop; empty = no fabric, all closed).
 */
unsigned closedLoopCores(unsigned cores,
                         const std::vector<double> &tenant_rates);

/**
 * Exact attribution conservation, in ticks, for every
 * attrib.t<T>.<op> family of @p row: the unattributed residual is
 * zero; write and write-back phases sum to totalSumNs; read phases
 * exceed it by exactly their verifyDefer + rollbackRedo annex.
 * Returns the first violation, or "" (also for rows without
 * attribution).
 */
std::string conservationError(const Row &row);

/** @p a and @p b agree on everything outside the attrib.* stats. */
bool equalIgnoringAttrib(const Row &a, const Row &b);

/**
 * The row-level correctness gate: the JSONL digest (when expected),
 * and for every row: it ran, its attribution conserves, and its
 * closed-loop cores retired @p inst_retired[i] == want.instsPerRow
 * instructions.  Each failure counts once into @p tally.
 */
void checkRows(Tally &tally, const std::string &jsonl,
               const std::vector<Row> &rows,
               const std::vector<std::uint64_t> &inst_retired,
               const Expectations &want);

/** Baseline / RWoW-RDE row pairs, one per workload and org. */
std::vector<Pair> pairs(const std::vector<Row> &rows);

/** The end-to-end simulated metrics over all pairs of @p rows. */
SimSummary summarize(const std::vector<Row> &rows);

/**
 * Simulated per-layer metrics summed (counts), pooled (fractions) or
 * maximized (p99s) over @p rows; the tenant-0 read phase shares come
 * from @p attrib_rows, the same matrix with attribution on.  Layers a
 * workload does not build report 0.
 */
std::vector<Metric> simLayers(const std::vector<Row> &rows,
                              const std::vector<Row> &attrib_rows);

} // namespace pcmap::repobench

#endif // PCMAP_BENCH_ANALYSIS_H
