/**
 * @file
 * Figure 8: intra-rank-level parallelism during writes, per workload
 * and system configuration (absolute values, max 8 data chips).
 *
 * Paper anchors: baseline IRLP ~2 (MT) / ~2.4 (MP); WoW + rotation
 * raises it to ~3.5 (MT) and close to 8 for MP1-MP3; overall PCMap
 * average 4.5, best workload 7.4.
 *
 * The run matrix (6 systems x the evaluated workloads) is declared as a
 * sweep::SweepSpec and executed via the sweep runner; pass threads=N
 * to parallelize and jsonl=PATH to keep the raw rows.
 */

#include "bench_common.h"

namespace {

double
irlpMetric(const pcmap::SystemResults &r)
{
    return r.irlpMean;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pcmap::bench;
    return figureMain(
        argc, argv,
        {"Figure 8: IRLP during writes (absolute, max 8)",
         "Fig. 8 + Section I — baseline 2.37 avg; RWoW-RDE 4.5 avg, "
         "up to 7.4",
         irlpMetric, /*normalize=*/false});
}
