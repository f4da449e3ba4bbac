/**
 * @file
 * Ablation: controller scheduling variants.
 *
 * Quantifies what the Section II-B policies are worth on this memory
 * system by swapping each for its naive alternative:
 *
 *   - open-page FR-FCFS (the paper's controller) vs closed-page rows;
 *   - first-ready read scheduling vs strict FCFS arrival order.
 *
 * Reported for the baseline and the full PCMap system on a
 * row-locality-heavy and a row-locality-poor workload.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Ablation: page policy and read scheduling",
           "Section II-B — FR-FCFS over open rows vs the naive "
           "alternatives",
           hc);

    const char *workloads[] = {"libquantum", "canneal"};
    struct Variant
    {
        const char *name;
        PagePolicy page;
        ReadScheduling sched;
    };
    const Variant variants[] = {
        {"open+frfcfs (paper)", PagePolicy::Open,
         ReadScheduling::FrFcfs},
        {"open+fcfs", PagePolicy::Open, ReadScheduling::Fcfs},
        {"closed+frfcfs", PagePolicy::Closed, ReadScheduling::FrFcfs},
        {"closed+fcfs", PagePolicy::Closed, ReadScheduling::Fcfs},
    };

    for (const char *w : workloads) {
        std::printf("workload %s (rowHitRate %.2f):\n", w,
                    workload::findProfile(w).rowHitRate);
        std::printf("  %-22s %10s %10s %12s\n", "variant", "Baseline",
                    "RWoW-RDE", "rdLat(RDE)");
        rule(60);
        for (const Variant &v : variants) {
            SystemConfig base = hc.system(presets::Baseline);
            base.controller.pagePolicy = v.page;
            base.controller.readScheduling = v.sched;
            SystemConfig rde = hc.system(presets::RWoW_RDE);
            rde.controller.pagePolicy = v.page;
            rde.controller.readScheduling = v.sched;
            const SystemResults rb = runWorkload(base, w);
            const SystemResults rr = runWorkload(rde, w);
            std::printf("  %-22s %10.3f %10.3f %10.1fns\n", v.name,
                        rb.ipcSum, rr.ipcSum, rr.avgReadLatencyNs);
        }
        std::printf("\n");
    }
    return 0;
}
