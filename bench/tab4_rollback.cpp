/**
 * @file
 * Table IV: the cost of CPU rollbacks for RoW data correction.
 *
 * For the paper's four highest-rollback workloads (canneal, facesim,
 * MP6, ferret) this harness runs the full PCMap system twice:
 *   - "none-faulty": speculative data assumed always correct, no
 *     rollbacks ever (the optimistic bound), and
 *   - "faulty": every speculative read consumed before its deferred
 *     verification triggers a rollback (the pessimistic bound),
 * and reports both IPC improvements over the baseline plus the
 * measured rollback rate (rolled-back reads / all reads).
 *
 * Paper values: rollback rates up to 5.8% (canneal); IPC improvement
 * drops by up to 4.6 points in the faulty system but never below the
 * baseline.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Table IV: RoW rollback cost",
           "Table IV — max rollbacks 5.8% (canneal); faulty-system "
           "IPC gain lower by up to 4.6 points, never below baseline",
           hc);

    const char *workloads[] = {"canneal", "facesim", "MP6", "ferret"};

    std::printf("%-10s %10s %12s %16s %16s\n", "workload",
                "%rollback", "%specReads", "IPCimp-faulty",
                "IPCimp-clean");
    rule(70);

    for (const char *w : workloads) {
        const SystemResults base =
            runPoint(hc, presets::Baseline, w);

        SystemConfig clean_cfg = hc.system(presets::RWoW_RDE);
        const SystemResults clean = runWorkload(clean_cfg, w);

        SystemConfig faulty_cfg = hc.system(presets::RWoW_RDE);
        faulty_cfg.core.assumeAlwaysFaulty = true;
        const SystemResults faulty = runWorkload(faulty_cfg, w);

        const double rollback_pct =
            faulty.readsCompleted
                ? 100.0 * static_cast<double>(faulty.rollbacks) /
                      static_cast<double>(faulty.readsCompleted)
                : 0.0;
        const double spec_pct =
            faulty.readsCompleted
                ? 100.0 * static_cast<double>(faulty.specReads) /
                      static_cast<double>(faulty.readsCompleted)
                : 0.0;
        const double imp_faulty =
            100.0 * (faulty.ipcSum / base.ipcSum - 1.0);
        const double imp_clean =
            100.0 * (clean.ipcSum / base.ipcSum - 1.0);
        std::printf("%-10s %9.2f%% %11.1f%% %15.2f%% %15.2f%%\n", w,
                    rollback_pct, spec_pct, imp_faulty, imp_clean);
    }
    std::printf("\nIPCimp-* are improvements over the baseline; the "
                "faulty column assumes every consumed-before-verify "
                "read rolls back.\n");
    return 0;
}
