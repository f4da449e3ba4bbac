/**
 * @file
 * Table III: sensitivity of the IPC gain to the write-to-read latency
 * ratio.  Write latency is fixed at 120 ns while the read latency is
 * swept (60/30/20/15 ns for ratios 2x/4x/6x/8x), exactly as in the
 * paper's study.
 *
 * Paper values (IPC improvement over the matched baseline):
 *   RWoW-RDE : 16.6%  18.7%  21.1%  24.3%
 *   RWoW-NR  : 11.3%  13.8%  18.8%  24.7%
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Table III: IPC gain vs write-to-read latency ratio",
           "Table III — RWoW-RDE 16.6/18.7/21.1/24.3%; RWoW-NR "
           "11.3/13.8/18.8/24.7%",
           hc);

    const double ratios[] = {2.0, 4.0, 6.0, 8.0};
    const ControllerPolicy studied[] = {presets::RWoW_RDE,
                                        presets::RWoW_NR};
    const std::vector<std::string> workloads =
        workload::evaluatedWorkloads();

    std::printf("%-22s", "write-to-read latency");
    for (const double r : ratios)
        std::printf("     %3.0fx", r);
    std::printf("\n");
    rule(58);

    for (const ControllerPolicy &system : studied) {
        std::printf("%-22s", system.label().c_str());
        for (const double ratio : ratios) {
            std::vector<double> gains;
            for (const std::string &w : workloads) {
                SystemConfig base = hc.system(presets::Baseline);
                base.controller.timing.arrayReadNs = 120.0 / ratio;
                SystemConfig sys = hc.system(system);
                sys.controller.timing.arrayReadNs = 120.0 / ratio;
                const double b = runWorkload(base, w).ipcSum;
                const double p = runWorkload(sys, w).ipcSum;
                if (b > 0.0)
                    gains.push_back(p / b);
            }
            std::printf("  %6.1f%%", 100.0 * (mean(gains) - 1.0));
        }
        std::printf("\n");
    }
    return 0;
}
