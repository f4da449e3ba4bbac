/**
 * @file
 * Extension study: memory-organization scaling.
 *
 * Section II-A notes a channel supports 1-4 ranks and a processor up
 * to four channels; Table I evaluates 4 channels x 1 rank.  This
 * harness sweeps both dimensions and reports baseline and RWoW-RDE
 * IPC plus the PCMap gain — showing that chip-level overlap remains
 * profitable even as organization-level parallelism grows (more
 * ranks/channels attack queueing, PCMap attacks the write-blocked
 * chips within each rank).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    const std::string w = hc.raw.getString("workload", "canneal");
    banner("Extension: rank/channel scaling",
           "Section II-A organization space — PCMap gain across "
           "1-4 ranks and 2-8 channels",
           hc);
    std::printf("workload: %s\n\n", w.c_str());

    std::printf("%-24s %10s %10s %8s\n", "organization", "Baseline",
                "RWoW-RDE", "gain");
    rule(56);
    const unsigned rank_sweep[] = {1, 2, 4};
    const unsigned channel_sweep[] = {2, 4, 8};
    for (const unsigned channels : channel_sweep) {
        for (const unsigned ranks : rank_sweep) {
            SystemConfig base = hc.system(presets::Baseline);
            base.geometry.channels = channels;
            base.geometry.ranksPerChannel = ranks;
            SystemConfig rde = hc.system(presets::RWoW_RDE);
            rde.geometry.channels = channels;
            rde.geometry.ranksPerChannel = ranks;
            const double b = runWorkload(base, w).ipcSum;
            const double r = runWorkload(rde, w).ipcSum;
            std::printf("%u channels x %u rank(s)    %10.3f %10.3f "
                        "%+6.1f%%\n",
                        channels, ranks, b, r, 100.0 * (r / b - 1.0));
        }
    }
    return 0;
}
