/**
 * @file
 * Ablation: controller buffer sizing.
 *
 * Sweeps the three finite resources DESIGN.md calls out as modelling
 * choices — the WoW merge cap, the speculative-read verification
 * buffer, and the pending code-update backlog — on the full RWoW-RDE
 * system, and also sweeps the write-drain high watermark (the alpha
 * of Section II-B) on both the baseline and the full system.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    const std::string w = hc.raw.getString("workload", "canneal");
    banner("Ablation: buffer sizing and drain watermark",
           "DESIGN.md ablation index — sensitivity of RWoW-RDE to "
           "controller resources",
           hc);
    std::printf("workload: %s\n\n", w.c_str());

    std::printf("WoW merge cap      ");
    for (const unsigned cap : {1u, 2u, 4u, 8u}) {
        SystemConfig cfg = hc.system(presets::RWoW_RDE);
        cfg.controller.wowMaxMerge = cap;
        std::printf("  cap%-2u %.3f", cap, runWorkload(cfg, w).ipcSum);
    }
    std::printf("\n");

    std::printf("spec-read buffer   ");
    for (const unsigned cap : {2u, 4u, 8u, 16u}) {
        SystemConfig cfg = hc.system(presets::RWoW_RDE);
        cfg.controller.specReadBufferCap = cap;
        std::printf("  cap%-2u %.3f", cap, runWorkload(cfg, w).ipcSum);
    }
    std::printf("\n");

    std::printf("code backlog       ");
    for (const unsigned cap : {4u, 8u, 16u, 64u}) {
        SystemConfig cfg = hc.system(presets::RWoW_RDE);
        cfg.controller.codeUpdateBacklogCap = cap;
        std::printf("  cap%-2u %.3f", cap, runWorkload(cfg, w).ipcSum);
    }
    std::printf("\n\n");

    std::printf("%-22s %10s %10s\n", "drain high watermark",
                "Baseline", "RWoW-RDE");
    rule(46);
    for (const double alpha : {0.5, 0.65, 0.8, 0.9}) {
        SystemConfig base = hc.system(presets::Baseline);
        base.controller.drainHighWatermark = alpha;
        SystemConfig rde = hc.system(presets::RWoW_RDE);
        rde.controller.drainHighWatermark = alpha;
        std::printf("alpha = %.2f           %10.3f %10.3f\n", alpha,
                    runWorkload(base, w).ipcSum,
                    runWorkload(rde, w).ipcSum);
    }
    return 0;
}
