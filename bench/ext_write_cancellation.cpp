/**
 * @file
 * Related-work comparators: write cancellation (Qureshi et al.,
 * HPCA 2010) and PreSET (Qureshi et al., ISCA 2012) against PCMap.
 *
 * Write cancellation aborts an in-progress write when a read arrives,
 * paying the whole pulse again later; PreSET pre-pulses buffered
 * write-backs to all-SET so the eventual write is a fast RESET;
 * PCMap instead overlaps reads and writes on disjoint chips, wasting
 * no work.  This harness pits the conventional DIMM, its two
 * enhancements, and the PCMap systems against each other — the
 * positioning argument of the paper's related-work section.  A second
 * table sweeps the SET latency, where PreSET's payoff should grow
 * with the SET/RESET gap.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Comparator: write cancellation vs PCMap",
           "Section VII (related work) — cancellation trades wasted "
           "write pulses for read latency; PCMap overlaps instead",
           hc);

    const char *workloads[] = {"facesim", "MP3", "canneal", "MP4"};
    HostReport host;

    std::printf("%-22s", "system");
    for (const char *w : workloads)
        std::printf("  %13s", w);
    std::printf("\n");
    rule(80);

    struct Row
    {
        const char *name;
        ControllerPolicy system;
        bool cancel;
        bool preset;
    };
    const Row rows[] = {
        {"Baseline", presets::Baseline, false, false},
        {"Baseline+cancel", presets::Baseline, true, false},
        {"Baseline+preset", presets::Baseline, false, true},
        {"RoW-NR", presets::RoW_NR, false, false},
        {"RWoW-RDE", presets::RWoW_RDE, false, false},
    };

    // IPC (and read latency in parentheses) per cell.
    for (const Row &row : rows) {
        std::printf("%-22s", row.name);
        for (const char *w : workloads) {
            SystemConfig cfg = hc.system(row.system);
            cfg.controller.enableWriteCancellation = row.cancel;
            cfg.controller.enablePreset = row.preset;
            const SystemResults r = runWorkload(cfg, w);
            host.add(r);
            std::printf("  %6.3f(%3.0fns)", r.ipcSum,
                        r.avgReadLatencyNs);
        }
        std::printf("\n");
    }
    std::printf("\ncells: IPC (effective read latency)\n");

    // PreSET vs SET latency.  Note the outcome: under the rank-level
    // write-power constraint (one array-write per chip at a time,
    // which PCMap's baseline IRLP of ~2.4 implies), the background
    // SET pulse cannot hide and PreSET's extra traffic strictly
    // loses; the ISCA'12 design assumed power-unconstrained per-bank
    // write concurrency.  See EXPERIMENTS.md.
    std::printf("\nPreSET gain vs SET latency (MP4, RESET fixed "
                "50 ns):\n");
    std::printf("  %-12s %10s %12s %10s\n", "SET (ns)", "Baseline",
                "Base+preset", "gain");
    rule(50);
    for (const double set_ns : {120.0, 240.0, 480.0}) {
        SystemConfig base = hc.system(presets::Baseline);
        base.controller.timing.setNs = set_ns;
        SystemConfig pre = base;
        pre.controller.enablePreset = true;
        const SystemResults rb = runWorkload(base, "MP4");
        const SystemResults rp = runWorkload(pre, "MP4");
        host.add(rb);
        host.add(rp);
        const double b = rb.ipcSum;
        const double p = rp.ipcSum;
        std::printf("  %-12.0f %10.3f %12.3f %+8.1f%%\n", set_ns, b,
                    p, 100.0 * (p / b - 1.0));
    }
    host.print();
    return 0;
}
