/**
 * @file
 * Figure 1: how PCM's asymmetric write latency hurts reads in the
 * baseline system.
 *
 * For each of the 13 SPEC CPU 2006 programs the paper plots, this
 * harness runs the baseline controller twice — once with the real
 * asymmetric PCM timing (write 120 ns vs read 60 ns) and once with a
 * hypothetical symmetric PCM (write = read = 60 ns) — and reports:
 *   - the percentage of reads whose service was delayed by an ongoing
 *     write (the numbers atop Figure 1's bars: 11.5% .. 38.1%), and
 *   - the effective read latency normalized to the symmetric device
 *     (Figure 1's bars: 1.2x .. 1.8x).
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Figure 1: write impact on baseline reads",
           "Fig. 1 — paper reports 11.5%-38.1% of reads delayed and "
           "1.2x-1.8x effective read latency vs symmetric PCM",
           hc);

    std::printf("%-12s %12s %16s %14s %14s\n", "program",
                "%rd-delayed", "latAsymNs", "latSymNs", "normalized");
    rule(74);

    std::vector<double> delayed;
    std::vector<double> ratios;
    for (const std::string &prog : workload::figure1Programs()) {
        SystemConfig asym = hc.system(presets::Baseline);
        const SystemResults ra = runWorkload(asym, prog);

        SystemConfig sym = hc.system(presets::Baseline);
        PcmTiming &t = sym.controller.timing;
        t.setNs = t.arrayReadNs; // symmetric PCM
        t.resetNs = t.arrayReadNs;
        const SystemResults rs = runWorkload(sym, prog);

        const double ratio = rs.avgReadLatencyNs > 0.0
                                 ? ra.avgReadLatencyNs /
                                       rs.avgReadLatencyNs
                                 : 0.0;
        delayed.push_back(ra.pctReadsDelayedByWrite);
        ratios.push_back(ratio);
        std::printf("%-12s %11.1f%% %16.1f %14.1f %13.2fx\n",
                    prog.c_str(), ra.pctReadsDelayedByWrite,
                    ra.avgReadLatencyNs, rs.avgReadLatencyNs, ratio);
    }
    rule(74);
    std::printf("%-12s %11.1f%% %46.2fx\n", "average",
                mean(delayed), mean(ratios));
    std::printf("\npaper: delayed reads span 11.5%%-38.1%%; "
                "normalized latency spans 1.2x-1.8x\n");
    return 0;
}
