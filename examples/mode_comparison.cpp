/**
 * @file
 * Compare all six evaluated systems (Section V) on one workload and
 * print the full metric panel — the tool to understand *why* a
 * configuration wins: IRLP, effective read latency, write throughput,
 * RoW/WoW activity, deferred verifications, and rollbacks.
 *
 * Usage:
 *   mode_comparison [workload=canneal] [insts=500000] [seed=1]
 *                   [readns=60] [writens=120]
 */

#include <cstdio>

#include "core/system.h"
#include "sim/config.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;

    const Config args = Config::fromArgs(argc, argv);
    const std::string workload = args.getString("workload", "canneal");
    const std::uint64_t insts = args.getUint("insts", 500'000);

    SystemConfig cfg;
    cfg.instructionsPerCore = insts;
    cfg.seed = args.getUint("seed", 1);
    ControllerConfig &mc = cfg.controller;
    mc.timing.arrayReadNs = args.getDouble("readns", 60.0);
    mc.timing.setNs = args.getDouble("writens", 120.0);
    mc.modelCodeUpdateTraffic = args.getBool("codetraffic", true);
    mc.modelVerifyTraffic = args.getBool("verifytraffic", true);
    mc.serveReadsDuringDrain = args.getBool("drainreads", true);
    mc.enableTwoStep = args.getBool("twostep", true);
    mc.writeQueueCap = args.getUnsigned("wq", mc.writeQueueCap);
    mc.readQueueCap = args.getUnsigned("rq", mc.readQueueCap);

    std::printf("workload %s, %llu insts/core, read %gns write %gns\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(insts),
                mc.timing.arrayReadNs, mc.timing.arrayWriteNs());
    std::printf("%-9s %6s %6s %8s %8s %8s %7s %7s %7s %7s %7s %7s %6s\n",
                "system", "IRLP", "maxIR", "rdLatNs", "qWaitNs", "wrThruM",
                "IPCsum", "%rdDly", "rowRd", "eccDfr", "wowMrg",
                "2step", "rollbk");

    for (const ControllerPolicy &system : kPaperSystems) {
        system.applyTo(mc);
        const SystemResults r = runWorkload(cfg, workload);
        std::printf(
            "%-9s %6.2f %6.1f %8.1f %8.1f %8.2f %7.3f %7.1f %7llu %7llu "
            "%7llu %7llu %6llu\n",
            system.label().c_str(), r.irlpMean, r.irlpMax,
            r.avgReadLatencyNs, r.avgReadQueueWaitNs,
            r.writeThroughput / 1e6, r.ipcSum,
            r.pctReadsDelayedByWrite,
            static_cast<unsigned long long>(r.rowReads),
            static_cast<unsigned long long>(r.deferredEccReads),
            static_cast<unsigned long long>(r.wowMergedWrites),
            static_cast<unsigned long long>(r.twoStepWrites),
            static_cast<unsigned long long>(r.rollbacks));
    }
    return 0;
}
