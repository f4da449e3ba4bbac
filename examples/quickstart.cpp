/**
 * @file
 * Quickstart: simulate one workload on the baseline PCM memory and on
 * the full PCMap system (RWoW-RDE), and print the headline metrics the
 * paper reports — IRLP during writes, effective read latency, write
 * throughput, and IPC.
 *
 * Usage:
 *   quickstart [workload=MP1] [insts=1000000] [seed=1]
 */

#include <cstdio>

#include "core/system.h"
#include "sim/config.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;

    const Config args = Config::fromArgs(argc, argv);
    const std::string workload = args.getString("workload", "MP1");
    const std::uint64_t insts = args.getUint("insts", 1'000'000);
    const std::uint64_t seed = args.getUint("seed", 1);

    std::printf("PCMap quickstart: workload %s, %llu insts/core\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(insts));
    std::printf("%-10s %7s %7s %9s %10s %8s %8s %8s\n", "system",
                "IRLP", "maxIRLP", "readLatNs", "wrThru(M/s)", "IPCsum",
                "RPKI", "WPKI");

    SystemResults base;
    for (const ControllerPolicy &system :
         {presets::Baseline, presets::RWoW_RDE}) {
        SystemConfig cfg;
        system.applyTo(cfg.controller);
        cfg.instructionsPerCore = insts;
        cfg.seed = seed;
        const SystemResults r = runWorkload(cfg, workload);
        if (system == presets::Baseline)
            base = r;
        std::printf("%-10s %7.2f %7.1f %9.1f %10.2f %8.3f %8.2f %8.2f\n",
                    system.label().c_str(), r.irlpMean, r.irlpMax,
                    r.avgReadLatencyNs, r.writeThroughput / 1e6,
                    r.ipcSum, r.rpki, r.wpki);
        if (system == presets::RWoW_RDE && base.ipcSum > 0.0) {
            std::printf("\nPCMap vs baseline: IPC %+.1f%%, "
                        "read latency %.2fx, write throughput %.2fx, "
                        "IRLP %.2f -> %.2f\n",
                        100.0 * (r.ipcSum / base.ipcSum - 1.0),
                        r.avgReadLatencyNs / base.avgReadLatencyNs,
                        r.writeThroughput / base.writeThroughput,
                        base.irlpMean, r.irlpMean);
        }
    }
    return 0;
}
