/**
 * @file
 * The full command-line simulator: run any workload on any system
 * configuration with every knob exposed, and dump the complete metric
 * report.  This is the binary a downstream user scripts against.
 *
 * Usage examples:
 *   pcmap_sim workload=canneal mode=RWoW-RDE insts=2000000
 *   pcmap_sim workload=MP4 mode=all insts=500000
 *   pcmap_sim workload=stream readns=30 writens=120 wq=64 alpha=0.7
 *
 * Keys (all optional):
 *   workload   MP1..MP6, any profile name (default MP1)
 *   mode       Baseline|RoW-NR|WoW-NR|RWoW-NR|RWoW-RD|RWoW-RDE|all,
 *              or a composition such as row+rd
 *   insts      instructions per core           (default 1000000)
 *   cores      number of cores                 (default 8)
 *   seed       simulation seed                 (default 1)
 *   org        PCM cell organization slc|mlc|tlc|qlc (default slc);
 *              applied before readns/writens so those still override
 *   readns     PCM array read latency, ns      (default 60)
 *   writens    PCM SET latency, ns             (default 120)
 *   wq / rq    write / read queue capacities   (default 32 / 8)
 *   alpha      write-drain high watermark      (default 0.8)
 *   wowmerge   max writes per WoW group        (default 8)
 *   faulty     Table IV faulty-system mode     (default false)
 *   multiword  Section IV-B4 multi-word RoW    (default false); only
 *              systems with RoW and without WoW act on it, so a mode
 *              that runs none of them is a fatal
 *   perbankwq  per-bank 32-entry write queues  (default false)
 *   cancel     write cancellation (baseline only, HPCA'10 comparator)
 *   preset     PreSET fast-RESET writes (baseline only, ISCA'12)
 *   ranks      ranks per channel (1-4)         (default 1)
 *   channels   memory channels                 (default 4)
 *   stats      also dump per-channel gem5-style stats (default false)
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/system.h"
#include "sim/config.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "workload/mixes.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;

    const Config args = Config::fromArgs(argc, argv);
    const std::string workload = args.getString("workload", "MP1");
    const std::string mode_name = args.getString("mode", "RWoW-RDE");

    SystemConfig cfg;
    cfg.instructionsPerCore = args.getUint("insts", 1'000'000);
    cfg.numCores = args.getUnsigned("cores", 8);
    cfg.seed = args.getUint("seed", 1);
    ControllerConfig &mc = cfg.controller;
    if (args.has("org")) {
        const std::string org_name = args.requireString("org");
        const auto org = deviceOrgFromName(org_name);
        if (!org) {
            fatal("unknown device organization '", org_name,
                  "' (known: ", deviceOrgNames(), ")");
        }
        mc.timing = mc.timing.withOrg(*org);
    }
    mc.timing.arrayReadNs = args.getDouble("readns", mc.timing.arrayReadNs);
    mc.timing.setNs = args.getDouble("writens", mc.timing.setNs);
    mc.writeQueueCap = args.getUnsigned("wq", mc.writeQueueCap);
    mc.readQueueCap = args.getUnsigned("rq", mc.readQueueCap);
    mc.drainHighWatermark = args.getDouble("alpha", mc.drainHighWatermark);
    mc.wowMaxMerge = args.getUnsigned("wowmerge", mc.wowMaxMerge);
    cfg.core.assumeAlwaysFaulty = args.getBool("faulty", false);
    mc.rowMultiWordWrites = args.getBool("multiword", false);
    mc.perBankWriteQueues = args.getBool("perbankwq", false);
    mc.enableWriteCancellation = args.getBool("cancel", false);
    mc.enablePreset = args.getBool("preset", false);
    cfg.geometry.ranksPerChannel = args.getUnsigned("ranks", 1);
    cfg.geometry.channels = args.getUnsigned("channels", 4);

    std::vector<ControllerPolicy> systems;
    if (mode_name == "all")
        systems.assign(std::begin(kPaperSystems), std::end(kPaperSystems));
    else
        systems.push_back(ControllerPolicy::require(mode_name, {"all"}));
    // Only the pass-through coalescer (RoW without WoW) splits
    // multi-word writes; under any other system the key is a no-op.
    if (mc.rowMultiWordWrites &&
        std::none_of(systems.begin(), systems.end(),
                     [](const ControllerPolicy &p) {
                         return p.enableRoW && !p.enableWoW;
                     })) {
        fatal("multiword=1 acts only on systems with RoW and without "
              "WoW (RoW-NR, or a composition such as row+rd); mode=",
              mode_name, " runs none of them");
    }

    const bool dump_stats = args.getBool("stats", false);
    for (const ControllerPolicy &system : systems) {
        system.applyTo(mc);
        System sys(cfg,
                   workload::makeWorkload(workload, cfg.numCores));
        dumpResults(sys.run(), std::cout);
        if (dump_stats) {
            stats::Writer writer(std::cout);
            sys.exportStats(writer);
        }
        std::cout << "\n";
    }
    return 0;
}
