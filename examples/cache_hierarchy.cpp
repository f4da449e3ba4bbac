/**
 * @file
 * End-to-end demo of the timed DRAM cache tier: one core pulls the
 * profile-driven stream of workload::SyntheticGenerator (the source
 * System builds for every core) through a CacheTier in front of the
 * PCMap memory system.  It hand-composes the same MemoryPort stack
 * that System builds for tier=dram:... configurations (CoreModel ->
 * CacheTier -> MainMemory) instead of using the prebuilt System.  The
 * tier absorbs write-backs into resident lines, so PCM sees only its
 * dirty victims, each carrying the words dirtied while resident.
 *
 * Usage:
 *   cache_hierarchy [app=canneal] [insts=2000000] [seed=1]
 *                   [mode=RWoW-RDE|Baseline|...]
 */

#include <cstdio>

#include "cache/tier.h"
#include "core/memory_system.h"
#include "core/policy/controller_policy.h"
#include "cpu/core_model.h"
#include "sim/config.h"
#include "workload/generator.h"
#include "workload/profile.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;

    const Config args = Config::fromArgs(argc, argv);
    const workload::AppProfile &prof =
        workload::findProfile(args.getString("app", "canneal"));
    const std::uint64_t insts = args.getUint("insts", 2'000'000);
    const std::uint64_t seed = args.getUint("seed", 1);
    const ControllerPolicy system =
        ControllerPolicy::require(args.getString("mode", "RWoW-RDE"));

    EventQueue eq;
    MemGeometry geom;
    ControllerConfig mc;
    system.applyTo(mc);
    MainMemory memory(mc, geom, eq);
    cache::TierConfig tcfg;
    tcfg.sizeBytes = 2ull << 20;
    cache::CacheTier tier(tcfg, eq, memory);
    workload::SyntheticGenerator source(prof, memory.backingStore(),
                                        seed);

    CoreConfig core_cfg;
    CoreModel core(0, core_cfg, eq, tier, source, insts);
    tier.setRetryCallback([&core] { core.onRetry(); });
    tier.setVerifyCallback([&core](ReqId id, unsigned, bool fault) {
        core.onVerify(id, fault);
    });

    core.start();
    eq.run();
    memory.finalize(eq.now());

    double irlp = 0.0;
    double span = 0.0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (unsigned ch = 0; ch < memory.channels(); ++ch) {
        const MemoryController &mc = memory.controller(ch);
        irlp += mc.irlpArea();
        span += mc.irlpWindowTicks();
        reads += mc.stats().readsCompleted;
        writes += mc.stats().writesCompleted;
    }
    const cache::TierCounters &tc = tier.counters();
    std::printf("%s on %s through a 2 MB tier: IPC %.3f, IRLP %.2f\n",
                prof.name.c_str(), system.label().c_str(), core.ipc(),
                span > 0.0 ? irlp / span : 0.0);
    std::printf("tier hit rate %.1f%%, %llu fills, %llu write-backs "
                "(%.2f dirty words each) -> %llu PCM reads, %llu PCM "
                "writes\n",
                100.0 * tc.hitRate(),
                static_cast<unsigned long long>(tc.fills),
                static_cast<unsigned long long>(tc.writebacks),
                tc.writebacks ? static_cast<double>(
                                    tc.dirtyWordsWrittenBack) /
                                    static_cast<double>(tc.writebacks)
                              : 0.0,
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes));
    return 0;
}
