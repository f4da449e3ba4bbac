/**
 * @file
 * End-to-end fault injection: corrupt stored bits underneath a full
 * PCMap system and confirm the machinery the paper describes fires —
 * inline SECDED corrects plain reads silently, deferred verification
 * flags speculative reads, and genuine faults (not the Table IV
 * pessimistic assumption) produce rollbacks.
 */

#include <gtest/gtest.h>

#include "core/system.h"
#include "sim/rng.h"

namespace pcmap {
namespace {

/** Corrupt one data bit in a spread of lines under the given system. */
void
corruptLines(System &sys, unsigned lines, std::uint64_t seed)
{
    Rng rng(seed);
    BackingStore &store = sys.memory().backingStore();
    for (unsigned i = 0; i < lines; ++i) {
        // Spread across the cores' address regions (the evaluated
        // footprints are 256 MB = 4M lines per core).
        const std::uint64_t line = rng.below(4ull << 20);
        store.corruptDataBit(line,
                             static_cast<unsigned>(rng.below(512)));
    }
}

SystemConfig
cfgFor(const ControllerPolicy &system)
{
    SystemConfig cfg;
    system.applyTo(cfg.controller);
    cfg.numCores = 4;
    cfg.instructionsPerCore = 100'000;
    cfg.seed = 41;
    return cfg;
}

TEST(FaultInjection, BaselineCorrectsInline)
{
    // Plain reads run inline SECDED: corruption never escapes, no
    // speculative machinery exists to roll back.
    System sys(cfgFor(presets::Baseline),
               workload::makeWorkload("MP4", 4));
    corruptLines(sys, 300'000, 1);
    const SystemResults r = sys.run();
    EXPECT_GT(r.readsCompleted, 0u);
    EXPECT_EQ(r.rollbacks, 0u);
    EXPECT_EQ(r.specReads, 0u);
}

TEST(FaultInjection, PcmapDetectsFaultsOnDeferredVerify)
{
    System sys(cfgFor(presets::RWoW_RDE),
               workload::makeWorkload("MP4", 4));
    corruptLines(sys, 600'000, 2);
    const SystemResults r = sys.run();
    EXPECT_GT(r.specReads, 0u);
    // Some speculative reads must have hit corrupted lines; the
    // deferred checks report them.  (Counted per controller.)
    std::uint64_t faults = 0;
    for (unsigned ch = 0; ch < sys.memory().channels(); ++ch)
        faults += sys.memory().controller(ch).stats().faultsDetected;
    EXPECT_GT(faults, 0u);
}

TEST(FaultInjection, RealFaultsCanRollBack)
{
    // With enough corruption, at least one faulty speculative read is
    // consumed before its check and triggers a genuine rollback —
    // without the Table IV always-faulty assumption.
    SystemConfig cfg = cfgFor(presets::RWoW_RDE);
    cfg.core.commitDelay = 0; // consume instantly: maximal exposure
    System sys(cfg, workload::makeWorkload("canneal", 4));
    corruptLines(sys, 600'000, 3);
    const SystemResults r = sys.run();
    std::uint64_t faults = 0;
    for (unsigned ch = 0; ch < sys.memory().channels(); ++ch)
        faults += sys.memory().controller(ch).stats().faultsDetected;
    if (faults > 0) {
        EXPECT_GT(r.rollbacks, 0u);
    }
    EXPECT_GT(r.ipcSum, 0.0); // the system survives its faults
}

TEST(FaultInjection, CleanRunHasNoFaults)
{
    System sys(cfgFor(presets::RWoW_RDE),
               workload::makeWorkload("MP4", 4));
    const SystemResults r = sys.run();
    std::uint64_t faults = 0;
    for (unsigned ch = 0; ch < sys.memory().channels(); ++ch)
        faults += sys.memory().controller(ch).stats().faultsDetected;
    EXPECT_EQ(faults, 0u);
    EXPECT_EQ(r.rollbacks, 0u);
}

} // namespace
} // namespace pcmap
