/**
 * @file
 * Top-level system assembly: the paper's evaluated platform of eight
 * cores over a 4-channel, 8 GB PCM main memory (Table I), driven by a
 * named workload, with the result metrics every experiment harvests.
 */

#ifndef PCMAP_CORE_SYSTEM_H
#define PCMAP_CORE_SYSTEM_H

#include <array>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "core/controller_config.h"
#include "core/memory_system.h"
#include "core/policy/controller_policy.h"
#include "cpu/core_model.h"
#include "fabric/fabric.h"
#include "obs/obs_config.h"
#include "sim/event_queue.h"
#include "workload/generator.h"
#include "workload/mixes.h"

namespace pcmap {

namespace obs {
class RunObserver;
} // namespace obs

namespace fabric {
class LinkModel;
class TenantStream;
} // namespace fabric

/** Full parameterization of a simulated system. */
struct SystemConfig
{
    MemGeometry geometry{};   ///< 4 channels, 8 GB by default.
    CoreConfig core{};        ///< Core model parameters.
    unsigned numCores = 8;
    std::uint64_t instructionsPerCore = 2'000'000;
    std::uint64_t seed = 1;

    /**
     * Every channel's controller: its mechanism switches are the
     * system (ControllerPolicy::applyTo sets them), its timing the
     * PCM device.  banksPerRank and footprintLinesHint are derived
     * (see controllerConfig()).
     */
    ControllerConfig controller{};

    /**
     * Multi-tenant request fabric (front-end streams + link).  Off by
     * default (no tenants); a disabled fabric constructs nothing and
     * the system is byte-identical to the pre-fabric code.
     */
    fabric::FabricConfig fabric{};

    /**
     * DRAM cache tier between the request sources (or fabric link)
     * and the PCM controller.  Off by default (sizeBytes 0); a
     * disabled tier constructs nothing at all, so tier=none is
     * byte-identical to the pre-tier code by construction.
     */
    cache::TierConfig tier{};

    /**
     * Observability (tracing + epoch time-series).  Never affects
     * simulated behaviour and is excluded from sweep fingerprints and
     * serialized results.
     */
    obs::ObsConfig obs{};

    /**
     * controller with banksPerRank taken from geometry and the
     * host-side @p footprint_lines_hint; fatal() when inconsistent.
     */
    ControllerConfig
    controllerConfig(std::uint64_t footprint_lines_hint) const;
};

/** Metrics harvested from one run (aggregated over cores/channels). */
struct SystemResults
{
    std::string workload;
    ControllerPolicy system;

    std::vector<double> coreIpc;
    double ipcSum = 0.0; ///< system throughput: sum of per-core IPC

    double avgReadLatencyNs = 0.0;
    /** Completed writes per second of write-service window time. */
    double writeThroughput = 0.0;
    double irlpMean = 0.0;
    double irlpMax = 0.0;
    double pctReadsDelayedByWrite = 0.0;
    double avgEssentialWords = 0.0;
    /** essentialPct[i]: % of non-coalesced write-backs with i dirty words. */
    std::array<double, 9> essentialPct{};

    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t rowReads = 0;
    std::uint64_t deferredEccReads = 0;
    std::uint64_t specReads = 0;
    std::uint64_t consumedBeforeVerify = 0;
    std::uint64_t rollbacks = 0;
    std::uint64_t twoStepWrites = 0;
    std::uint64_t wowGroups = 0;
    std::uint64_t wowMergedWrites = 0;
    std::uint64_t readsIssuedDuringDrain = 0;
    double avgReadQueueWaitNs = 0.0;

    // Multi-round (MLC+) write programming; both zero on single-round
    // organizations, so downstream reporting gates on
    // writeRoundsIssued > 0 and org=slc output is unchanged.
    std::uint64_t writeRoundsIssued = 0;
    std::uint64_t writeRoundPauses = 0;

    // DRAM cache tier; all zero when tier=none, so downstream
    // reporting gates on cacheHits + cacheMisses > 0 and the default
    // dump is unchanged.
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheFills = 0;
    std::uint64_t cacheWritebacks = 0;
    std::uint64_t cacheDirtyWordsWrittenBack = 0;
    double cacheHitRate = 0.0;

    // --- Energy (microjoules) and endurance ---
    double energyUj = 0.0;
    double energyArrayReadUj = 0.0;
    double energySetUj = 0.0;
    double energyResetUj = 0.0;
    std::uint64_t bitsSet = 0;
    std::uint64_t bitsReset = 0;
    /** Max/mean per-chip write ratio (1.0 = perfectly even wear). */
    double wearChipImbalance = 1.0;
    double wearChipCv = 0.0;

    Tick simTicks = 0;

    /** Measured system RPKI / WPKI (sanity vs. Table II). */
    double rpki = 0.0;
    double wpki = 0.0;

    // --- Host-side kernel counters -------------------------------------
    // Deterministic (the same build and config always executes the
    // identical event sequence), but host-facing: they feed the
    // perf::RunMetrics reports of the bench harnesses and
    // tools/pcmap-perf, and are never part of serialized sweep output.
    std::uint64_t instRetired = 0;        ///< total across cores
    std::uint64_t hostEventsExecuted = 0; ///< EventQueue counter
    std::uint64_t hostScheduleCalls = 0;  ///< EventQueue counter
};

/**
 * A complete simulated system.  Construct, run(), then inspect the
 * results (the object stays alive for deeper post-run inspection of
 * controllers and cores).
 */
class System
{
  public:
    System(const SystemConfig &cfg, const workload::WorkloadSpec &spec);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion and harvest metrics. */
    SystemResults run();

    MainMemory &memory() { return *mem; }
    EventQueue &eventQueue() { return eventq; }
    const CoreModel &core(unsigned i) const { return *cores[i]; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores.size());
    }

    /** The request fabric's link, or null when the fabric is off. */
    fabric::LinkModel *fabricLink() { return link.get(); }
    const fabric::LinkModel *fabricLink() const { return link.get(); }

    /** The DRAM cache tier, or null when tier=none. */
    cache::CacheTier *cacheTier() { return tier.get(); }
    const cache::CacheTier *cacheTier() const { return tier.get(); }

    /** Open-loop stream of tenant @p t, or null (closed / fabric off). */
    const fabric::TenantStream *
    tenantStream(unsigned t) const
    {
        return t < tenantStreams.size() ? tenantStreams[t].get()
                                        : nullptr;
    }

    /**
     * The run's observer (trace ring + epoch timeline), or null when
     * observability is disabled (cfg.obs.enabled() == false).
     */
    obs::RunObserver *observer() { return obsRun.get(); }
    const obs::RunObserver *observer() const { return obsRun.get(); }

  private:
    /** Append one cumulative timeline sample taken at @p tick. */
    void sampleEpoch(Tick tick);
    /** Schedule the next epoch sample at absolute tick @p at. */
    void scheduleEpochSample(Tick at);

    SystemConfig cfg;
    workload::WorkloadSpec spec;
    EventQueue eventq;
    std::unique_ptr<MainMemory> mem;
    /** DRAM cache tier in front of mem; null when tier=none. */
    std::unique_ptr<cache::CacheTier> tier;
    /** Owning tenant per core (empty when the fabric is off). */
    std::vector<unsigned> coreTenant;
    /** Front-end link; null when the fabric is off. */
    std::unique_ptr<fabric::LinkModel> link;
    /**
     * Per-core generator/core pairs.  A core slot owned by an
     * open-loop tenant holds nullptr in both vectors — its traffic
     * comes from the tenant's stream instead.
     */
    std::vector<std::unique_ptr<workload::SyntheticGenerator>> sources;
    std::vector<std::unique_ptr<CoreModel>> cores;
    /** One stream per open-loop tenant (indexed by tenant id). */
    std::vector<std::unique_ptr<fabric::TenantStream>> tenantStreams;
    std::unique_ptr<obs::RunObserver> obsRun;
    EventHandle epochEvent;
};

/** Convenience: build and run one (system, workload) point. */
SystemResults runWorkload(const SystemConfig &cfg,
                          const std::string &workload_name);

/** Write a full human-readable report of one run to @p os. */
void dumpResults(const SystemResults &results, std::ostream &os);

} // namespace pcmap

#endif // PCMAP_CORE_SYSTEM_H
