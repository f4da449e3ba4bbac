#include "core/system.h"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "core/policy/controller_policy.h"
#include "fabric/link_model.h"
#include "fabric/tenant.h"
#include "obs/observer.h"
#include "sim/log.h"
#include "sim/stats.h"
#include "workload/profile.h"

namespace pcmap {

ControllerConfig
SystemConfig::controllerConfig(std::uint64_t footprint_lines_hint) const
{
    ControllerConfig mc = controller;
    mc.banksPerRank = geometry.banksPerRank;
    mc.footprintLinesHint = footprint_lines_hint;
    mc.validate();
    return mc;
}

System::System(const SystemConfig &config,
               const workload::WorkloadSpec &workload_spec)
    : cfg(config), spec(workload_spec)
{
    if (spec.cores() != cfg.numCores) {
        fatal("workload '", spec.name, "' provides ", spec.cores(),
              " core apps but the system has ", cfg.numCores, " cores");
    }
    cfg.geometry.validate();

    const bool fab_on = cfg.fabric.enabled();
    const unsigned num_tenants =
        static_cast<unsigned>(cfg.fabric.tenants.size());
    if (fab_on) {
        cfg.fabric.validate(cfg.numCores);
        // Tenants partition the cores into contiguous blocks.
        coreTenant.resize(cfg.numCores);
        for (unsigned i = 0; i < cfg.numCores; ++i)
            coreTenant[i] = i * num_tenants / cfg.numCores;
    }

    // Size the functional stores for the lines this run can actually
    // touch: per core, no more than its footprint and no more than
    // its expected write count (a host-side hint only — results are
    // identical without it).
    std::uint64_t footprint_hint = 0;
    std::uint64_t shared_footprint = 0;
    std::uint64_t shared_writes = 0;
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        const workload::AppProfile &prof =
            workload::findProfile(spec.coreApps[i]);
        const auto writes = static_cast<std::uint64_t>(
            static_cast<double>(cfg.instructionsPerCore) * prof.wpki /
            1000.0);
        if (spec.sharedAddressSpace) {
            // Threads write into one region; together they can touch
            // at most its footprint, and at most their joint writes.
            shared_footprint =
                std::max(shared_footprint, prof.footprintLines);
            shared_writes += writes;
        } else {
            footprint_hint += std::min(prof.footprintLines, writes);
        }
    }
    if (spec.sharedAddressSpace)
        footprint_hint = std::min(shared_footprint, shared_writes);

    const ControllerConfig mc_cfg = cfg.controllerConfig(footprint_hint);
    mem = std::make_unique<MainMemory>(mc_cfg, cfg.geometry, eventq);

    // All request sources drive one port; the stack composes
    // outermost-last: [fabric link ->] [cache tier ->] MainMemory.
    MemoryPort *port = mem.get();
    if (cfg.tier.enabled()) {
        cfg.tier.validate();
        tier = std::make_unique<cache::CacheTier>(cfg.tier, eventq,
                                                  *mem);
        port = tier.get();
    }
    if (fab_on) {
        link = std::make_unique<fabric::LinkModel>(cfg.fabric, coreTenant,
                                                   eventq, *port);
        port = link.get();
    }

    // Carve the physical line space into per-core regions for
    // multi-programmed runs; multi-threaded runs share one region.
    // The carving math is identical with and without a fabric, so a
    // tenant's address region is exactly its core slots' regions.
    const std::uint64_t total_lines = cfg.geometry.totalLines();
    std::uint64_t next_base = 0;
    Rng seeder(cfg.seed);

    /** Accumulated address region of one open-loop tenant. */
    struct OpenRegion
    {
        bool seen = false;
        std::uint64_t base = 0;
        std::uint64_t lines = 0;
        unsigned firstCore = 0;
        const workload::AppProfile *prof = nullptr;
    };
    std::vector<OpenRegion> openRegions(num_tenants);

    for (unsigned i = 0; i < cfg.numCores; ++i) {
        const workload::AppProfile &prof =
            workload::findProfile(spec.coreApps[i]);
        std::uint64_t base = 0;
        std::uint64_t region = prof.footprintLines;
        if (!spec.sharedAddressSpace) {
            base = next_base;
            next_base += region;
            if (next_base > total_lines) {
                fatal("per-core footprints exceed the ",
                      total_lines / (1u << 24),
                      " GB memory; shrink the workload");
            }
        }

        const unsigned t = fab_on ? coreTenant[i] : 0;
        if (fab_on &&
            cfg.fabric.tenants[t].arrival != fabric::ArrivalKind::Closed) {
            // Open-loop slot: no generator/core pair; the tenant's
            // stream injects over the union of its slots' regions.
            sources.push_back(nullptr);
            cores.push_back(nullptr);
            OpenRegion &r = openRegions[t];
            if (!r.seen) {
                r.seen = true;
                r.base = base;
                r.firstCore = i;
                r.prof = &prof;
                r.lines = region;
            } else if (!spec.sharedAddressSpace) {
                r.lines += region;
            }
            continue;
        }

        sources.push_back(
            std::make_unique<workload::SyntheticGenerator>(
                prof, mem->backingStore(),
                cfg.seed * 1000003ull + i * 7919ull, base, region));
        CoreConfig core_cfg = cfg.core;
        if (fab_on && cfg.fabric.tenants[t].window > 0)
            core_cfg.maxOutstandingReads = cfg.fabric.tenants[t].window;
        cores.push_back(std::make_unique<CoreModel>(
            i, core_cfg, eventq, *port, *sources.back(),
            cfg.instructionsPerCore));
    }

    if (fab_on) {
        tenantStreams.resize(num_tenants);
        for (unsigned t = 0; t < num_tenants; ++t) {
            const fabric::TenantSpec &ts = cfg.fabric.tenants[t];
            if (ts.arrival == fabric::ArrivalKind::Closed)
                continue;
            const OpenRegion &r = openRegions[t];
            pcmap_assert(r.seen);
            tenantStreams[t] = std::make_unique<fabric::TenantStream>(
                t, ts, eventq, *port, *r.prof, mem->backingStore(),
                Rng::deriveStream(cfg.seed, t), r.base, r.lines,
                r.firstCore);
        }
    }

    port->setRetryCallback([this]() {
        for (auto &c : cores) {
            if (c)
                c->onRetry();
        }
    });
    port->setVerifyCallback([this](ReqId id, unsigned core_id,
                                   bool fault) {
        if (core_id < cores.size() && cores[core_id])
            cores[core_id]->onVerify(id, fault);
    });

    if (cfg.obs.enabled()) {
        obsRun = std::make_unique<obs::RunObserver>(cfg.obs);
        if (obsRun->recorder() != nullptr) {
            mem->setTraceRecorder(obsRun->recorder());
            if (tier)
                tier->setTraceRecorder(obsRun->recorder());
            if (link)
                link->setTraceRecorder(obsRun->recorder());
        }
        if (obs::attrib::AttribCollector *col =
                obsRun->attribCollector()) {
            // Without a fabric every core is tenant 0 (coreTenant is
            // empty and tenantOf falls back to 0).
            col->configureTenants(fab_on ? num_tenants : 1, coreTenant);
            mem->setAttrib(col);
            if (tier)
                tier->setAttrib(col);
            if (link)
                link->setAttrib(col);
        }
    }
}

System::~System() = default;

void
System::sampleEpoch(Tick tick)
{
    obs::TimelineSample s;
    s.tick = tick;
    unsigned busy_banks = 0;
    unsigned total_banks = 0;
    // Same channel order and summation order as run()'s aggregation
    // loop, so the final post-finalize sample restates the aggregate
    // results bit-for-bit (obs_integration_test relies on this).
    for (unsigned ch = 0; ch < mem->channels(); ++ch) {
        const MemoryController &mc = mem->controller(ch);
        const ControllerStats &cs = mc.stats();
        s.readsCompleted += cs.readsCompleted;
        s.writesCompleted += cs.writesCompleted;
        s.rowReads += cs.rowReads;
        s.deferredEccReads += cs.deferredEccReads;
        s.writesEnqueued += cs.writesEnqueued;
        s.wowGroups += cs.wowGroups;
        s.wowMergedWrites += cs.wowMergedWrites;
        s.irlpArea += mc.irlpArea();
        s.irlpWindowTicks += mc.irlpWindowTicks();
        s.irlpMax = std::max(
            s.irlpMax, static_cast<std::uint32_t>(mc.irlpMaxSeen()));
        s.readQueueDepth += mc.readQueueDepth();
        s.writeQueueDepth += mc.writeQueueDepth();
        busy_banks += mc.busyBankCount(tick);
        total_banks += mc.totalBankCount();
    }
    if (total_banks > 0) {
        s.bankBusyFraction = static_cast<double>(busy_banks) /
                             static_cast<double>(total_banks);
    }
    obsRun->timeline().push(s);
}

void
System::scheduleEpochSample(Tick at)
{
    epochEvent = eventq.schedule(at, [this, at]() {
        sampleEpoch(at);
        scheduleEpochSample(at + cfg.obs.epochTicks);
    });
}

SystemResults
System::run()
{
    for (auto &c : cores) {
        if (c)
            c->start();
    }
    for (auto &t : tenantStreams) {
        if (t)
            t->start();
    }

    const bool epochs = obsRun && cfg.obs.epochTicks > 0;
    if (epochs) {
        // Sample at t = epoch, 2*epoch, ...  The sampler always keeps
        // exactly one pending event alive, so run until it is the only
        // thing left and cancel it: cancelled events never advance
        // time, which keeps now() — and every result — identical to a
        // run without observability.
        scheduleEpochSample(cfg.obs.epochTicks);
        eventq.runUntil([this]() { return eventq.pending() <= 1; });
        eventq.cancel(epochEvent);
        epochEvent = EventHandle();
    } else {
        eventq.run();
    }

    for (const auto &c : cores) {
        if (c && !c->finished()) {
            pcmap_panic("event queue drained but core ", c->id(),
                        " retired only ", c->stats().instRetired,
                        " instructions (simulator deadlock)");
        }
    }

    const Tick end = eventq.now();
    mem->finalize(end);
    if (obsRun != nullptr) {
        // Drop ledgers still open (parked dirty victims, in-flight
        // requests at the instruction target): every sample must have
        // a matching completion.
        if (obs::attrib::AttribCollector *col = obsRun->attribCollector())
            col->finalize();
    }

    // Final exact sample: taken after finalize() closed the
    // time-weighted windows, so the last timeline row restates the
    // aggregate results below bit-for-bit.
    if (epochs)
        sampleEpoch(end);

    SystemResults res;
    res.workload = spec.name;
    res.system = ControllerPolicy::fromConfig(cfg.controller);
    res.simTicks = end;

    // --- Cores ---
    std::uint64_t total_insts = 0;
    for (const auto &c : cores) {
        if (!c)
            continue; // open-loop tenant slot
        res.coreIpc.push_back(c->ipc());
        res.ipcSum += c->ipc();
        const CoreStats &cs = c->stats();
        total_insts += cs.instRetired;
        res.specReads += cs.specReadsSeen;
        res.consumedBeforeVerify += cs.consumedBeforeVerify;
        res.rollbacks += cs.rollbacks;
    }

    // --- Controllers ---
    double lat_weighted = 0.0;
    double irlp_area = 0.0;
    double irlp_span = 0.0;
    std::uint64_t delayed = 0;
    std::uint64_t essential_sum = 0;
    std::uint64_t essential_writes = 0;
    std::array<std::uint64_t, 9> hist{};
    for (unsigned ch = 0; ch < mem->channels(); ++ch) {
        const ControllerStats &s = mem->controller(ch).stats();
        const MemoryController &mc = mem->controller(ch);
        res.readsCompleted += s.readsCompleted;
        res.writesCompleted += s.writesCompleted;
        res.rowReads += s.rowReads;
        res.deferredEccReads += s.deferredEccReads;
        res.twoStepWrites += s.twoStepWrites;
        res.wowGroups += s.wowGroups;
        res.wowMergedWrites += s.wowMergedWrites;
        res.writeRoundsIssued += s.writeRoundsIssued;
        res.writeRoundPauses += s.writeRoundPauses;
        delayed += s.readsDelayedByWrite;
        lat_weighted += s.readLatencySum;
        res.avgReadQueueWaitNs += s.readQueueWaitSum;
        essential_sum += s.essentialWordsSum;
        for (unsigned i = 0; i <= 8; ++i) {
            hist[i] += s.essentialHist[i];
            essential_writes += s.essentialHist[i];
        }
        irlp_area += mc.irlpArea();
        irlp_span += mc.irlpWindowTicks();
        const EnergyBreakdown &eb =
            mem->controller(ch).energy().breakdown();
        res.energyUj += eb.totalUj();
        res.energySetUj += eb.setPj * 1e-6;
        res.energyResetUj += eb.resetPj * 1e-6;
        res.bitsSet += mem->controller(ch).energy().bitsSet();
        res.bitsReset += mem->controller(ch).energy().bitsReset();
        res.irlpMax = std::max(
            res.irlpMax, static_cast<double>(mc.irlpMaxSeen()));
    }

    if (res.readsCompleted > 0) {
        res.avgReadLatencyNs = ticksToNs(static_cast<Tick>(
            lat_weighted / static_cast<double>(res.readsCompleted)));
        res.avgReadQueueWaitNs = ticksToNs(static_cast<Tick>(
            res.avgReadQueueWaitNs /
            static_cast<double>(res.readsCompleted)));
        res.pctReadsDelayedByWrite =
            100.0 * static_cast<double>(delayed) /
            static_cast<double>(res.readsCompleted);
    }
    if (irlp_span > 0.0) {
        res.irlpMean = irlp_area / irlp_span;
        // writes per second of write-service window time
        res.writeThroughput = static_cast<double>(res.writesCompleted) /
                              (irlp_span * 1e-12);
    }
    if (essential_writes > 0) {
        res.avgEssentialWords =
            static_cast<double>(essential_sum) /
            static_cast<double>(essential_writes);
        for (unsigned i = 0; i <= 8; ++i) {
            res.essentialPct[i] = 100.0 * static_cast<double>(hist[i]) /
                                  static_cast<double>(essential_writes);
        }
    }
    {
        // Aggregate per-chip wear slot-wise across channels.
        WearTracker combined;
        for (unsigned ch = 0; ch < mem->channels(); ++ch) {
            const auto &per_chip =
                mem->controller(ch).wear().perChip();
            for (unsigned c = 0; c < kChipsPerRank; ++c) {
                if (per_chip[c] > 0) {
                    combined.recordChipWrite(
                        c, static_cast<unsigned>(per_chip[c]));
                }
            }
        }
        res.wearChipImbalance = combined.chipImbalance();
        res.wearChipCv = combined.chipCv();
    }
    if (total_insts > 0) {
        res.rpki = 1000.0 * static_cast<double>(res.readsCompleted) /
                   static_cast<double>(total_insts);
        res.wpki = 1000.0 * static_cast<double>(res.writesCompleted) /
                   static_cast<double>(total_insts);
    }
    // --- DRAM cache tier (all zero when tier=none) ---
    if (tier) {
        const cache::TierCounters &tc = tier->counters();
        res.cacheHits = tc.hits();
        res.cacheMisses = tc.misses();
        res.cacheFills = tc.fills;
        res.cacheWritebacks = tc.writebacks;
        res.cacheDirtyWordsWrittenBack = tc.dirtyWordsWrittenBack;
        res.cacheHitRate = tc.hitRate();
    }

    res.instRetired = total_insts;
    res.hostEventsExecuted = eventq.counters().eventsExecuted;
    res.hostScheduleCalls = eventq.counters().scheduleCalls;
    return res;
}

void
System::exportStats(stats::Writer &w) const
{
    mem->exportStats(w);
    if (link)
        link->exportStats(w, eventq.now());
    if (tier)
        tier->exportStats(w);
    if (obsRun != nullptr) {
        if (const auto *col = obsRun->attribCollector())
            col->exportStats(w);
    }
}

SystemResults
runWorkload(const SystemConfig &cfg, const std::string &workload_name)
{
    System sys(cfg, workload::makeWorkload(workload_name, cfg.numCores));
    return sys.run();
}

namespace {

void
line(std::ostream &os, const char *name, double value, const char *unit,
     const char *desc)
{
    os << "  " << std::left << std::setw(28) << name << std::right
       << std::setw(14) << std::setprecision(6) << value << " " << unit
       << "  # " << desc << "\n";
}

} // namespace

void
dumpResults(const SystemResults &r, std::ostream &os)
{
    os << "=== " << r.workload << " on " << r.system.label()
       << " ===\n";
    line(os, "simulated.time", static_cast<double>(r.simTicks) / 1e9,
         "ms", "wall time inside the simulation");
    line(os, "ipc.sum", r.ipcSum, "", "system throughput (sum of IPCs)");
    for (std::size_t i = 0; i < r.coreIpc.size(); ++i) {
        line(os, ("ipc.core" + std::to_string(i)).c_str(), r.coreIpc[i],
             "", "per-core IPC");
    }
    line(os, "reads.completed", static_cast<double>(r.readsCompleted),
         "", "PCM reads served");
    line(os, "writes.completed", static_cast<double>(r.writesCompleted),
         "", "PCM write-backs committed");
    line(os, "reads.latency", r.avgReadLatencyNs, "ns",
         "mean effective read latency");
    line(os, "reads.queueWait", r.avgReadQueueWaitNs, "ns",
         "mean time from arrival to array start");
    line(os, "reads.delayedByWrite", r.pctReadsDelayedByWrite, "%",
         "reads held up by write service (Fig. 1)");
    line(os, "writes.throughput", r.writeThroughput / 1e6, "M/s",
         "writes per second of write-service time");
    line(os, "irlp.mean", r.irlpMean, "",
         "chips busy during writes (Fig. 8)");
    line(os, "irlp.max", r.irlpMax, "", "peak concurrent busy chips");
    line(os, "writes.essentialWords", r.avgEssentialWords, "",
         "mean dirty words per write-back (Fig. 2)");
    os << "  essential-word histogram   ";
    for (unsigned i = 0; i <= 8; ++i) {
        os << i << ":" << std::setprecision(3) << r.essentialPct[i]
           << "% ";
    }
    os << "\n";
    line(os, "row.reads", static_cast<double>(r.rowReads), "",
         "reads served by PCC reconstruction");
    line(os, "row.eccDeferred", static_cast<double>(r.deferredEccReads),
         "", "reads with the SECDED check deferred");
    line(os, "row.twoStepWrites", static_cast<double>(r.twoStepWrites),
         "", "one-word writes split for RoW");
    line(os, "wow.groups", static_cast<double>(r.wowGroups), "",
         "consolidated write groups");
    line(os, "wow.mergedWrites", static_cast<double>(r.wowMergedWrites),
         "", "writes that joined a group");
    if (r.cacheHits + r.cacheMisses > 0) {
        // DRAM cache tier only; absent for tier=none so the default
        // dump stays byte-identical.
        line(os, "cache.hitRate", r.cacheHitRate, "",
             "tier hit fraction over all accesses");
        line(os, "cache.hits", static_cast<double>(r.cacheHits), "",
             "tier hits (read + write)");
        line(os, "cache.misses", static_cast<double>(r.cacheMisses), "",
             "tier misses (read + write)");
        line(os, "cache.fills", static_cast<double>(r.cacheFills), "",
             "lines fetched from PCM and installed");
        line(os, "cache.writebacks",
             static_cast<double>(r.cacheWritebacks), "",
             "dirty victims handed to the PCM side");
        line(os, "cache.dirtyWordsWB",
             static_cast<double>(r.cacheDirtyWordsWrittenBack), "",
             "dirty words carried by those victims");
    }
    if (r.writeRoundsIssued > 0) {
        // Multi-round (MLC+) organizations only; absent for org=slc so
        // the default dump stays byte-identical.
        line(os, "mlc.writeRounds",
             static_cast<double>(r.writeRoundsIssued), "",
             "programming rounds issued");
        line(os, "mlc.roundPauses",
             static_cast<double>(r.writeRoundPauses), "",
             "round-boundary pauses for reads");
    }
    line(os, "spec.reads", static_cast<double>(r.specReads), "",
         "speculative deliveries");
    line(os, "spec.consumedBeforeVerify",
         static_cast<double>(r.consumedBeforeVerify), "",
         "consumed before the deferred check");
    line(os, "spec.rollbacks", static_cast<double>(r.rollbacks), "",
         "CPU rollbacks (Table IV)");
    line(os, "energy.total", r.energyUj, "uJ",
         "array + pulse + buffer + bus energy");
    line(os, "energy.set", r.energySetUj, "uJ", "SET pulses");
    line(os, "energy.reset", r.energyResetUj, "uJ", "RESET pulses");
    line(os, "wear.chipImbalance", r.wearChipImbalance, "",
         "max/mean per-chip writes (1.0 = even)");
    line(os, "traffic.rpki", r.rpki, "", "PCM reads per kilo-inst");
    line(os, "traffic.wpki", r.wpki, "", "PCM writes per kilo-inst");
}

} // namespace pcmap
