#include "sweep/sweep_io.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace pcmap::sweep {

namespace {

/** Shortest decimal that round-trips a double, locale-independent. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer the shorter %.15g / %.16g form when it round-trips.
    for (int prec = 15; prec <= 16; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(shorter, "%lf", &back);
        if (back == v)
            return shorter;
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** The fixed per-run metric list exported from SystemResults. */
const std::vector<std::pair<const char *,
                            double (*)(const SystemResults &)>> &
metricFields()
{
    using R = SystemResults;
    static const std::vector<
        std::pair<const char *, double (*)(const R &)>>
        fields = {
            {"ipcSum", [](const R &r) { return r.ipcSum; }},
            {"avgReadLatencyNs",
             [](const R &r) { return r.avgReadLatencyNs; }},
            {"writeThroughput",
             [](const R &r) { return r.writeThroughput; }},
            {"irlpMean", [](const R &r) { return r.irlpMean; }},
            {"irlpMax", [](const R &r) { return r.irlpMax; }},
            {"pctReadsDelayedByWrite",
             [](const R &r) { return r.pctReadsDelayedByWrite; }},
            {"avgEssentialWords",
             [](const R &r) { return r.avgEssentialWords; }},
            {"readsCompleted",
             [](const R &r) {
                 return static_cast<double>(r.readsCompleted);
             }},
            {"writesCompleted",
             [](const R &r) {
                 return static_cast<double>(r.writesCompleted);
             }},
            {"rowReads",
             [](const R &r) {
                 return static_cast<double>(r.rowReads);
             }},
            {"deferredEccReads",
             [](const R &r) {
                 return static_cast<double>(r.deferredEccReads);
             }},
            {"specReads",
             [](const R &r) {
                 return static_cast<double>(r.specReads);
             }},
            {"consumedBeforeVerify",
             [](const R &r) {
                 return static_cast<double>(r.consumedBeforeVerify);
             }},
            {"rollbacks",
             [](const R &r) {
                 return static_cast<double>(r.rollbacks);
             }},
            {"twoStepWrites",
             [](const R &r) {
                 return static_cast<double>(r.twoStepWrites);
             }},
            {"wowGroups",
             [](const R &r) {
                 return static_cast<double>(r.wowGroups);
             }},
            {"wowMergedWrites",
             [](const R &r) {
                 return static_cast<double>(r.wowMergedWrites);
             }},
            {"energyUj", [](const R &r) { return r.energyUj; }},
            {"wearChipImbalance",
             [](const R &r) { return r.wearChipImbalance; }},
            {"rpki", [](const R &r) { return r.rpki; }},
            {"wpki", [](const R &r) { return r.wpki; }},
            {"simTicks",
             [](const R &r) {
                 return static_cast<double>(r.simTicks);
             }},
        };
    return fields;
}

} // namespace

std::string
stableSerialize(const SweepSpec &spec)
{
    // Every field here feeds the spec fingerprint: adding a field to
    // SystemConfig that changes simulation results means adding it
    // here too, or shards of differently-configured sweeps would
    // carry equal fingerprints and merge silently.
    std::ostringstream os;
    os << "pcmap-sweep-spec v1\n";
    os << "configs=" << spec.configs.size() << "\n";
    for (const ConfigVariant &v : spec.configs) {
        const SystemConfig &c = v.base;
        os << "config.name=" << v.name << "\n";
        os << "geometry=" << c.geometry.channels << ","
           << c.geometry.ranksPerChannel << ","
           << c.geometry.banksPerRank << "," << c.geometry.rowBytes
           << "," << c.geometry.capacityBytes << ","
           << static_cast<int>(c.geometry.interleave) << "\n";
        const ControllerConfig &mc = c.controller;
        const PcmTiming &t = mc.timing;
        os << "timing=" << t.memClock.periodTicks() << "," << t.tRCD
           << "," << t.tCL << "," << t.tWL << "," << t.tCCD << ","
           << t.tWTR << "," << t.tRTP << "," << t.tRP << ","
           << t.tRRDact << "," << t.tRRDpre << "," << t.tStatus << ","
           << fmtDouble(t.arrayReadNs) << "," << fmtDouble(t.resetNs)
           << "," << fmtDouble(t.setNs) << "\n";
        const CoreConfig &cc = c.core;
        os << "core=" << cc.clock.periodTicks() << "," << cc.issueWidth
           << "," << cc.maxOutstandingReads << "," << cc.robWindowInsts
           << "," << cc.commitDelay << "," << cc.rollbackPenalty << ","
           << cc.assumeAlwaysFaulty << "\n";
        os << "system=" << c.numCores << "," << c.instructionsPerCore
           << "\n";
        os << "queues=" << mc.readQueueCap << "," << mc.writeQueueCap
           << "," << fmtDouble(mc.drainHighWatermark) << ","
           << fmtDouble(mc.drainLowWatermark) << ","
           << mc.perBankWriteQueues << "\n";
        os << "switches=" << mc.modelCodeUpdateTraffic << ","
           << mc.modelVerifyTraffic << "," << mc.serveReadsDuringDrain
           << "," << mc.enableTwoStep << "," << mc.rowMultiWordWrites
           << "," << static_cast<int>(mc.pagePolicy) << ","
           << static_cast<int>(mc.readScheduling) << ","
           << mc.enableWriteCancellation << "," << mc.enablePreset
           << "\n";
        os << "caps=" << mc.codeUpdateBacklogCap << ","
           << mc.specReadBufferCap << "," << mc.wowMaxMerge << ","
           << mc.wowScanDepth << "\n";
        // Conditional, like the policies= line below: a variant on
        // the default single-round SLC organization serializes as it
        // always did, keeping pre-org fingerprints valid.
        if (t.org != DeviceOrg::Slc || t.writeRounds != 1) {
            os << "org=" << deviceOrgName(t.org) << "," << t.writeRounds
               << "\n";
        }
        // Same append-only rule for the write-cancellation tuning:
        // the defaults serialize nothing.
        const ControllerConfig defaults;
        if (mc.maxWriteCancels != defaults.maxWriteCancels ||
            mc.cancelMinRemainingFrac != defaults.cancelMinRemainingFrac) {
            os << "cancel=" << mc.maxWriteCancels << ","
               << fmtDouble(mc.cancelMinRemainingFrac) << "\n";
        }
        // Same append-only rule for the request fabric: a disabled
        // fabric (no tenants) serializes nothing.
        if (c.fabric.enabled()) {
            os << "fabric=" << static_cast<int>(c.fabric.arb) << ","
               << fmtDouble(c.fabric.linkGbps) << ","
               << fmtDouble(c.fabric.linkNs) << "," << c.fabric.queueCap
               << "\n";
            for (const fabric::TenantSpec &ts : c.fabric.tenants) {
                os << "tenant=" << static_cast<int>(ts.arrival) << ","
                   << static_cast<int>(ts.qos) << ","
                   << fmtDouble(ts.ratePerUs) << ","
                   << fmtDouble(ts.burst) << "," << ts.window << ","
                   << ts.requests << "\n";
            }
        }
        // Same append-only rule for the DRAM cache tier: tier=none
        // serializes nothing.
        if (c.tier.enabled()) {
            os << "tier=" << cache::tierConfigToString(c.tier) << ","
               << c.tier.hitTicks << "," << c.tier.mshrCap << ","
               << c.tier.writebackBatch << "," << c.tier.wbBufferCap
               << "\n";
        }
    }
    // The system axis serializes as the two lines it had when presets
    // and compositions were separate axes, so their fingerprints stay
    // valid: modes= lists the leading presets by name, policies= the
    // rest (from the first composition on), appended only when
    // present.
    std::size_t lead = 0;
    while (lead < spec.systems.size() && spec.systems[lead].isPreset())
        ++lead;
    os << "modes=";
    for (std::size_t i = 0; i < lead; ++i)
        os << (i ? "," : "") << spec.systems[i].label();
    os << "\nworkloads=";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i)
        os << (i ? "," : "") << spec.workloads[i];
    os << "\nseeds=";
    for (std::size_t i = 0; i < spec.seeds.size(); ++i)
        os << (i ? "," : "") << spec.seeds[i];
    os << "\n";
    if (lead < spec.systems.size()) {
        os << "policies=";
        for (std::size_t i = lead; i < spec.systems.size(); ++i)
            os << (i > lead ? "," : "") << spec.systems[i].label();
        os << "\n";
    }
    // Same append-only rule for the device-organization axis: the
    // default {slc} serializes nothing.
    if (spec.orgs.size() != 1 || spec.orgs[0] != DeviceOrg::Slc) {
        os << "orgs=";
        for (std::size_t i = 0; i < spec.orgs.size(); ++i)
            os << (i ? "," : "") << deviceOrgName(spec.orgs[i]);
        os << "\n";
    }
    return os.str();
}

std::uint64_t
specFingerprint(const SweepSpec &spec)
{
    const std::string text = stableSerialize(spec);
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
fingerprintHex(std::uint64_t fp)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    return buf;
}

std::string
toJsonLine(const RunRecord &rec)
{
    std::ostringstream os;
    os << "{\"index\":" << rec.point.index << ",\"config\":\""
       << jsonEscape(rec.point.configName) << "\",\"mode\":\""
       << jsonEscape(rec.point.label()) << "\",\"workload\":\""
       << jsonEscape(rec.point.workload)
       << "\",\"baseSeed\":" << rec.point.baseSeed
       << ",\"runSeed\":" << rec.point.runSeed
       << ",\"ok\":" << (rec.ok ? "true" : "false") << ",\"error\":\""
       << jsonEscape(rec.error) << "\"";
    if (rec.ok) {
        os << ",\"metrics\":{";
        bool first = true;
        for (const auto &[name, get] : metricFields()) {
            os << (first ? "" : ",") << "\"" << name
               << "\":" << fmtDouble(get(rec.results));
            first = false;
        }
        os << "}";
        if (!rec.stats.empty()) {
            os << ",\"stats\":{";
            first = true;
            for (const auto &[name, value] : rec.stats) {
                os << (first ? "" : ",") << "\"" << jsonEscape(name)
                   << "\":" << fmtDouble(value);
                first = false;
            }
            os << "}";
        }
    }
    os << "}";
    return os.str();
}

void
writeJsonl(const SweepReport &report, std::ostream &os)
{
    for (const RunRecord &rec : report.rows)
        os << toJsonLine(rec) << "\n";
}

std::string
toJsonl(const SweepReport &report)
{
    std::ostringstream os;
    writeJsonl(report, os);
    return os.str();
}

void
writeCsv(const SweepReport &report, std::ostream &os)
{
    // Stat-column union, in first-seen (row-then-registration) order.
    std::vector<std::string> stat_cols;
    for (const RunRecord &rec : report.rows) {
        for (const auto &[name, value] : rec.stats) {
            (void)value;
            bool known = false;
            for (const std::string &c : stat_cols) {
                if (c == name) {
                    known = true;
                    break;
                }
            }
            if (!known)
                stat_cols.push_back(name);
        }
    }

    os << "index,config,mode,workload,baseSeed,runSeed,ok,error";
    for (const auto &[name, get] : metricFields()) {
        (void)get;
        os << "," << name;
    }
    for (const std::string &c : stat_cols)
        os << "," << c;
    os << "\n";

    for (const RunRecord &rec : report.rows) {
        std::string err = rec.error;
        for (char &c : err) {
            if (c == ',' || c == '\n')
                c = ';';
        }
        os << rec.point.index << "," << rec.point.configName << ","
           << rec.point.label() << "," << rec.point.workload
           << "," << rec.point.baseSeed << "," << rec.point.runSeed
           << "," << (rec.ok ? "1" : "0") << "," << err;
        for (const auto &[name, get] : metricFields()) {
            (void)name;
            os << ",";
            if (rec.ok)
                os << fmtDouble(get(rec.results));
        }
        for (const std::string &c : stat_cols) {
            os << ",";
            for (const auto &[name, value] : rec.stats) {
                if (name == c) {
                    os << fmtDouble(value);
                    break;
                }
            }
        }
        os << "\n";
    }
}

} // namespace pcmap::sweep
