#include "sweep/sweep_cli.h"

#include <cstdlib>

#include "sim/log.h"
#include "workload/mixes.h"

namespace pcmap::sweep {

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : text) {
        if (c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::vector<std::string>
parseWorkloads(const std::string &arg)
{
    if (arg == "mt")
        return workload::evaluatedMtWorkloads();
    if (arg == "mp")
        return workload::evaluatedMpWorkloads();
    if (arg == "evaluated")
        return workload::evaluatedWorkloads();
    const std::vector<std::string> names = splitCommas(arg);
    if (names.empty())
        fatal("workloads= needs at least one name");
    return names;
}

namespace {

/** One system per comma-separated name or composition in @p arg. */
std::vector<ControllerPolicy>
parseSystems(const std::string &arg,
             const std::vector<std::string> &keywords)
{
    std::vector<ControllerPolicy> systems;
    for (const std::string &tok : splitCommas(arg))
        systems.push_back(ControllerPolicy::require(tok, keywords));
    return systems;
}

} // namespace

std::vector<ControllerPolicy>
parseModes(const std::string &arg)
{
    if (arg == "all")
        return {std::begin(kPaperSystems), std::end(kPaperSystems)};
    if (arg == "pcmap")
        return {std::begin(kPaperSystems) + 1, std::end(kPaperSystems)};
    for (const std::string &tok : splitCommas(arg)) {
        if (tok == "all" || tok == "pcmap")
            fatal("modes=: the group '", tok,
                  "' must be the whole value (modes=", tok,
                  "), not one item of a list");
    }
    const std::vector<ControllerPolicy> modes =
        parseSystems(arg, {"all", "pcmap"});
    if (modes.empty())
        fatal("modes= needs at least one mode");
    return modes;
}

ObsCliOptions
obsFromConfig(const Config &args)
{
    ObsCliOptions out;
    if (args.has("trace")) {
        out.pathPrefix = args.requireString("trace");
        if (out.pathPrefix.empty())
            fatal("trace= needs a file prefix");
        out.obs.trace = true;
    }
    out.obs.epochTicks = args.getUint("obsEpoch", 0);
    const std::uint64_t cap =
        args.getUint("traceCap", out.obs.traceCapacity);
    if (cap < 2)
        fatal("traceCap= must be at least 2 events");
    out.obs.traceCapacity = static_cast<std::size_t>(cap);
    out.obs.attrib = args.getUint("attrib", 0) != 0;
    out.obs.attribExemplars =
        args.getUnsigned("attribK", out.obs.attribExemplars);
    if (out.pathPrefix.empty()) {
        // Timeline/attribution-only runs still need somewhere to
        // write; without a prefix attribution flows into the stats
        // columns only.
        out.pathPrefix = args.getString("obsOut", "");
    }
    if (out.obs.epochTicks > 0 && out.pathPrefix.empty()) {
        fatal("obsEpoch= needs trace=PREFIX or obsOut=PREFIX for "
              "the timeline files");
    }
    return out;
}

std::vector<ControllerPolicy>
parsePolicies(const std::string &arg)
{
    const std::vector<ControllerPolicy> policies = parseSystems(arg, {});
    if (policies.empty())
        fatal("policy= needs at least one composition");
    return policies;
}

std::vector<DeviceOrg>
parseOrgs(const std::string &arg)
{
    if (arg == "all")
        return {std::begin(kAllOrgs), std::end(kAllOrgs)};
    std::vector<DeviceOrg> orgs;
    for (const std::string &name : splitCommas(arg)) {
        const auto org = deviceOrgFromName(name);
        if (!org) {
            std::vector<std::string> known{"all"};
            for (const DeviceOrg o : kAllOrgs)
                known.emplace_back(deviceOrgName(o));
            fatalUnknown("unknown device organization", name, known,
                         std::string("known: ") + deviceOrgNames() +
                             ", all");
        }
        orgs.push_back(*org);
    }
    if (orgs.empty())
        fatal("org= needs at least one organization");
    return orgs;
}

namespace {

/**
 * Per-tenant value list for fabric key @p key: one entry broadcasts
 * to every tenant, otherwise exactly @p n entries are required.
 */
std::vector<double>
perTenantDoubles(const Config &args, const char *key, double fallback,
                 unsigned n)
{
    std::vector<double> out(n, fallback);
    if (!args.has(key))
        return out;
    const std::vector<std::string> toks =
        splitCommas(args.requireString(key));
    if (toks.size() != 1 && toks.size() != n) {
        fatal(key, "= needs 1 or tenants= (", n, ") values, got ",
              toks.size());
    }
    for (unsigned t = 0; t < n; ++t) {
        const std::string &tok = toks[toks.size() == 1 ? 0 : t];
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0')
            fatal(key, "=: '", tok, "' is not a number");
        out[t] = v;
    }
    return out;
}

} // namespace

fabric::FabricConfig
fabricFromConfig(const Config &args)
{
    fabric::FabricConfig fab;
    const unsigned n = args.getUnsigned("tenants", 0);
    if (n == 0)
        return fab; // fabric off; every other key is ignored
    fab.tenants.resize(n);

    const std::vector<double> rates =
        perTenantDoubles(args, "rate", 0.0, n);
    const std::vector<double> bursts =
        perTenantDoubles(args, "burst", 1.0, n);
    const std::vector<double> windows =
        perTenantDoubles(args, "window", 0.0, n);

    const std::string qos_arg = args.getString("qos", "ls");
    std::vector<std::string> qos_toks = splitCommas(qos_arg);
    if (qos_arg == "mixed") {
        // Alternate ls, be, ls, be, ... across the tenants.
        qos_toks.clear();
        for (unsigned t = 0; t < n; ++t)
            qos_toks.emplace_back(t % 2 == 0 ? "ls" : "be");
    }
    if (qos_toks.size() != 1 && qos_toks.size() != n) {
        fatal("qos= needs 1 or tenants= (", n, ") values, got ",
              qos_toks.size());
    }

    const std::uint64_t reqs = args.getUint("reqs", 20'000);
    if (reqs == 0)
        fatal("reqs= must be at least 1");

    for (unsigned t = 0; t < n; ++t) {
        fabric::TenantSpec &spec = fab.tenants[t];
        spec.ratePerUs = rates[t];
        spec.burst = bursts[t];
        if (windows[t] < 0.0 ||
            windows[t] != static_cast<double>(
                              static_cast<unsigned>(windows[t])))
            fatal("window=: '", windows[t],
                  "' is not a non-negative integer");
        spec.window = static_cast<unsigned>(windows[t]);
        spec.qos = fabric::qosClassFromName(
            qos_toks[qos_toks.size() == 1 ? 0 : t]);
        spec.requests = reqs;
        if (spec.ratePerUs > 0.0) {
            spec.arrival = spec.burst > 1.0
                               ? fabric::ArrivalKind::Bursty
                               : fabric::ArrivalKind::Poisson;
        }
    }

    fab.arb = fabric::linkArbFromName(args.getString("arb", "prio"));
    fab.linkGbps = args.getDouble("linkGbps", 0.0);
    fab.linkNs = args.getDouble("linkNs", 0.0);
    fab.queueCap = args.getUnsigned("linkQueue", fab.queueCap);
    return fab;
}

cache::TierConfig
tierFromConfig(const Config &args)
{
    cache::TierConfig tier =
        cache::tierConfigFromString(args.getString("tier", "none"));
    if (!tier.enabled())
        return tier; // tier off; every other tier key is ignored
    tier.hitTicks = args.getUint("tierHitNs", 40) * 1000ull;
    tier.mshrCap = args.getUnsigned("tierMshr", tier.mshrCap);
    tier.writebackBatch =
        args.getUnsigned("tierWbBatch", tier.writebackBatch);
    tier.wbBufferCap = args.getUnsigned("tierWbBuffer", tier.wbBufferCap);
    tier.validate();
    return tier;
}

std::vector<std::uint64_t>
parseSeeds(const std::string &arg)
{
    std::vector<std::uint64_t> seeds;
    for (const std::string &tok : splitCommas(arg)) {
        // strtoull would silently wrap a negative token ("-1" ->
        // 2^64-1); reject it up front instead.
        if (tok.find('-') != std::string::npos) {
            fatal("seeds=: '", tok,
                  "' is negative; seeds are unsigned 64-bit values");
        }
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(tok.c_str(), &end, 0);
        if (end == tok.c_str() || *end != '\0')
            fatal("seeds=: '", tok, "' is not an integer");
        seeds.push_back(v);
    }
    if (seeds.empty())
        fatal("seeds= needs at least one seed");
    return seeds;
}

SweepSpec
specFromConfig(const Config &args)
{
    SweepSpec spec;
    spec.workloads = parseWorkloads(args.requireString("workloads"));
    // A lone policy= replaces the default six systems; an explicit
    // modes= combines with it.  Presets go first, then compositions,
    // each in the order given.
    spec.systems.clear();
    if (args.has("modes") || !args.has("policy"))
        spec.systems = parseModes(args.getString("modes", "all"));
    if (args.has("policy")) {
        const std::vector<ControllerPolicy> policies =
            parsePolicies(args.requireString("policy"));
        for (const bool presets : {true, false}) {
            for (const ControllerPolicy &p : policies) {
                if (p.isPreset() == presets)
                    spec.systems.push_back(p);
            }
        }
    }
    spec.seeds = parseSeeds(args.getString("seeds", "1"));
    if (args.has("org"))
        spec.orgs = parseOrgs(args.requireString("org"));
    spec.configs[0].base.instructionsPerCore =
        args.getUint("insts", 200'000);
    spec.configs[0].base.numCores =
        args.getUnsigned("cores", spec.configs[0].base.numCores);
    spec.configs[0].base.fabric = fabricFromConfig(args);
    spec.configs[0].base.tier = tierFromConfig(args);
    return spec;
}

} // namespace pcmap::sweep
