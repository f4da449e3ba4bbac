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

std::vector<SystemMode>
parseModes(const std::string &arg)
{
    if (arg == "all")
        return {std::begin(kAllModes), std::end(kAllModes)};
    if (arg == "pcmap") {
        return {SystemMode::RoW_NR, SystemMode::WoW_NR,
                SystemMode::RWoW_NR, SystemMode::RWoW_RD,
                SystemMode::RWoW_RDE};
    }
    std::vector<SystemMode> modes;
    for (const std::string &name : splitCommas(arg))
        modes.push_back(requireSystemMode(name, {"all", "pcmap"}));
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
    const std::uint64_t exemplars =
        args.getUint("attribK", out.obs.attribExemplars);
    out.obs.attribExemplars = static_cast<unsigned>(exemplars);
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
    std::vector<ControllerPolicy> policies;
    for (const std::string &tok : splitCommas(arg)) {
        std::string err;
        const std::optional<ControllerPolicy> p =
            ControllerPolicy::parse(tok, &err);
        if (!p)
            fatal("policy=: ", err);
        policies.push_back(*p);
    }
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
    const auto n =
        static_cast<unsigned>(args.getUint("tenants", 0));
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
    fab.queueCap =
        static_cast<unsigned>(args.getUint("linkQueue", fab.queueCap));
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
    tier.mshrCap =
        static_cast<unsigned>(args.getUint("tierMshr", tier.mshrCap));
    tier.writebackBatch = static_cast<unsigned>(
        args.getUint("tierWbBatch", tier.writebackBatch));
    tier.wbBufferCap = static_cast<unsigned>(
        args.getUint("tierWbBuffer", tier.wbBufferCap));
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
    // A lone policy= replaces the default mode axis; an explicit
    // modes= combines with it (modes first, then policies).
    if (args.has("modes") || !args.has("policy"))
        spec.modes = parseModes(args.getString("modes", "all"));
    else
        spec.modes.clear();
    if (args.has("policy")) {
        for (const ControllerPolicy &p :
             parsePolicies(args.requireString("policy"))) {
            // Preset-equivalent compositions join the mode axis so
            // policy=row+wow+rde and modes=RWoW-RDE are the same
            // sweep, byte for byte.
            if (const auto preset = p.presetMode())
                spec.modes.push_back(*preset);
            else
                spec.policies.push_back(p.composition());
        }
    }
    spec.seeds = parseSeeds(args.getString("seeds", "1"));
    if (args.has("org"))
        spec.orgs = parseOrgs(args.requireString("org"));
    spec.configs[0].base.instructionsPerCore =
        args.getUint("insts", 200'000);
    spec.configs[0].base.numCores = static_cast<unsigned>(
        args.getUint("cores", spec.configs[0].base.numCores));
    spec.configs[0].base.fabric = fabricFromConfig(args);
    spec.configs[0].base.tier = tierFromConfig(args);
    return spec;
}

} // namespace pcmap::sweep
