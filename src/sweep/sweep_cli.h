/**
 * @file
 * Parsing of pcmap-sweep's key=value arguments into a SweepSpec.
 *
 * Lives in the library (not the tool) so the parsers — including
 * their rejection paths — are unit-testable under ScopedErrorTrap,
 * and so other harnesses can accept the same axis syntax.
 */

#ifndef PCMAP_SWEEP_SWEEP_CLI_H
#define PCMAP_SWEEP_SWEEP_CLI_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/tier.h"
#include "core/policy/controller_policy.h"
#include "fabric/fabric.h"
#include "obs/obs_config.h"
#include "sim/config.h"
#include "sweep/sweep_spec.h"

namespace pcmap::sweep {

/** Observability selections parsed from harness key=value args. */
struct ObsCliOptions
{
    obs::ObsConfig obs{};
    /** Output prefix for per-point trace/timeline files. */
    std::string pathPrefix;
};

/** Split on commas, dropping empty segments ("a,,b" -> {a, b}). */
std::vector<std::string> splitCommas(const std::string &text);

/**
 * Workload axis: a comma list of mix/program names, or one of the
 * groups "mt", "mp", "evaluated".  fatal() on an empty list.
 */
std::vector<std::string> parseWorkloads(const std::string &arg);

/**
 * System axis from modes=: a comma list of preset names
 * ("RWoW-RDE") or '+' compositions, or "all" (the six evaluated
 * systems) or "pcmap" (the five PCMap systems).  fatal() on an
 * unknown name — with a "did you mean" hint — and on an empty list.
 */
std::vector<ControllerPolicy> parseModes(const std::string &arg);

/**
 * System axis from policy=: modes= without the groups.  fatal() on an
 * unknown or conflicting component — the message names it and lists
 * the valid ones — and on an empty list.
 */
std::vector<ControllerPolicy> parsePolicies(const std::string &arg);

/**
 * Seed axis: a comma list of unsigned 64-bit seeds (decimal, or hex
 * with 0x).  fatal() on non-integers and on negative tokens — seeds
 * are unsigned, and letting strtoull wrap "-1" to 2^64-1 silently
 * would make two typos collide on the same derived streams.
 */
std::vector<std::uint64_t> parseSeeds(const std::string &arg);

/**
 * Device-organization axis: a comma list of org names (slc, mlc,
 * tlc, qlc; case-insensitive) or "all" for every organization,
 * densest last.  fatal() on an unknown name — with a closest-match
 * suggestion — and on an empty list.
 */
std::vector<DeviceOrg> parseOrgs(const std::string &arg);

/**
 * Build the sweep described by the common axis keys: workloads=
 * (required), modes=, policy=, seeds=, org=, insts=, cores=.
 *
 * modes= and policy= both feed the system axis: modes= entries
 * first, then policy='s presets, then its other compositions.  A
 * preset is the same system under either spelling, so
 * `policy=row+wow+rde` and `modes=RWoW-RDE` produce byte-identical
 * reports.  When only policy= is given it replaces the default six
 * systems rather than adding to them.
 */
SweepSpec specFromConfig(const Config &args);

/**
 * Parse the multi-tenant fabric keys into a FabricConfig:
 *
 *   tenants=N      number of tenants (0 = fabric off, the default)
 *   rate=R[,R...]  per-tenant open-loop rate in requests/us; 0 keeps
 *                  the tenant closed-loop (one value broadcasts)
 *   burst=B[,B..]  on/off burstiness factor; >1 with a rate selects
 *                  the bursty arrival process
 *   qos=Q[,Q...]   per-tenant class, "ls" or "be"; "mixed" alternates
 *   window=W[,W.]  closed-loop outstanding-read cap (0 = core default)
 *   reqs=N         open-loop per-tenant request budget
 *   arb=A          link arbiter, "prio" or "wrr"
 *   linkGbps=G     link bandwidth (0 = no serialization delay)
 *   linkNs=D       one-way link propagation delay
 *   linkQueue=N    per-tenant link queue depth
 *
 * Per-tenant lists must have either one entry (applied to every
 * tenant) or exactly tenants= entries.  fatal() on malformed values.
 */
fabric::FabricConfig fabricFromConfig(const Config &args);

/**
 * Parse the DRAM cache tier keys into a TierConfig:
 *
 *   tier=SPEC        "none" (the default) or
 *                    "dram:<size>[KMG]:<ways>:<repl>" with repl one of
 *                    lru, mac (e.g. tier=dram:256M:8:lru)
 *   tierHitNs=N      DRAM hit service time in ns (default 40)
 *   tierMshr=N       outstanding distinct-line misses (default 16)
 *   tierWbBatch=N    dirty victims per drain burst (default 4)
 *   tierWbBuffer=N   parked victims before back-pressure (default 32)
 *
 * tier=none ignores every other tier key.  fatal() on malformed
 * values (tierConfigFromString / TierConfig::validate diagnostics).
 */
cache::TierConfig tierFromConfig(const Config &args);

/**
 * Parse the observability keys: trace=PREFIX (request-lifecycle
 * tracing to "<PREFIX>.point<I>.trace.json"), obsEpoch=TICKS (epoch
 * timeline to "<PREFIX>.point<I>.timeline.jsonl"; needs trace= or
 * obsOut= for the prefix), traceCap=N (ring capacity, events; rounded
 * up to a power of two), attrib=0|1 (per-request latency attribution:
 * attrib.* stat columns, plus "<PREFIX>.point<I>.attrib.jsonl" when a
 * prefix is given), attribK=N (tail-exemplar reservoir size, default
 * 8).  fatal() on malformed values.
 */
ObsCliOptions obsFromConfig(const Config &args);

} // namespace pcmap::sweep

#endif // PCMAP_SWEEP_SWEEP_CLI_H
