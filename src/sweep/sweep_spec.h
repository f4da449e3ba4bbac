/**
 * @file
 * Declarative description of a simulation sweep: the cartesian product
 * of device-organization, config-variant, system, workload and
 * base-seed axes, each expanded point carrying a deterministically
 * derived per-run seed.
 *
 * The expansion order — and therefore every point's index and derived
 * seed — is a pure function of the spec.  Runners may execute points
 * in any order on any number of threads without changing results.
 */

#ifndef PCMAP_SWEEP_SWEEP_SPEC_H
#define PCMAP_SWEEP_SWEEP_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"
#include "mem/timing.h"

namespace pcmap::sweep {

/** One named base configuration on the config axis. */
struct ConfigVariant
{
    std::string name = "default";
    SystemConfig base{};
};

/** One fully resolved run of a sweep. */
struct SweepPoint
{
    /** Position in the canonical expansion order (stable run ID). */
    std::size_t index = 0;
    std::string configName;
    ControllerPolicy system;
    std::string workload;
    /** The seed-axis value this point came from. */
    std::uint64_t baseSeed = 1;
    /** Rng::deriveStream(baseSeed, index): the seed the run uses. */
    std::uint64_t runSeed = 1;
    /** Device organization this point runs under. */
    DeviceOrg org = DeviceOrg::Slc;
    /** Resolved configuration (variant base + system + runSeed). */
    SystemConfig config{};

    /**
     * Report label: system.label() (the preset's name, or the
     * composition string), suffixed "@mlc"/"@tlc"/"@qlc" off the
     * default organization, so org=slc labels are unchanged.
     */
    std::string label() const
    {
        std::string l = system.label();
        if (org != DeviceOrg::Slc) {
            l += '@';
            l += deviceOrgName(org);
        }
        return l;
    }
};

/**
 * The sweep description.  Defaults give the paper's six systems over
 * an empty workload list — fill in at least `workloads` before
 * expanding.
 */
struct SweepSpec
{
    /** Config axis; must be non-empty (one "default" entry built in). */
    std::vector<ConfigVariant> configs{ConfigVariant{}};
    /**
     * System axis: presets and compositions alike; defaults to the
     * six evaluated systems.  Each point's controller takes these
     * mechanism switches over its variant's.
     */
    std::vector<ControllerPolicy> systems{std::begin(kPaperSystems),
                                          std::end(kPaperSystems)};
    /** Workload axis (mix or program names; see makeWorkload()). */
    std::vector<std::string> workloads;
    /** Seed axis: base seeds, each expanded against every other axis. */
    std::vector<std::uint64_t> seeds{1};
    /**
     * Device-organization axis, expanded *outermost*: all points of
     * the first org precede all points of the second, so a spec whose
     * orgs start with Slc (the default) expands to the exact legacy
     * point list — same indexes, same derived seeds — followed by the
     * denser organizations.  Non-Slc orgs replace each variant's array
     * timing via PcmTiming::withOrg (interface constants preserved).
     */
    std::vector<DeviceOrg> orgs{DeviceOrg::Slc};

    /** Number of points the expansion produces. */
    std::size_t size() const;

    /**
     * Expand into the canonical point list (org-major, then config,
     * system, workload, seed).  fatal() when any axis is empty.
     */
    std::vector<SweepPoint> expand() const;
};

} // namespace pcmap::sweep

#endif // PCMAP_SWEEP_SWEEP_SPEC_H
