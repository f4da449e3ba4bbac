#include "sweep/sweep_spec.h"

#include "sim/log.h"
#include "sim/rng.h"

namespace pcmap::sweep {

std::size_t
SweepSpec::size() const
{
    return orgs.size() * configs.size() *
           systems.size() * workloads.size() *
           seeds.size();
}

std::vector<SweepPoint>
SweepSpec::expand() const
{
    if (configs.empty())
        fatal("sweep spec has an empty config axis");
    if (systems.empty())
        fatal("sweep spec has an empty system axis");
    if (workloads.empty())
        fatal("sweep spec has an empty workload axis");
    if (seeds.empty())
        fatal("sweep spec has an empty seed axis");
    if (orgs.empty())
        fatal("sweep spec has an empty device-organization axis");

    std::vector<SweepPoint> points;
    points.reserve(size());
    // The org axis is outermost: a spec whose orgs begin with Slc
    // emits the exact legacy point list (same indexes and derived
    // seeds) before any denser organization's points.
    for (const DeviceOrg org : orgs) {
        for (const ConfigVariant &variant : configs) {
            for (const ControllerPolicy &system : systems) {
                for (const std::string &workload : workloads) {
                    for (const std::uint64_t seed : seeds) {
                        SweepPoint p;
                        p.index = points.size();
                        p.configName = variant.name;
                        p.system = system;
                        p.workload = workload;
                        p.baseSeed = seed;
                        p.runSeed = Rng::deriveStream(seed, p.index);
                        p.org = org;
                        p.config = variant.base;
                        ControllerConfig &mc = p.config.controller;
                        // Slc leaves the variant's timing untouched
                        // (it may carry custom array latencies a
                        // withOrg round-trip would clobber).
                        if (org != DeviceOrg::Slc)
                            mc.timing = mc.timing.withOrg(org);
                        system.applyTo(mc);
                        p.config.seed = p.runSeed;
                        points.push_back(std::move(p));
                    }
                }
            }
        }
    }
    return points;
}

} // namespace pcmap::sweep
