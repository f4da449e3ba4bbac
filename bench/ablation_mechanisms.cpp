/**
 * @file
 * Ablation: which modelling/design pieces the RWoW-RDE result rests
 * on.  Starting from the full system, each row disables exactly one
 * element and reports the IPC delta on three representative
 * workloads:
 *
 *   -code     : deferred ECC/PCC updates cost no chip time
 *   -verify   : deferred SECDED verifications cost no chip time
 *   -drainrd  : no reads served during write drains (RoW off-path)
 *   -twostep  : one-word writes update PCC in parallel, not serially
 *   +multiword: Section IV-B4's serialized multi-word RoW writes
 *               (only effective without WoW; shown for completeness)
 *
 * These correspond to DESIGN.md's "design choices to ablate".
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace pcmap;
    using namespace pcmap::bench;

    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner("Ablation: PCMap mechanism pieces (RWoW-RDE IPC)",
           "DESIGN.md ablation index — contribution of each modelled "
           "mechanism",
           hc);

    const char *workloads[] = {"canneal", "MP1", "MP4"};

    struct Variant
    {
        const char *name;
        void (*apply)(ControllerConfig &);
    };
    const Variant variants[] = {
        {"full", [](ControllerConfig &) {}},
        {"-code",
         [](ControllerConfig &c) { c.modelCodeUpdateTraffic = false; }},
        {"-verify",
         [](ControllerConfig &c) { c.modelVerifyTraffic = false; }},
        {"-drainrd",
         [](ControllerConfig &c) { c.serveReadsDuringDrain = false; }},
        {"-twostep", [](ControllerConfig &c) { c.enableTwoStep = false; }},
        {"+multiword",
         [](ControllerConfig &c) { c.rowMultiWordWrites = true; }},
    };

    std::printf("%-10s", "variant");
    for (const char *w : workloads)
        std::printf(" %14s", w);
    std::printf("\n");
    rule(56);

    double full_ipc[std::size(workloads)] = {};
    for (const Variant &v : variants) {
        std::printf("%-10s", v.name);
        for (std::size_t i = 0; i < std::size(workloads); ++i) {
            SystemConfig cfg = hc.system(presets::RWoW_RDE);
            v.apply(cfg.controller);
            const double ipc = runWorkload(cfg, workloads[i]).ipcSum;
            if (std::string(v.name) == "full") {
                full_ipc[i] = ipc;
                std::printf(" %14.3f", ipc);
            } else {
                std::printf(" %7.3f (%+3.0f%%)", ipc,
                            100.0 * (ipc / full_ipc[i] - 1.0));
            }
        }
        std::printf("\n");
    }
    return 0;
}
