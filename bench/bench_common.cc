#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "sim/log.h"
#include "sweep/sweep_io.h"

namespace pcmap::bench {

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
rule(unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
banner(const char *title, const char *paper_ref, const HarnessConfig &hc)
{
    std::printf("== %s ==\n", title);
    std::printf("   reproduces: %s\n", paper_ref);
    std::printf("   run: %llu insts/core, seed %llu, %u thread%s\n\n",
                static_cast<unsigned long long>(hc.insts),
                static_cast<unsigned long long>(hc.seed), hc.threads,
                hc.threads == 1 ? "" : "s");
}

namespace {

/** Metric values for one workload across the systems of @p labels,
 *  from the report. */
std::vector<double>
reportRow(const sweep::SweepReport &report, const HarnessConfig &hc,
          const std::vector<std::string> &labels,
          const std::string &workload, Metric metric)
{
    std::vector<double> vals;
    for (const std::string &label : labels) {
        const sweep::RunRecord *rec =
            report.find("default", label, workload, hc.seed);
        if (rec == nullptr || !rec->ok) {
            fatal("figure sweep: run (", label, ", ", workload, ") ",
                  rec == nullptr ? "missing from report"
                                 : rec->error.c_str());
        }
        vals.push_back(metric(rec->results));
    }
    return vals;
}

void
printRow(const std::string &label, const std::vector<double> &vals,
         bool normalize)
{
    std::printf("%-14s", label.c_str());
    if (normalize) {
        std::printf(" %9.2f", vals[0]);
        for (std::size_t m = 1; m < vals.size(); ++m)
            std::printf(" %9.3f", vals[0] != 0.0 ? vals[m] / vals[0]
                                                 : 0.0);
    } else {
        for (const double v : vals)
            std::printf(" %9.2f", v);
    }
    std::printf("\n");
}

/** Element-wise accumulate b into a. */
void
accumulate(std::vector<double> &a, const std::vector<double> &b)
{
    if (a.empty())
        a.assign(b.size(), 0.0);
    for (std::size_t i = 0; i < b.size(); ++i)
        a[i] += b[i];
}

void
scale(std::vector<double> &a, double f)
{
    for (double &v : a)
        v *= f;
}

/** Unique workload list covering everything a figure table needs. */
std::vector<std::string>
figureWorkloads()
{
    std::vector<std::string> all = workload::evaluatedMtWorkloads();
    for (const std::string &w : workload::parsecPrograms()) {
        if (std::find(all.begin(), all.end(), w) == all.end())
            all.push_back(w);
    }
    for (const std::string &w : workload::evaluatedMpWorkloads())
        all.push_back(w);
    return all;
}

/**
 * Cross-organization summary for multi-org figure runs: per-device
 * write latency (rounds x pulse), the Baseline vs RWoW-RDE mean MP
 * read latency, and the round-boundary pause count — the headline
 * "asymmetry widens, pausing pays off more" table.
 */
void
printOrgComparison(const sweep::SweepReport &report,
                   const HarnessConfig &hc)
{
    std::printf("\nDevice-organization comparison (MP mean)\n");
    std::printf("%-5s %6s %10s %11s %11s %8s %12s\n", "org", "rounds",
                "writeNs", "baseReadNs", "rwowReadNs", "gain",
                "roundPauses");
    rule(70);
    for (const DeviceOrg org : hc.orgs) {
        PcmTiming t = hc.system(presets::Baseline).controller.timing;
        if (org != DeviceOrg::Slc)
            t = t.withOrg(org);
        const double write_ns =
            static_cast<double>(t.writeRounds) * t.arrayWriteNs();

        const auto mp_mean = [&](const std::string &label) {
            std::vector<double> vals;
            for (const std::string &w :
                 workload::evaluatedMpWorkloads()) {
                const sweep::RunRecord *rec =
                    report.find("default", label, w, hc.seed);
                if (rec != nullptr && rec->ok)
                    vals.push_back(rec->results.avgReadLatencyNs);
            }
            return mean(vals);
        };
        std::string suffix;
        if (org != DeviceOrg::Slc)
            suffix = std::string("@") + deviceOrgName(org);
        const double base_lat =
            mp_mean(presets::Baseline.label() + suffix);
        const double rwow_lat =
            mp_mean(presets::RWoW_RDE.label() + suffix);

        std::uint64_t pauses = 0;
        for (const sweep::RunRecord &rec : report.rows) {
            if (rec.ok && rec.point.org == org)
                pauses += rec.results.writeRoundPauses;
        }
        std::printf("%-5s %6u %10.0f %11.1f %11.1f %7.2fx %12llu\n",
                    deviceOrgName(org), t.writeRounds, write_ns,
                    base_lat, rwow_lat,
                    rwow_lat > 0.0 ? base_lat / rwow_lat : 0.0,
                    static_cast<unsigned long long>(pauses));
    }
}

} // namespace

void
figureSweep(const HarnessConfig &hc, Metric metric, bool normalize)
{
    HostReport host;
    // Declare the whole run matrix up front and execute it through
    // the sweep runner (sharded across hc.threads workers), instead
    // of simulating inside the printing loops.
    const sweep::SweepSpec spec = hc.evaluationSpec(figureWorkloads());
    sweep::SweepRunner::Options opts;
    opts.threads = hc.threads;
    opts.collectStats = !hc.jsonl.empty();
    opts.obs = hc.obs.obs;
    opts.obsPathPrefix = hc.obs.pathPrefix;
    const sweep::SweepReport report =
        sweep::SweepRunner(opts).run(spec);

    if (!hc.jsonl.empty()) {
        std::ofstream out(hc.jsonl);
        if (!out)
            fatal("cannot open '", hc.jsonl, "' for writing");
        sweep::writeJsonl(report, out);
    }

    // One table block per device organization; with the default
    // org=slc this prints exactly the classic single table.
    const auto print_tables = [&](const std::vector<std::string>
                                      &labels) {
        std::printf("%-14s", "workload");
        if (normalize)
            std::printf(" %9s", "base-abs");
        else
            std::printf(" %9s", labels[0].c_str());
        for (std::size_t m = 1; m < labels.size(); ++m)
            std::printf(" %9s", labels[m].c_str());
        std::printf("\n");
        rule(static_cast<unsigned>(14 + 10 * labels.size()));

        // --- Multi-threaded workloads + Average(MT) over PARSEC ---
        for (const std::string &w : workload::evaluatedMtWorkloads())
            printRow(w, reportRow(report, hc, labels, w, metric),
                     normalize);

        std::vector<double> mt_avg;
        for (const std::string &w : workload::parsecPrograms()) {
            std::vector<double> vals =
                reportRow(report, hc, labels, w, metric);
            if (normalize && vals[0] != 0.0) {
                const double base = vals[0];
                for (std::size_t m = 1; m < vals.size(); ++m)
                    vals[m] /= base;
            }
            accumulate(mt_avg, vals);
        }
        scale(mt_avg, 1.0 / static_cast<double>(
                          workload::parsecPrograms().size()));
        // Average rows are already normalized per workload; print raw.
        std::printf("%-14s", "Average(MT)");
        for (const double v : mt_avg)
            std::printf(" %9.3f", v);
        std::printf("\n");
        rule(static_cast<unsigned>(14 + 10 * labels.size()));

        // --- Multiprogrammed mixes + Average(MP) ---
        std::vector<double> mp_avg;
        for (const std::string &w : workload::evaluatedMpWorkloads()) {
            std::vector<double> vals =
                reportRow(report, hc, labels, w, metric);
            printRow(w, vals, normalize);
            if (normalize && vals[0] != 0.0) {
                const double base = vals[0];
                for (std::size_t m = 1; m < vals.size(); ++m)
                    vals[m] /= base;
            }
            accumulate(mp_avg, vals);
        }
        scale(mp_avg, 1.0 / static_cast<double>(
                          workload::evaluatedMpWorkloads().size()));
        std::printf("%-14s", "Average(MP)");
        for (const double v : mp_avg)
            std::printf(" %9.3f", v);
        std::printf("\n");
    };

    for (std::size_t oi = 0; oi < hc.orgs.size(); ++oi) {
        if (hc.orgs.size() > 1) {
            if (oi > 0)
                std::printf("\n");
            std::printf("-- org=%s --\n",
                        deviceOrgName(hc.orgs[oi]));
        }
        print_tables(systemLabels(spec.systems, hc.orgs[oi]));
    }

    if (hc.orgs.size() > 1)
        printOrgComparison(report, hc);

    for (const sweep::RunRecord &rec : report.rows) {
        if (rec.ok)
            host.add(rec.results);
    }
    host.print();
}

int
figureMain(int argc, char **argv, const FigureDef &def)
{
    const HarnessConfig hc = HarnessConfig::parse(argc, argv);
    banner(def.title, def.paperRef, hc);
    figureSweep(hc, def.metric, def.normalize);
    return 0;
}

} // namespace pcmap::bench
