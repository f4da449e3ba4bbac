#include "analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/json_mini.h"
#include "sweep/sweep_io.h"

namespace pcmap::repobench {

namespace {

const std::string kChannel = "pcm.mc";
const std::string kAttrib = "attrib.";
const std::string kSumNs = "SumNs";
const std::string kTotalSumNs = "totalSumNs";

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double
per(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Call @p f("pcm.mc<N>.", value) for every pcm.mc<N>.<field> stat. */
template <class F>
void
forChannels(const Row &row, const std::string &field, F &&f)
{
    for (auto it = row.stats.lower_bound(kChannel);
         it != row.stats.end() && startsWith(it->first, kChannel); ++it) {
        const auto dot = it->first.find('.', kChannel.size());
        if (dot != std::string::npos &&
            it->first.compare(dot + 1, std::string::npos, field) == 0)
            f(it->first.substr(0, dot + 1), it->second);
    }
}

double
sumChannels(const Row &row, const std::string &field)
{
    double sum = 0.0;
    forChannels(row, field,
                [&](const std::string &, double v) { sum += v; });
    return sum;
}

double
maxChannels(const Row &row, const std::string &field)
{
    double m = 0.0;
    forChannels(row, field,
                [&](const std::string &, double v) { m = std::max(m, v); });
    return m;
}

/**
 * Tenant 0's read p99.  With a fabric that is its end-to-end read
 * tail; without one every core is tenant 0 and reads see only the
 * controllers, so it is their read p99 weighted by their sample counts.
 */
double
t0ReadP99Ns(const Row &row)
{
    const auto it = row.stats.find("fabric.tenant0.read.p99");
    if (it != row.stats.end())
        return it->second;
    double weighted = 0.0;
    double samples = 0.0;
    forChannels(row, "readLatencyHistNs.p99",
                [&](const std::string &mc, double p99) {
                    const double n =
                        value(row.stats, mc + "readLatencyHistNs.samples");
                    weighted += p99 * n;
                    samples += n;
                });
    return per(weighted, samples);
}

/** The exact ticks behind an attribution SumNs stat (ticks * 1e-3). */
std::int64_t
ticks(double ns)
{
    return std::llround(ns * 1e3);
}

void
flatten(const obs::JsonValue *obj, std::map<std::string, double> &out)
{
    if (obj == nullptr)
        return;
    for (const auto &[key, v] : obj->members()) {
        if (v.isNumber())
            out.emplace(key, v.asNumber());
    }
}

std::string
text(const obs::JsonValue &doc, const char *key)
{
    const obs::JsonValue *v = doc.get(key);
    return v != nullptr && v->isString() ? v->asString() : std::string();
}

std::map<std::string, double>
withoutAttrib(const std::map<std::string, double> &stats)
{
    std::map<std::string, double> out;
    for (const auto &[key, v] : stats) {
        if (!startsWith(key, kAttrib))
            out.emplace(key, v);
    }
    return out;
}

} // namespace

bool
Tally::expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failed;
        std::printf("FAIL: %s\n", what.c_str());
    }
    return ok;
}

std::vector<Row>
parseJsonl(const std::string &jsonl)
{
    std::vector<Row> rows;
    std::istringstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
        Row row;
        if (const auto doc = obs::parseJson(line); doc && doc->isObject()) {
            row.mode = text(*doc, "mode");
            row.workload = text(*doc, "workload");
            const obs::JsonValue *ok = doc->get("ok");
            row.ok = ok != nullptr && ok->isBool() && ok->asBool();
            flatten(doc->get("metrics"), row.metrics);
            flatten(doc->get("stats"), row.stats);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::string
digest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return sweep::fingerprintHex(h);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomeanRatio(const std::vector<double> &num, const std::vector<double> &den)
{
    if (num.empty() || num.size() != den.size())
        return 0.0;
    double log_sum = 0.0;
    for (std::size_t i = 0; i < num.size(); ++i) {
        if (!(num[i] > 0.0 && den[i] > 0.0))
            return 0.0;
        log_sum += std::log(num[i] / den[i]);
    }
    return std::exp(log_sum / static_cast<double>(num.size()));
}

double
value(const std::map<std::string, double> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it != m.end() ? it->second : 0.0;
}

unsigned
closedLoopCores(unsigned cores, const std::vector<double> &tenant_rates)
{
    // Tenants own contiguous core blocks (core i belongs to tenant
    // i * tenants / cores), and an open-loop tenant replaces its cores
    // with one request stream.
    if (tenant_rates.empty())
        return cores;
    unsigned closed = 0;
    for (unsigned i = 0; i < cores; ++i) {
        if (tenant_rates[i * tenant_rates.size() / cores] <= 0.0)
            ++closed;
    }
    return closed;
}

std::string
conservationError(const Row &row)
{
    for (const auto &[key, total_ns] : row.stats) {
        if (!startsWith(key, kAttrib) || !endsWith(key, "." + kTotalSumNs))
            continue;
        const std::string family =
            key.substr(0, key.size() - kTotalSumNs.size());
        std::int64_t all = 0;
        std::int64_t annex = 0;
        std::int64_t residual = 0;
        for (auto it = row.stats.lower_bound(family);
             it != row.stats.end() && startsWith(it->first, family); ++it) {
            const std::string phase = it->first.substr(family.size());
            if (phase == kTotalSumNs || !endsWith(phase, kSumNs))
                continue;
            const std::int64_t t = ticks(it->second);
            all += t;
            if (phase == "verifyDeferSumNs" || phase == "rollbackRedoSumNs")
                annex += t;
            else if (phase == "unattributedSumNs")
                residual = t;
        }
        // A speculative read completes before its deferred check, so
        // only reads may carry annex time past the total.
        const std::int64_t expected =
            ticks(total_ns) + (endsWith(family, ".read.") ? annex : 0);
        if (residual != 0 || all != expected) {
            return family + " phases sum to " + std::to_string(all) +
                   " ticks, expected " + std::to_string(expected) +
                   " (unattributed " + std::to_string(residual) + ")";
        }
    }
    return {};
}

bool
equalIgnoringAttrib(const Row &a, const Row &b)
{
    return a.mode == b.mode && a.workload == b.workload && a.ok == b.ok &&
           a.metrics == b.metrics &&
           withoutAttrib(a.stats) == withoutAttrib(b.stats);
}

void
checkRows(Tally &tally, const std::string &jsonl,
          const std::vector<Row> &rows,
          const std::vector<std::uint64_t> &inst_retired,
          const Expectations &want)
{
    if (!want.digest.empty()) {
        const std::string got = digest(jsonl);
        tally.expect(got == want.digest, "sweep JSONL digest " + got +
                                             " != recorded " + want.digest);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const std::string who = "row " + std::to_string(i) + " (" +
                                r.mode + "/" + r.workload + ")";
        if (!tally.expect(r.ok, who + ": run failed"))
            continue;
        const std::string err = conservationError(r);
        tally.expect(err.empty(), who + ": attribution: " + err);
        const std::uint64_t got =
            i < inst_retired.size() ? inst_retired[i] : 0;
        tally.expect(got == want.instsPerRow,
                     who + ": closed-loop cores retired " +
                         std::to_string(got) + " instructions, expected " +
                         std::to_string(want.instsPerRow));
    }
}

std::vector<Pair>
pairs(const std::vector<Row> &rows)
{
    // Labels carry the org as a suffix ("Baseline@tlc").
    const std::string base = "Baseline";
    std::vector<Pair> out;
    for (const Row &b : rows) {
        if (!startsWith(b.mode, base) ||
            (b.mode.size() > base.size() && b.mode[base.size()] != '@'))
            continue;
        const std::string label = "RWoW-RDE" + b.mode.substr(base.size());
        for (const Row &p : rows) {
            if (p.mode == label && p.workload == b.workload) {
                out.push_back({&b, &p});
                break;
            }
        }
    }
    return out;
}

SimSummary
summarize(const std::vector<Row> &rows)
{
    std::vector<double> ipc_p, ipc_b, lat_p, lat_b, tput_p, tput_b;
    double irlp = 0.0;
    const std::vector<Pair> ps = pairs(rows);
    for (const Pair &p : ps) {
        const auto &b = p.base->metrics;
        const auto &m = p.pcmap->metrics;
        ipc_p.push_back(value(m, "ipcSum"));
        ipc_b.push_back(value(b, "ipcSum"));
        lat_p.push_back(value(m, "avgReadLatencyNs"));
        lat_b.push_back(value(b, "avgReadLatencyNs"));
        tput_p.push_back(value(m, "writeThroughput"));
        tput_b.push_back(value(b, "writeThroughput"));
        irlp += value(m, "irlpMean");
    }
    // The tail of one system on one program swings with the seed; over
    // the whole matrix it is steady.
    std::vector<double> p99, ones;
    for (const Row &r : rows) {
        p99.push_back(t0ReadP99Ns(r));
        ones.push_back(1.0);
    }
    SimSummary s;
    s.ipcRatio = geomeanRatio(ipc_p, ipc_b);
    s.readLatRatio = geomeanRatio(lat_p, lat_b);
    s.irlpMean = per(irlp, static_cast<double>(ps.size()));
    s.writeTputGain = geomeanRatio(tput_p, tput_b);
    s.t0ReadP99Ns = geomeanRatio(p99, ones);
    return s;
}

std::vector<Metric>
simLayers(const std::vector<Row> &rows, const std::vector<Row> &attrib_rows)
{
    double reads = 0.0, writes = 0.0, row_reads = 0.0, merged = 0.0;
    double delayed = 0.0, silent = 0.0, queue_p99 = 0.0, write_p99 = 0.0;
    double rounds = 0.0, pauses = 0.0, energy = 0.0;
    double verifies = 0.0, faults = 0.0, deferred = 0.0;
    double ipc = 0.0, spec = 0.0, rollbacks = 0.0, rpki = 0.0, wpki = 0.0;
    double hits = 0.0, misses = 0.0, read_misses = 0.0, rejects = 0.0;
    double merges = 0.0, wb_rejects = 0.0, miss_p99 = 0.0;
    double fabric_rows = 0.0, util = 0.0, jain = 0.0, t0_wait = 0.0;
    double t1_wait = 0.0, t1_rejected = 0.0, t1_offered = 0.0;
    for (const Row &r : rows) {
        const auto &s = r.stats;
        const auto &m = r.metrics;
        reads += sumChannels(r, "reads");
        writes += sumChannels(r, "writes");
        row_reads += sumChannels(r, "rowReads");
        merged += sumChannels(r, "wowMergedWrites");
        delayed += sumChannels(r, "readsDelayedByWrite");
        silent += sumChannels(r, "writesSilent");
        queue_p99 =
            std::max(queue_p99, maxChannels(r, "queueResidencyNs.p99"));
        write_p99 =
            std::max(write_p99, maxChannels(r, "writeLatencyHistNs.p99"));
        rounds += sumChannels(r, "writeRounds");
        pauses += sumChannels(r, "writeRoundPauses");
        energy += sumChannels(r, "energyUj");
        verifies += sumChannels(r, "verifies");
        faults += sumChannels(r, "faults");
        deferred += sumChannels(r, "eccDeferredReads");
        ipc += value(m, "ipcSum");
        spec += value(m, "specReads");
        rollbacks += value(m, "rollbacks");
        rpki += value(m, "rpki");
        wpki += value(m, "wpki");
        hits += value(s, "cache.readHits") + value(s, "cache.writeHits");
        misses +=
            value(s, "cache.readMisses") + value(s, "cache.writeMisses");
        read_misses += value(s, "cache.readMisses");
        rejects += value(s, "cache.mshrRejects");
        merges += value(s, "cache.mshrMerges");
        wb_rejects += value(s, "cache.wbRejects");
        miss_p99 = std::max(miss_p99, value(s, "cache.missLatency.p99"));
        if (s.count("fabric.linkUtilization") != 0) {
            ++fabric_rows;
            util += value(s, "fabric.linkUtilization");
            jain += value(s, "fabric.jainIndex");
        }
        t0_wait = std::max(t0_wait, value(s, "fabric.tenant0.linkWait.p99"));
        t1_wait = std::max(t1_wait, value(s, "fabric.tenant1.linkWait.p99"));
        t1_rejected += value(s, "fabric.tenant1.rejected");
        t1_offered += value(s, "fabric.tenant1.readsAccepted") +
                      value(s, "fabric.tenant1.writesAccepted") +
                      value(s, "fabric.tenant1.rejected");
    }
    const double n = static_cast<double>(rows.size());
    std::vector<Metric> out = {
        {"core.ctrl.reads", "count", reads},
        {"core.ctrl.writes", "count", writes},
        {"core.ctrl.row_read_frac", "ratio", per(row_reads, reads)},
        {"core.ctrl.wow_merge_frac", "ratio", per(merged, writes)},
        {"core.ctrl.reads_delayed_by_write_pct", "%",
         100.0 * per(delayed, reads)},
        {"core.ctrl.queue_residency_p99_ns", "ns", queue_p99},
        {"core.ctrl.write_latency_p99_ns", "ns", write_p99},
        {"core.ctrl.silent_write_frac", "ratio", per(silent, writes)},
        {"mem.write_rounds", "count", rounds},
        {"mem.round_pauses_per_write", "1/write", per(pauses, writes)},
        {"mem.energy_uj", "uJ", energy},
        {"ecc.verifies", "count", verifies},
        {"ecc.faults", "count", faults},
        {"ecc.deferred_read_frac", "ratio", per(deferred, reads)},
        {"cpu.ipc_sum", "inst/cycle", ipc},
        {"cpu.spec_reads", "count", spec},
        {"cpu.rollbacks", "count", rollbacks},
        {"cache.hit_rate", "ratio", per(hits, hits + misses)},
        {"cache.mshr_reject_frac", "ratio",
         per(rejects, read_misses + rejects)},
        {"cache.mshr_merges", "count", merges},
        {"cache.wb_rejects", "count", wb_rejects},
        {"cache.miss_latency_p99_ns", "ns", miss_p99},
        {"fabric.link_utilization", "ratio", per(util, fabric_rows)},
        {"fabric.t0.link_wait_p99_ns", "ns", t0_wait},
        {"fabric.t1.link_wait_p99_ns", "ns", t1_wait},
        {"fabric.t1.rejected_frac", "ratio", per(t1_rejected, t1_offered)},
        {"fabric.jain", "ratio", per(jain, fabric_rows)},
    };
    // Where tenant 0's read time went.
    const std::string family = "attrib.t0.read.";
    double total = 0.0;
    for (const Row &r : attrib_rows)
        total += value(r.stats, family + kTotalSumNs);
    for (const char *phase : {"linkWait", "queueResidency", "bankWait",
                              "arrayAccess", "verifyDefer"}) {
        double sum = 0.0;
        for (const Row &r : attrib_rows)
            sum += value(r.stats, family + phase + kSumNs);
        out.push_back({std::string("obs.t0_read.") + phase + "_share",
                       "ratio", per(sum, total)});
    }
    out.push_back({"workload.rpki", "1/kinst", per(rpki, n)});
    out.push_back({"workload.wpki", "1/kinst", per(wpki, n)});
    return out;
}

} // namespace pcmap::repobench
