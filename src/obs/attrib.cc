/**
 * @file
 * AttribCollector: ledger lifecycle, histograms, exemplar reservoir,
 * and the attribution JSONL sink.
 */

#include "obs/attrib.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "sim/log.h"
#include "sim/stats.h"

namespace pcmap::obs::attrib {

const char *
phaseName(Phase p)
{
    switch (p) {
    case Phase::LinkWait: return "linkWait";
    case Phase::CacheLookup: return "cacheLookup";
    case Phase::MshrWait: return "mshrWait";
    case Phase::WbBufferStall: return "wbBufferStall";
    case Phase::QueueResidency: return "queueResidency";
    case Phase::BankWait: return "bankWait";
    case Phase::ArrayAccess: return "arrayAccess";
    case Phase::RoundPause: return "roundPause";
    case Phase::VerifyDefer: return "verifyDefer";
    case Phase::RollbackRedo: return "rollbackRedo";
    case Phase::Unattributed: return "unattributed";
    }
    return "unknown";
}

const char *
attribOpName(AttribOp op)
{
    switch (op) {
    case AttribOp::Read: return "read";
    case AttribOp::Write: return "write";
    case AttribOp::Writeback: return "writeback";
    }
    return "unknown";
}

AttribCollector::AttribCollector(unsigned exemplars)
    : reservoirCap(exemplars)
{
    families.resize(kOpCount); // one tenant until configureTenants()
    reservoir.reserve(reservoirCap);
}

void
AttribCollector::configureTenants(unsigned tenant_count,
                                  std::vector<unsigned> core_tenant)
{
    pcmap_assert(tenant_count >= 1);
    tenantCount = tenant_count;
    coreTenant = std::move(core_tenant);
    families.clear();
    families.resize(static_cast<std::size_t>(tenantCount) * kOpCount);
}

LedgerRef
AttribCollector::open(AttribOp op, unsigned core_id, std::uint64_t id,
                      Tick now)
{
    std::uint32_t slot;
    if (freeHead != kNoSlot) {
        slot = freeHead;
        freeHead = slotAt(slot).nextFree;
    } else {
        if (slotsUsed == chunks.size() * kChunkSlots)
            chunks.push_back(std::make_unique<Chunk>());
        slot = slotsUsed++;
    }
    Slot &s = slotAt(slot);
    ++s.generation; // even (free) -> odd (live)
    s.ledger = PhaseLedger{};
    PhaseLedger &led = s.ledger;
    led.start = now;
    led.cursor = now;
    led.id = id;
    led.tenant = tenantOf(core_id);
    led.opKind = op;
    ++numLive;
    return LedgerRef{slot, s.generation};
}

void
AttribCollector::release(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    ++s.generation; // odd (live) -> even (free): outstanding refs go stale
    s.nextFree = freeHead;
    freeHead = slot;
    --numLive;
}

void
AttribCollector::close(LedgerRef ref, Tick at)
{
    PhaseLedger *led = find(ref);
    if (led == nullptr || led->closed)
        return;
    // Whatever no layer claimed is the residual; conservation tests
    // pin it to zero, but the accounting stays exact regardless.
    led->account(Phase::Unattributed, at);
    led->closed = true;
    led->closedAt = at;
    if (!led->held)
        sample(ref.slot, *led);
}

void
AttribCollector::finishSpec(LedgerRef ref, Tick now, bool fault)
{
    PhaseLedger *led = find(ref);
    if (led == nullptr)
        return;
    // Annex accounting past the completion tick: the ledger is closed
    // (account() refuses), so charge the span directly.
    if (led->closed && now > led->cursor) {
        const Phase annex =
            fault ? Phase::RollbackRedo : Phase::VerifyDefer;
        led->spans[static_cast<std::size_t>(annex)] +=
            now - led->cursor;
        led->cursor = now;
    }
    sample(ref.slot, *led);
}

void
AttribCollector::discard(LedgerRef ref)
{
    if (find(ref) == nullptr)
        return;
    ++numDiscarded;
    release(ref.slot);
}

void
AttribCollector::finalize()
{
    // Ledgers still open at end of run (dirty victims parked in the
    // tier's wb buffer, requests in flight at the instruction target)
    // never completed; drop them so every histogram sample has a
    // matching completion.
    for (std::uint32_t slot = 0; slot < slotsUsed; ++slot) {
        const std::uint32_t gen = slotAt(slot).generation;
        if (gen % 2 != 0)
            discard(LedgerRef{slot, gen});
    }
}

void
AttribCollector::sample(std::uint32_t slot, const PhaseLedger &led)
{
    pcmap_assert(led.closed);
    const std::size_t family =
        static_cast<std::size_t>(led.tenant) * kOpCount +
        static_cast<std::size_t>(led.opKind);
    pcmap_assert(family < families.size());
    PhaseHists &fam = families[family];
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
        fam.phase[p].sample(led.spans[p]);
        fam.sumTicks[p] += led.spans[p];
    }
    const Tick total = led.closedAt - led.start;
    fam.total.sample(total);
    fam.totalSumTicks += total;
    ++numSampled;
    offerExemplar(led);
    release(slot);
}

namespace {

/** Strict-weak order: slowest first, ties broken deterministically. */
bool
slowerThan(const TailExemplar &a, const TailExemplar &b)
{
    if (a.total != b.total)
        return a.total > b.total;
    if (a.start != b.start)
        return a.start < b.start;
    if (a.id != b.id)
        return a.id < b.id;
    return a.tenant < b.tenant;
}

} // namespace

void
AttribCollector::offerExemplar(const PhaseLedger &led)
{
    if (reservoirCap == 0)
        return;
    TailExemplar ex;
    ex.start = led.start;
    ex.total = led.closedAt - led.start;
    ex.id = led.id;
    ex.tenant = led.tenant;
    ex.op = led.opKind;
    ex.spans = led.spans;
    if (reservoir.size() < reservoirCap) {
        reservoir.push_back(ex);
        return;
    }
    // Replace the fastest resident iff the candidate is slower.
    std::size_t fastest = 0;
    for (std::size_t i = 1; i < reservoir.size(); ++i) {
        if (slowerThan(reservoir[fastest], reservoir[i]))
            fastest = i;
    }
    if (slowerThan(ex, reservoir[fastest]))
        reservoir[fastest] = ex;
}

std::vector<TailExemplar>
AttribCollector::exemplars() const
{
    std::vector<TailExemplar> out = reservoir;
    std::sort(out.begin(), out.end(), slowerThan);
    return out;
}

void
AttribCollector::exportStats(stats::Writer &w) const
{
    const stats::Writer::Scope group(w, "attrib");
    for (unsigned t = 0; t < tenantCount; ++t) {
        const auto sampled = [&](std::size_t o) {
            return hists(t, static_cast<AttribOp>(o)).total.samples() > 0;
        };
        bool any = false;
        for (std::size_t o = 0; o < kOpCount; ++o)
            any = any || sampled(o);
        if (!any)
            continue;
        const stats::Writer::Scope tenant(w, "t", t);
        for (std::size_t o = 0; o < kOpCount; ++o) {
            if (!sampled(o))
                continue;
            const auto op = static_cast<AttribOp>(o);
            const PhaseHists &fam = hists(t, op);
            const stats::Writer::Scope family(w, attribOpName(op));
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
                const std::string name = phaseName(static_cast<Phase>(p));
                w.percentiles(name, fam.phase[p], 1e-3,
                              name + " phase latency share (ns)");
                w.scalar(name + "SumNs",
                         static_cast<double>(fam.sumTicks[p]) * 1e-3,
                         "exact " + name +
                             " ticks summed over all requests (ns)");
            }
            w.percentiles("total", fam.total, 1e-3,
                          "enqueue-to-completion latency (ns)");
            w.scalar("totalSumNs",
                     static_cast<double>(fam.totalSumTicks) * 1e-3,
                     "exact completion latency summed over all requests "
                     "(ns)");
        }
    }
}

namespace {

void
appendU64(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendHistRow(std::string &out, const char *kind, unsigned tenant,
              AttribOp op, const char *phase, const LogHistogram &h,
              std::uint64_t sum_ticks)
{
    out += "{\"kind\":\"";
    out += kind;
    out += "\",\"tenant\":";
    appendU64(out, tenant);
    out += ",\"op\":\"";
    out += attribOpName(op);
    out += "\"";
    if (phase != nullptr) {
        out += ",\"phase\":\"";
        out += phase;
        out += "\"";
    }
    out += ",\"samples\":";
    appendU64(out, h.samples());
    out += ",\"sumTicks\":";
    appendU64(out, sum_ticks);
    out += ",\"p50\":";
    appendU64(out, h.percentile(50.0));
    out += ",\"p90\":";
    appendU64(out, h.percentile(90.0));
    out += ",\"p99\":";
    appendU64(out, h.percentile(99.0));
    out += ",\"p999\":";
    appendU64(out, h.percentile(99.9));
    out += ",\"max\":";
    appendU64(out, h.maxSeen());
    out += "}\n";
}

} // namespace

std::string
attribJsonl(const AttribCollector &collector)
{
    std::string out;
    for (unsigned t = 0; t < collector.tenants(); ++t) {
        for (std::size_t o = 0; o < kOpCount; ++o) {
            const auto op = static_cast<AttribOp>(o);
            const AttribCollector::PhaseHists &fam =
                collector.hists(t, op);
            if (fam.total.samples() == 0)
                continue;
            for (std::size_t p = 0; p < kPhaseCount; ++p) {
                appendHistRow(out, "phase", t, op,
                              phaseName(static_cast<Phase>(p)),
                              fam.phase[p], fam.sumTicks[p]);
            }
            appendHistRow(out, "total", t, op, nullptr, fam.total,
                          fam.totalSumTicks);
        }
    }
    std::uint64_t rank = 0;
    for (const TailExemplar &ex : collector.exemplars()) {
        out += "{\"kind\":\"exemplar\",\"rank\":";
        appendU64(out, rank++);
        out += ",\"tenant\":";
        appendU64(out, ex.tenant);
        out += ",\"op\":\"";
        out += attribOpName(ex.op);
        out += "\",\"id\":";
        appendU64(out, ex.id);
        out += ",\"startTick\":";
        appendU64(out, ex.start);
        out += ",\"totalTicks\":";
        appendU64(out, ex.total);
        out += ",\"phases\":{";
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            if (p != 0)
                out += ",";
            out += "\"";
            out += phaseName(static_cast<Phase>(p));
            out += "\":";
            appendU64(out, ex.spans[p]);
        }
        out += "}}\n";
    }
    return out;
}

} // namespace pcmap::obs::attrib
