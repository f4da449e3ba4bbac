#include "cache/tier.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "obs/attrib.h"
#include "obs/trace.h"
#include "sim/log.h"
#include "sim/stats.h"

namespace pcmap::cache {

namespace {

/** Synthesized write-back ids live far above any source-issued id. */
constexpr ReqId kWbIdBase = 1ull << 62;

constexpr WordMask kAllWords =
    static_cast<WordMask>((1u << kWordsPerLine) - 1);

/** Parse "<digits>[K|M|G]" into bytes; fatal()s on malformed input. */
std::uint64_t
parseSize(const std::string &tok)
{
    // strtoull would accept a sign (negating the value) and leading
    // blanks; a size is digits only.
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        fatal("tier=: '", tok, "' is not a size");
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (errno == ERANGE)
        fatal("tier=: size '", tok, "' is too large");
    unsigned shift = 0;
    switch (std::toupper(static_cast<unsigned char>(*end))) {
    case '\0':
        break;
    case 'K':
        shift = 10;
        ++end;
        break;
    case 'M':
        shift = 20;
        ++end;
        break;
    case 'G':
        shift = 30;
        ++end;
        break;
    default:
        fatal("tier=: bad size suffix in '", tok,
              "' (use K, M or G)");
    }
    if (*end != '\0')
        fatal("tier=: trailing characters in size '", tok, "'");
    if (v > (~std::uint64_t{0} >> shift))
        fatal("tier=: size '", tok, "' is too large");
    const std::uint64_t bytes = static_cast<std::uint64_t>(v) << shift;
    if (bytes == 0)
        fatal("tier=: size must be positive");
    return bytes;
}

} // namespace

void
TierConfig::validate() const
{
    if (!enabled())
        fatal("TierConfig::validate on a disabled tier");
    if (mshrCap == 0)
        fatal("tier: mshrCap must be at least 1");
    if (writebackBatch == 0)
        fatal("tier: writebackBatch must be at least 1");
    if (wbBufferCap < writebackBatch)
        fatal("tier: wbBufferCap (", wbBufferCap,
              ") must be >= writebackBatch (", writebackBatch, ")");
    // Geometry (size multiple of ways * line, power-of-two sets) is
    // checked by the array's own CacheConfig::validate at build time.
}

TierConfig
tierConfigFromString(const std::string &text)
{
    TierConfig cfg;
    if (text == "none")
        return cfg;
    // dram:<size>:<ways>:<repl>
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
    if (parts.empty() || parts[0] != "dram") {
        fatal("tier=: '", text,
              "' (expected none or dram:<size>:<ways>:<repl>, "
              "e.g. dram:256M:8:lru)");
    }
    if (parts.size() != 4)
        fatal("tier=: '", text,
              "' needs exactly dram:<size>:<ways>:<repl>");
    cfg.sizeBytes = parseSize(parts[1]);
    char *end = nullptr;
    const unsigned long long ways =
        std::strtoull(parts[2].c_str(), &end, 10);
    if (end == parts[2].c_str() || *end != '\0' || ways == 0)
        fatal("tier=: '", parts[2], "' is not a way count");
    if (ways > kMaxAssociativity)
        fatal("tier=: ", parts[2], " ways exceeds the ",
              kMaxAssociativity, "-way limit");
    cfg.ways = static_cast<unsigned>(ways);
    cfg.repl = replPolicyFromName(parts[3]);
    cfg.validate();
    return cfg;
}

std::string
tierConfigToString(const TierConfig &cfg)
{
    if (!cfg.enabled())
        return "none";
    return "dram:" + std::to_string(cfg.sizeBytes) + ":" +
           std::to_string(cfg.ways) + ":" + replPolicyName(cfg.repl);
}

CacheTier::CacheTier(const TierConfig &config, EventQueue &eq,
                     MemoryPort &downstream)
    : ForwardingPort(downstream), cfg(config), eventq(eq),
      array(CacheConfig{cfg.sizeBytes, cfg.ways, cfg.repl})
{
    cfg.validate();
    mshrs.reserve(cfg.mshrCap);

    // The tier owns the downstream seams: queue-space notifications
    // first finish stalled drains and unissued fetches, and deferred
    // verify outcomes fan out to every waiter merged onto the
    // speculative fill before flowing upward.
    down.setRetryCallback([this]() { onDownstreamRetry(); });
    down.setVerifyCallback(
        [this](ReqId id, unsigned core_id, bool fault) {
            const auto it = speculativeFills.find(id);
            if (it == speculativeFills.end()) {
                if (upstreamVerify)
                    upstreamVerify(id, core_id, fault);
                return;
            }
            const auto waiters = std::move(it->second);
            speculativeFills.erase(it);
            if (upstreamVerify) {
                for (const auto &[wid, wcore] : waiters)
                    upstreamVerify(wid, wcore, fault);
            }
        });
}

std::uint64_t
CacheTier::lineOf(std::uint64_t addr) const
{
    return addr / kLineBytes;
}

CacheTier::Mshr *
CacheTier::findMshr(std::uint64_t line)
{
    for (Mshr &m : mshrs) {
        if (m.line == line)
            return &m;
    }
    return nullptr;
}

CacheTier::PendingWriteback *
CacheTier::findWb(std::uint64_t line)
{
    for (PendingWriteback &pw : wbBuffer) {
        if (pw.ev.lineAddr == line)
            return &pw;
    }
    return nullptr;
}

void
CacheTier::scheduleHit(const Waiter &w, const CacheLine &data)
{
    const Tick when = eventq.now() + cfg.hitTicks;
    eventq.schedule(
        when, [this, id = w.req.id, addr = w.req.addr,
               core = w.req.coreId, cb = w.cb, data, when,
               led = w.req.ledger]() {
            if (led) {
                attrib->account(led, obs::attrib::Phase::CacheLookup,
                                when);
                attrib->close(led, when);
            }
            ReadResponse resp;
            resp.id = id;
            resp.addr = addr;
            resp.coreId = core;
            resp.completionTick = when;
            resp.data = data;
            if (cb)
                cb(resp);
        });
}

bool
CacheTier::enqueueRead(const MemRequest &req, ReadCallback cb)
{
    const Tick now = eventq.now();
    const std::uint64_t line = lineOf(req.addr);

    // A parked dirty victim is newer than both the array and PCM, so
    // it must service reads until its write-back lands.
    if (const PendingWriteback *pw = findWb(line)) {
        ++tierStats.readHits;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheHit, now,
                        cfg.hitTicks, req.id, line);
        Waiter w{req, std::move(cb), now};
        if (attrib != nullptr)
            attrib->ensure(w.req, now, obs::attrib::AttribOp::Read);
        scheduleHit(w, pw->ev.data);
        return true;
    }

    const std::uint64_t way = array.lookup(line);
    if (way != SetAssocCache::kNoWay) {
        array.hit(way);
        ++tierStats.readHits;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheHit, now,
                        cfg.hitTicks, req.id, line);
        Waiter w{req, std::move(cb), now};
        if (attrib != nullptr)
            attrib->ensure(w.req, now, obs::attrib::AttribOp::Read);
        scheduleHit(w, array.data(way));
        return true;
    }

    if (Mshr *m = findMshr(line)) {
        array.miss();
        ++tierStats.readMisses;
        ++tierStats.mshrMerges;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheMiss, now, 0,
                        req.id, line, /*merged=*/1);
        Waiter w{req, std::move(cb), now};
        if (attrib != nullptr)
            attrib->ensure(w.req, now, obs::attrib::AttribOp::Read);
        m->waiters.push_back(std::move(w));
        return true;
    }

    if (mshrs.size() >= cfg.mshrCap) {
        ++tierStats.mshrRejects;
        upstreamBlocked = true;
        return false;
    }
    // Reserve write-back headroom: this miss's eventual fill may
    // evict a dirty line, and a fill cannot be refused.
    if (wbBuffer.size() >= cfg.wbBufferCap) {
        ++tierStats.wbRejects;
        upstreamBlocked = true;
        drainWritebacks();
        return false;
    }

    array.miss();
    ++tierStats.readMisses;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheMiss, now, 0, req.id,
                    line, /*merged=*/0);
    Waiter w{req, std::move(cb), now};
    if (attrib != nullptr)
        attrib->ensure(w.req, now, obs::attrib::AttribOp::Read);
    mshrs.push_back(Mshr{line, false, {std::move(w)}});
    issueFetch(mshrs.back()); // a refusal retries on downstream wake
    return true;
}

bool
CacheTier::enqueueWrite(const MemRequest &req)
{
    const Tick now = eventq.now();
    const std::uint64_t line = lineOf(req.addr);

    // Overwrite a parked victim in place: the line is logically still
    // ours until its write-back lands.
    if (PendingWriteback *pw = findWb(line)) {
        ++tierStats.writeHits;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheHit, now, 0,
                        req.id, line);
        pw->ev.dirtyWords |= pw->ev.data.diffMask(req.data);
        pw->ev.data = req.data;
        pw->ev.writer = req.coreId;
        if (attrib != nullptr)
            attrib->discard(req.ledger); // absorbed; never completes
        return true;
    }

    const std::uint64_t way = array.lookup(line);
    if (way != SetAssocCache::kNoWay) {
        // A write that changes no word keeps the line's last writer.
        array.hit(way, array.data(way).diffMask(req.data), &req.data,
                  req.coreId);
        ++tierStats.writeHits;
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheHit, now, 0,
                        req.id, line);
        if (attrib != nullptr)
            attrib->discard(req.ledger); // absorbed; never completes
        return true;
    }

    if (wbBuffer.size() >= cfg.wbBufferCap) {
        ++tierStats.wbRejects;
        upstreamBlocked = true;
        drainWritebacks();
        return false;
    }

    // Write-allocate without a fetch: the payload is the full line,
    // so install it directly, conservatively all-dirty.  The PCM
    // controller still discovers the essential words by diffing the
    // payload against the stored content at commit time.
    array.miss();
    ++tierStats.writeMisses;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheMiss, now, 0, req.id,
                    line, /*merged=*/0);
    if (attrib != nullptr)
        attrib->discard(req.ledger); // absorbed; never completes
    install(line, req.data, kAllWords, req.coreId);
    return true;
}

void
CacheTier::setRetryCallback(RetryCallback cb)
{
    // Not forwarded: the tier registered its own downstream handler,
    // and upstream back-pressure is the tier's (MSHR/WB) occupancy.
    upstreamRetry = std::move(cb);
}

void
CacheTier::setVerifyCallback(VerifyCallback cb)
{
    // The downstream wrapper registered at construction fans the
    // outcome out to merged waiters before calling this.
    upstreamVerify = std::move(cb);
}

bool
CacheTier::issueFetch(Mshr &m)
{
    // The fetch is the first waiter's request verbatim, so the PCM
    // side attributes the access — and any deferred verify — to the
    // core that missed first.
    const MemRequest &req = m.waiters.front().req;
    m.issued = down.enqueueRead(
        req, [this](const ReadResponse &resp) { onFillResponse(resp); });
    if (m.issued) {
        // The span the fetch sat unissued (MSHR allocated, PCM queue
        // full) is MSHR wait; downstream phases start here.
        if (const obs::attrib::LedgerRef led = req.ledger)
            attrib->account(led, obs::attrib::Phase::MshrWait,
                            eventq.now());
    }
    return m.issued;
}

void
CacheTier::onFillResponse(const ReadResponse &resp)
{
    const std::uint64_t line = lineOf(resp.addr);
    std::size_t idx = mshrs.size();
    for (std::size_t i = 0; i < mshrs.size(); ++i) {
        if (mshrs[i].line == line) {
            idx = i;
            break;
        }
    }
    pcmap_assert(idx < mshrs.size());
    std::vector<Waiter> waiters = std::move(mshrs[idx].waiters);
    mshrs.erase(mshrs.begin() +
                static_cast<std::ptrdiff_t>(idx));
    ++tierStats.fills;
    PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheFill,
                    resp.completionTick, 0, resp.id, line,
                    waiters.size());

    // The freshest copy wins: a write that raced the fetch left newer
    // content in the array or the write-back buffer, in which case the
    // fetched line is stale and must not be installed over it.
    CacheLine data = resp.data;
    if (const PendingWriteback *pw = findWb(line)) {
        data = pw->ev.data;
    } else if (const CacheLine *cur = array.peek(line)) {
        data = *cur;
    } else {
        install(line, resp.data, 0, 0);
    }

    if (resp.speculative) {
        auto &ids = speculativeFills[resp.id];
        ids.reserve(waiters.size());
        for (const Waiter &w : waiters)
            ids.emplace_back(w.req.id, w.req.coreId);
    }

    // Critical-word bypass: waiters get the data at the fill tick;
    // the array install happens in parallel.
    for (const Waiter &w : waiters) {
        tierStats.missLatency.sample(resp.completionTick - w.arrival);
        if (const obs::attrib::LedgerRef led = w.req.ledger) {
            // Merged waiters rode the primary's fetch: their whole
            // wait was MSHR time.  The primary's ledger went
            // downstream and is already closed (or sampled, and its
            // ref stale) — both calls no-op.
            attrib->account(led, obs::attrib::Phase::MshrWait,
                            resp.completionTick);
            attrib->close(led, resp.completionTick);
        }
        ReadResponse out;
        out.id = w.req.id;
        out.addr = w.req.addr;
        out.coreId = w.req.coreId;
        out.completionTick = resp.completionTick;
        out.data = data;
        out.speculative = resp.speculative;
        if (w.cb)
            w.cb(out);
    }
    notifyUpstream(); // an MSHR slot freed
}

void
CacheTier::install(std::uint64_t line, const CacheLine &data,
                   WordMask dirty, unsigned writer)
{
    std::optional<Eviction> ev = array.fill(line, data, dirty, &data,
                                            writer);
    if (!ev.has_value())
        return;
    obs::attrib::LedgerRef led;
    if (attrib != nullptr) {
        led = attrib->open(obs::attrib::AttribOp::Writeback, ev->writer,
                           0, eventq.now());
    }
    wbBuffer.push_back(PendingWriteback{*ev, led});
    if (wbBuffer.size() >= cfg.writebackBatch)
        drainWritebacks();
}

void
CacheTier::drainWritebacks()
{
    const Tick now = eventq.now();
    unsigned drained = 0;
    while (!wbBuffer.empty()) {
        const PendingWriteback &pw = wbBuffer.front();
        MemRequest w;
        w.id = kWbIdBase | ++wbSeq;
        w.type = ReqType::Write;
        w.addr = pw.ev.lineAddr * kLineBytes;
        w.coreId = pw.ev.writer;
        w.data = pw.ev.data;
        w.ledger = pw.ledger;
        if (!down.enqueueWrite(w)) {
            wbStalled = true;
            break;
        }
        if (pw.ledger) {
            // The span parked in the buffer (including drain stalls on
            // a full PCM write queue) is write-back buffer time.  The
            // ref is stale when the controller coalesced the write.
            if (obs::attrib::PhaseLedger *led = attrib->find(pw.ledger)) {
                led->setReqId(w.id);
                led->account(obs::attrib::Phase::WbBufferStall, now);
            }
        }
        PCMAP_OBS_TRACE(trace, obs::TracePoint::CacheWriteback, now, 0,
                        w.id, wordCount(pw.ev.dirtyWords),
                        wbBuffer.size() - 1);
        ++tierStats.writebacks;
        tierStats.dirtyWordsWrittenBack += wordCount(pw.ev.dirtyWords);
        wbBuffer.pop_front();
        ++drained;
    }
    if (wbBuffer.empty())
        wbStalled = false;
    if (drained > 0) {
        tierStats.writebackBatch.sample(drained);
        notifyUpstream(); // write-back slots freed
    }
}

void
CacheTier::onDownstreamRetry()
{
    // Stalled drains finish first (they free WB slots), then parked
    // fetches get another try, in MSHR order.
    if (wbStalled || wbBuffer.size() >= cfg.writebackBatch)
        drainWritebacks();
    for (Mshr &m : mshrs) {
        if (!m.issued && !issueFetch(m))
            break;
    }
}

void
CacheTier::notifyUpstream()
{
    if (!upstreamBlocked)
        return;
    upstreamBlocked = false;
    if (upstreamRetry)
        upstreamRetry();
}

void
CacheTier::flushDirty()
{
    for (Eviction &ev : array.flush()) {
        obs::attrib::LedgerRef led;
        if (attrib != nullptr) {
            led = attrib->open(obs::attrib::AttribOp::Writeback,
                               ev.writer, 0, eventq.now());
        }
        wbBuffer.push_back(PendingWriteback{ev, led});
    }
    wbStalled = true; // keep draining across downstream retries
    drainWritebacks();
}

void
CacheTier::exportStats(stats::Writer &w) const
{
    const TierCounters &c = tierStats;
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const stats::Writer::Scope group(w, "cache");
    w.scalar("hitRate", c.hitRate(), "tier hit fraction over all accesses");
    w.scalar("readHits", n(c.readHits), "tier read hits");
    w.scalar("readMisses", n(c.readMisses), "tier read misses");
    w.scalar("writeHits", n(c.writeHits),
             "writes absorbed by a resident line");
    w.scalar("writeMisses", n(c.writeMisses),
             "writes installed without a fetch");
    w.scalar("fills", n(c.fills), "lines fetched from PCM and installed");
    w.scalar("writebacks", n(c.writebacks),
             "dirty victims handed to the PCM side");
    w.scalar("dirtyWordsWrittenBack", n(c.dirtyWordsWrittenBack),
             "dirty words carried by those victims");
    w.scalar("mshrMerges", n(c.mshrMerges),
             "secondary misses merged onto an MSHR");
    w.scalar("mshrRejects", n(c.mshrRejects),
             "enqueues refused: MSHR file full");
    w.scalar("wbRejects", n(c.wbRejects),
             "enqueues refused: write-back buffer full");
    w.percentiles("missLatency", c.missLatency, 1e-3,
                  "read-miss arrival-to-delivery percentiles (ns)");
    w.percentiles("writebackBatch", c.writebackBatch, 1.0,
                  "lines handed to PCM per drain burst");
}

} // namespace pcmap::cache
