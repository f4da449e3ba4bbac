/**
 * @file
 * Tests for the timed DRAM cache tier: the sweep-axis grammar and
 * TierConfig validation, hit/miss timing and MSHR semantics against a
 * scriptable downstream port, write-back buffering and back-pressure,
 * parked-victim coherence, the last writer each write-back is charged
 * to, thread-count determinism of tier-enabled
 * sweeps, observability neutrality, and the LRU-vs-MAC PCM
 * write-traffic difference through a full System run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/tier.h"
#include "core/stat_export.h"
#include "core/system.h"
#include "sim/log.h"
#include "sweep/sweep_io.h"
#include "sweep/sweep_runner.h"
#include "workload/mixes.h"

namespace pcmap {
namespace {

using cache::CacheTier;
using cache::ReplPolicy;
using cache::TierConfig;

CacheLine
patternLine(std::uint64_t seed)
{
    CacheLine l;
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        l.w[i] = seed * 100 + i;
    return l;
}

TEST(TierAxis, ParseAndRoundtrip)
{
    const TierConfig none = cache::tierConfigFromString("none");
    EXPECT_FALSE(none.enabled());
    EXPECT_EQ(cache::tierConfigToString(none), "none");

    const TierConfig t = cache::tierConfigFromString("dram:256K:4:mac");
    EXPECT_TRUE(t.enabled());
    EXPECT_EQ(t.sizeBytes, 256ull << 10);
    EXPECT_EQ(t.ways, 4u);
    EXPECT_EQ(t.repl, ReplPolicy::Mac);
    EXPECT_EQ(cache::tierConfigToString(t), "dram:262144:4:mac");

    EXPECT_EQ(cache::tierConfigFromString("dram:1M:8:lru").sizeBytes,
              1ull << 20);
    EXPECT_EQ(cache::tierConfigFromString("dram:1G:8:lru").sizeBytes,
              1ull << 30);
    // The canonical (suffix-free) form must parse back to itself.
    const TierConfig rt =
        cache::tierConfigFromString(cache::tierConfigToString(t));
    EXPECT_EQ(rt.sizeBytes, t.sizeBytes);
    EXPECT_EQ(rt.ways, t.ways);
    EXPECT_EQ(rt.repl, t.repl);
}

TEST(TierAxis, RejectsMalformedStrings)
{
    ScopedErrorTrap trap;
    EXPECT_THROW(cache::tierConfigFromString("dram"), SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1M:8"), SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1M:8:lru:x"),
                 SimError);
    EXPECT_THROW(cache::tierConfigFromString("sram:1M:8:lru"), SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:0:8:lru"), SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1T:8:lru"), SimError);
    // Sizes that wrap: a shift past 2^64, a negative count, a count
    // past 2^64 (each once read as some valid size).
    EXPECT_THROW(cache::tierConfigFromString("dram:17592186044417M:8:lru"),
                 SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:-1M:8:lru"), SimError);
    EXPECT_THROW(
        cache::tierConfigFromString("dram:99999999999999999999K:8:lru"),
        SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1M:zero:lru"),
                 SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1M:0:lru"), SimError);
    // Way counts above the cache's 64-way limit, including one that
    // would wrap to 1 in an unsigned.
    EXPECT_THROW(cache::tierConfigFromString("dram:4M:128:lru"),
                 SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:4M:4294967297:lru"),
                 SimError);
    EXPECT_THROW(cache::tierConfigFromString("dram:1M:8:plru"),
                 SimError);
}

TEST(TierConfigValidate, RejectsUnusableShapes)
{
    ScopedErrorTrap trap;

    TierConfig disabled;
    EXPECT_THROW(disabled.validate(), SimError);

    TierConfig no_mshr;
    no_mshr.sizeBytes = 1ull << 20;
    no_mshr.mshrCap = 0;
    EXPECT_THROW(no_mshr.validate(), SimError);

    TierConfig no_batch;
    no_batch.sizeBytes = 1ull << 20;
    no_batch.writebackBatch = 0;
    EXPECT_THROW(no_batch.validate(), SimError);

    TierConfig shallow_buffer;
    shallow_buffer.sizeBytes = 1ull << 20;
    shallow_buffer.writebackBatch = 8;
    shallow_buffer.wbBufferCap = 4;
    EXPECT_THROW(shallow_buffer.validate(), SimError);

    TierConfig ok;
    ok.sizeBytes = 1ull << 20;
    EXPECT_NO_THROW(ok.validate());
}

/**
 * A scriptable PCM-side stand-in: records every enqueue, can refuse
 * reads/writes on demand, and lets the test deliver fill responses
 * and fire the retry seam by hand.
 */
class FakePort : public MemoryPort
{
  public:
    bool
    enqueueRead(const MemRequest &req, ReadCallback cb) override
    {
        if (!acceptReads)
            return false;
        reads.emplace_back(req, std::move(cb));
        return true;
    }

    bool
    enqueueWrite(const MemRequest &req) override
    {
        if (!acceptWrites)
            return false;
        writes.push_back(req);
        return true;
    }

    void setRetryCallback(RetryCallback cb) override { retry = std::move(cb); }
    void setVerifyCallback(VerifyCallback cb) override { verify = std::move(cb); }

    /** Complete pending read @p i with @p data at @p when. */
    void
    deliver(std::size_t i, const CacheLine &data, Tick when,
            bool speculative = false)
    {
        ReadResponse resp;
        resp.id = reads[i].first.id;
        resp.addr = reads[i].first.addr;
        resp.coreId = reads[i].first.coreId;
        resp.completionTick = when;
        resp.data = data;
        resp.speculative = speculative;
        auto cb = reads[i].second;
        cb(resp);
    }

    bool acceptReads = true;
    bool acceptWrites = true;
    std::vector<std::pair<MemRequest, ReadCallback>> reads;
    std::vector<MemRequest> writes;
    RetryCallback retry;
    VerifyCallback verify;
};

MemRequest
readReq(ReqId id, std::uint64_t line)
{
    MemRequest r;
    r.id = id;
    r.type = ReqType::Read;
    r.addr = line * kLineBytes;
    return r;
}

MemRequest
writeReq(ReqId id, std::uint64_t line, const CacheLine &data)
{
    MemRequest r;
    r.id = id;
    r.type = ReqType::Write;
    r.addr = line * kLineBytes;
    r.data = data;
    return r;
}

TEST(TierTiming, ReadHitDeliversExactlyHitTicksLater)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    cfg.ways = 4;
    CacheTier tier(cfg, eq, pcm);

    // A full-line write installs without a fetch (write-allocate,
    // no-fetch), so the following read is a pure DRAM hit.
    ASSERT_TRUE(tier.enqueueWrite(writeReq(1, 5, patternLine(5))));
    EXPECT_TRUE(pcm.reads.empty());

    std::vector<ReadResponse> got;
    ASSERT_TRUE(tier.enqueueRead(
        readReq(2, 5), [&](const ReadResponse &r) { got.push_back(r); }));
    eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].completionTick, cfg.hitTicks);
    EXPECT_EQ(got[0].data, patternLine(5));
    EXPECT_EQ(tier.counters().readHits, 1u);
    EXPECT_EQ(tier.counters().writeMisses, 1u);
    // Write-allocate installs are not PCM fetches.
    EXPECT_EQ(tier.counters().fills, 0u);
}

TEST(TierTiming, ReadMissFetchesOnceAndMergesSecondaries)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    CacheTier tier(cfg, eq, pcm);

    std::vector<ReadResponse> got;
    const auto sink = [&](const ReadResponse &r) { got.push_back(r); };
    ASSERT_TRUE(tier.enqueueRead(readReq(1, 9), sink));
    ASSERT_TRUE(tier.enqueueRead(readReq(2, 9), sink));
    ASSERT_EQ(pcm.reads.size(), 1u) << "one fetch per distinct line";
    EXPECT_EQ(tier.counters().mshrMerges, 1u);
    EXPECT_EQ(tier.mshrInUse(), 1u);

    pcm.deliver(0, patternLine(9), /*when=*/123'000);
    ASSERT_EQ(got.size(), 2u) << "the fill fans out to merged waiters";
    for (const ReadResponse &r : got) {
        EXPECT_EQ(r.completionTick, 123'000u);
        EXPECT_EQ(r.data, patternLine(9));
    }
    EXPECT_EQ(tier.mshrInUse(), 0u);
    EXPECT_EQ(tier.counters().fills, 1u);

    // Now resident: the next read is a hit and fetches nothing.
    got.clear();
    ASSERT_TRUE(tier.enqueueRead(readReq(3, 9), sink));
    eq.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(pcm.reads.size(), 1u);
    EXPECT_EQ(tier.counters().readHits, 1u);
}

TEST(TierTiming, SpeculativeFillFansVerifyOutToEveryWaiter)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    CacheTier tier(cfg, eq, pcm);

    std::vector<std::pair<ReqId, bool>> verdicts;
    tier.setVerifyCallback([&](ReqId id, unsigned, bool fault) {
        verdicts.emplace_back(id, fault);
    });

    std::vector<ReadResponse> got;
    const auto sink = [&](const ReadResponse &r) { got.push_back(r); };
    ASSERT_TRUE(tier.enqueueRead(readReq(11, 4), sink));
    ASSERT_TRUE(tier.enqueueRead(readReq(12, 4), sink));
    pcm.deliver(0, patternLine(4), 50'000, /*speculative=*/true);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_TRUE(got[0].speculative);
    EXPECT_TRUE(got[1].speculative);

    // The PCM side resolves the deferred SECDED check under the
    // *fetch* id (the first waiter's); both merged readers must hear.
    ASSERT_TRUE(pcm.verify);
    pcm.verify(11, 0, /*fault=*/false);
    ASSERT_EQ(verdicts.size(), 2u);
    EXPECT_EQ(verdicts[0].first, 11u);
    EXPECT_EQ(verdicts[1].first, 12u);
}

TEST(TierBackpressure, FullMshrFileRefusesThenRetries)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    cfg.mshrCap = 1;
    CacheTier tier(cfg, eq, pcm);

    bool retried = false;
    tier.setRetryCallback([&] { retried = true; });

    std::vector<ReadResponse> got;
    const auto sink = [&](const ReadResponse &r) { got.push_back(r); };
    ASSERT_TRUE(tier.enqueueRead(readReq(1, 0), sink));
    EXPECT_FALSE(tier.enqueueRead(readReq(2, 1), sink))
        << "a second distinct-line miss must be refused at mshrCap=1";
    EXPECT_EQ(tier.counters().mshrRejects, 1u);
    EXPECT_FALSE(retried);

    // Completing the outstanding fill frees the slot and must wake
    // the blocked source through the retry seam.
    pcm.deliver(0, patternLine(0), 90'000);
    EXPECT_TRUE(retried);
    EXPECT_TRUE(tier.enqueueRead(readReq(2, 1), sink));
    EXPECT_EQ(tier.mshrInUse(), 1u);
}

TEST(TierBackpressure, WritebackBufferStallsAndDrainsOnRetry)
{
    EventQueue eq;
    FakePort pcm;
    pcm.acceptWrites = false; // PCM write queue full for now
    TierConfig cfg;
    cfg.sizeBytes = kLineBytes; // 1 set x 1 way: every line collides
    cfg.ways = 1;
    cfg.writebackBatch = 1;
    cfg.wbBufferCap = 1;
    CacheTier tier(cfg, eq, pcm);

    bool retried = false;
    tier.setRetryCallback([&] { retried = true; });

    // Install line 0 dirty, then evict it with line 1: the victim
    // parks, its drain attempt stalls on the refused enqueue.
    ASSERT_TRUE(tier.enqueueWrite(writeReq(1, 0, patternLine(0))));
    ASSERT_TRUE(tier.enqueueWrite(writeReq(2, 1, patternLine(1))));
    EXPECT_EQ(tier.wbBuffered(), 1u);
    EXPECT_TRUE(pcm.writes.empty());

    // Buffer full: a third write (and a read miss, which must reserve
    // fill headroom) are refused.
    EXPECT_FALSE(tier.enqueueWrite(writeReq(3, 2, patternLine(2))));
    std::vector<ReadResponse> got;
    EXPECT_FALSE(tier.enqueueRead(
        readReq(4, 3), [&](const ReadResponse &r) { got.push_back(r); }));
    EXPECT_EQ(tier.counters().wbRejects, 2u);

    // A parked victim still owns the freshest copy: reads and writes
    // to it must be served from the buffer, not refused.
    std::vector<ReadResponse> parked;
    ASSERT_TRUE(tier.enqueueRead(
        readReq(5, 0),
        [&](const ReadResponse &r) { parked.push_back(r); }));
    eq.run();
    ASSERT_EQ(parked.size(), 1u);
    EXPECT_EQ(parked[0].data, patternLine(0));

    // PCM frees space: the downstream retry finishes the drain and
    // wakes the blocked source.
    pcm.acceptWrites = true;
    ASSERT_TRUE(pcm.retry);
    pcm.retry();
    EXPECT_TRUE(retried);
    ASSERT_EQ(pcm.writes.size(), 1u);
    EXPECT_EQ(pcm.writes[0].addr, 0u);
    EXPECT_EQ(pcm.writes[0].data, patternLine(0));
    EXPECT_EQ(tier.wbBuffered(), 0u);
    EXPECT_EQ(tier.counters().writebacks, 1u);
    EXPECT_TRUE(tier.enqueueWrite(writeReq(3, 2, patternLine(2))));
}

TEST(TierBackpressure, FlushDirtyPushesEveryResidentDirtyLine)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    cfg.writebackBatch = 64; // no implicit drain during the run
    cfg.wbBufferCap = 64;
    CacheTier tier(cfg, eq, pcm);

    for (std::uint64_t line = 0; line < 6; ++line)
        ASSERT_TRUE(tier.enqueueWrite(writeReq(line, line,
                                               patternLine(line))));
    EXPECT_TRUE(pcm.writes.empty());
    tier.flushDirty();
    EXPECT_EQ(pcm.writes.size(), 6u);
    EXPECT_EQ(tier.counters().writebacks, 6u);
}

MemRequest
writeBy(unsigned core, ReqId id, std::uint64_t line, const CacheLine &data)
{
    MemRequest r = writeReq(id, line, data);
    r.coreId = core;
    return r;
}

TEST(TierWriter, WritebackCarriesTheLastCoreThatChangedTheLine)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = kLineBytes; // 1 set x 1 way: every line collides
    cfg.ways = 1;
    cfg.writebackBatch = 1;
    CacheTier tier(cfg, eq, pcm);

    // Core 3 installs line 0; core 7 rewrites it with the same words,
    // which dirties nothing and so takes nothing over.
    ASSERT_TRUE(tier.enqueueWrite(writeBy(3, 1, 0, patternLine(0))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(7, 2, 0, patternLine(0))));
    // Core 5's line 1 evicts line 0.
    ASSERT_TRUE(tier.enqueueWrite(writeBy(5, 3, 1, patternLine(1))));
    ASSERT_EQ(pcm.writes.size(), 1u);
    EXPECT_EQ(pcm.writes[0].addr, 0u);
    EXPECT_EQ(pcm.writes[0].coreId, 3u);

    // A write that changes a word takes line 1 over from core 5.
    ASSERT_TRUE(tier.enqueueWrite(writeBy(9, 4, 1, patternLine(11))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(5, 5, 2, patternLine(2))));
    ASSERT_EQ(pcm.writes.size(), 2u);
    EXPECT_EQ(pcm.writes[1].addr, kLineBytes);
    EXPECT_EQ(pcm.writes[1].coreId, 9u);

    // A line filled by a read is clean until written: its first
    // changing writer is the one charged.
    std::vector<ReadResponse> got;
    ASSERT_TRUE(tier.enqueueRead(
        readReq(6, 3), [&](const ReadResponse &r) { got.push_back(r); }));
    pcm.deliver(0, patternLine(3), 10'000); // evicts line 2 (core 5)
    ASSERT_EQ(pcm.writes.size(), 3u);
    EXPECT_EQ(pcm.writes[2].coreId, 5u);
    ASSERT_TRUE(tier.enqueueWrite(writeBy(4, 7, 3, patternLine(33))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(1, 8, 4, patternLine(4))));
    ASSERT_EQ(pcm.writes.size(), 4u);
    EXPECT_EQ(pcm.writes[3].addr, 3 * kLineBytes);
    EXPECT_EQ(pcm.writes[3].coreId, 4u);
}

TEST(TierWriter, WriteToAParkedVictimTakesOverAsWriter)
{
    EventQueue eq;
    FakePort pcm;
    pcm.acceptWrites = false; // victims stay parked
    TierConfig cfg;
    cfg.sizeBytes = kLineBytes;
    cfg.ways = 1;
    cfg.writebackBatch = 1;
    cfg.wbBufferCap = 2;
    CacheTier tier(cfg, eq, pcm);

    ASSERT_TRUE(tier.enqueueWrite(writeBy(3, 1, 0, patternLine(0))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(5, 2, 1, patternLine(1))));
    ASSERT_EQ(tier.wbBuffered(), 1u);
    // Even a write that changes no word of the parked line takes it
    // over.
    ASSERT_TRUE(tier.enqueueWrite(writeBy(8, 3, 0, patternLine(0))));

    pcm.acceptWrites = true;
    pcm.retry();
    ASSERT_EQ(pcm.writes.size(), 1u);
    EXPECT_EQ(pcm.writes[0].addr, 0u);
    EXPECT_EQ(pcm.writes[0].coreId, 8u);
}

TEST(TierWriter, FlushDirtyKeepsEachLinesWriter)
{
    EventQueue eq;
    FakePort pcm;
    TierConfig cfg;
    cfg.sizeBytes = 64 * kLineBytes;
    cfg.writebackBatch = 64; // no implicit drain during the run
    cfg.wbBufferCap = 64;
    CacheTier tier(cfg, eq, pcm);

    ASSERT_TRUE(tier.enqueueWrite(writeBy(1, 1, 0, patternLine(0))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(2, 2, 1, patternLine(1))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(4, 3, 0, patternLine(10))));
    ASSERT_TRUE(tier.enqueueWrite(writeBy(6, 4, 1, patternLine(1))));
    tier.flushDirty();
    ASSERT_EQ(pcm.writes.size(), 2u);
    EXPECT_EQ(pcm.writes[0].addr, 0u);
    EXPECT_EQ(pcm.writes[0].coreId, 4u);
    EXPECT_EQ(pcm.writes[1].addr, kLineBytes);
    EXPECT_EQ(pcm.writes[1].coreId, 2u);
}

/** Run @p cfg on MP1 and return (report text, flat stat listing). */
std::pair<std::string, stats::FlatStats>
runAndExport(const SystemConfig &cfg)
{
    System sys(cfg, workload::makeWorkload("MP1", cfg.numCores));
    const SystemResults r = sys.run();
    std::ostringstream os;
    dumpResults(r, os);
    SystemStatExport exporter(sys.memory());
    exporter.refresh();
    return {os.str(), exporter.root().flattened()};
}

TEST(TierObs, TracingDoesNotPerturbResults)
{
    SystemConfig off;
    presets::RWoW_RDE.applyTo(off.controller);
    off.numCores = 4;
    off.instructionsPerCore = 20'000;
    off.seed = 3;
    off.tier = cache::tierConfigFromString("dram:64K:4:lru");

    SystemConfig on = off;
    on.obs.trace = true;
    on.obs.traceCapacity = 1u << 12;

    const auto [off_text, off_stats] = runAndExport(off);
    const auto [on_text, on_stats] = runAndExport(on);
    EXPECT_EQ(off_text, on_text);
    EXPECT_EQ(off_stats, on_stats);
}

TEST(TierDeterminism, SweepJsonlIdenticalAcrossThreadCounts)
{
    sweep::SweepSpec spec;
    spec.workloads = {"MP1"};
    spec.seeds = {1};
    spec.systems = {presets::Baseline, presets::RWoW_RDE};
    spec.configs[0].base.instructionsPerCore = 15'000;
    spec.configs[0].base.tier =
        cache::tierConfigFromString("dram:64K:4:mac");

    sweep::SweepRunner::Options one;
    one.threads = 1;
    sweep::SweepRunner::Options eight;
    eight.threads = 8;
    const std::string a = sweep::toJsonl(sweep::SweepRunner(one).run(spec));
    const std::string b =
        sweep::toJsonl(sweep::SweepRunner(eight).run(spec));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(TierPolicy, MacKeepsDirtyLinesAndCutsPcmWriteTraffic)
{
    // The whole point of the MAC-style policy: preferring clean
    // victims keeps dirty lines resident longer, coalescing more
    // stores per write-back, so the same run emits fewer PCM writes.
    SystemConfig lru;
    presets::Baseline.applyTo(lru.controller);
    lru.numCores = 4;
    lru.instructionsPerCore = 20'000;
    lru.seed = 1;
    lru.tier = cache::tierConfigFromString("dram:64K:4:lru");

    SystemConfig mac = lru;
    mac.tier.repl = ReplPolicy::Mac;

    System lru_sys(lru, workload::makeWorkload("MP1", lru.numCores));
    const SystemResults lru_res = lru_sys.run();
    System mac_sys(mac, workload::makeWorkload("MP1", mac.numCores));
    const SystemResults mac_res = mac_sys.run();

    ASSERT_GT(lru_res.cacheHits + lru_res.cacheMisses, 0u);
    ASSERT_GT(mac_res.cacheHits + mac_res.cacheMisses, 0u);
    EXPECT_GT(lru_res.writesCompleted, 0u);
    EXPECT_LT(mac_res.writesCompleted, lru_res.writesCompleted)
        << "MAC must reach PCM with fewer write-backs than LRU";
}

} // namespace
} // namespace pcmap
