/**
 * @file
 * Behavioural tests of the memory controller: transaction timing,
 * functional correctness, scheduling policy, RoW, WoW, rotation,
 * queue management, and the deferred-verification path.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "core/controller.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

/** Recorded read completion. */
struct Completion
{
    ReadResponse resp;
};

class ControllerTest : public ::testing::Test
{
  protected:
    void
    build(const ControllerPolicy &system,
          const std::function<void(ControllerConfig &)> &tweak = {})
    {
        ControllerConfig cfg = controllerFor(system);
        if (tweak)
            tweak(cfg);
        mapper = std::make_unique<AddressMapper>(MemGeometry{});
        mc = std::make_unique<MemoryController>("mc0", cfg, eq, store,
                                                *mapper, 0);
        mc->setVerifyCallback([this](ReqId id, unsigned core,
                                     bool fault) {
            verifies.push_back({id, core, fault});
        });
        mc->setRetryCallback([this] { ++retries; });
    }

    /** Line-aligned channel-0 address for (bank, row, column). */
    std::uint64_t
    addrFor(unsigned bank, std::uint64_t row, unsigned col = 0) const
    {
        DecodedAddr d;
        d.channel = 0;
        d.rank = 0;
        d.bank = bank;
        d.row = row;
        d.column = col;
        return mapper->encode(d);
    }

    /** Enqueue a read; completions land in `done`. */
    bool
    read(std::uint64_t addr, ReqId id = 0)
    {
        MemRequest req;
        req.id = id ? id : nextId++;
        req.type = ReqType::Read;
        req.addr = addr;
        req.coreId = 0;
        return mc->enqueueRead(req, [this](const ReadResponse &r) {
            done.push_back({r});
        });
    }

    /** Enqueue a write-back dirtying `mask` words of the line. */
    bool
    write(std::uint64_t addr, WordMask mask)
    {
        const std::uint64_t line = addr / kLineBytes;
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Write;
        req.addr = addr;
        req.coreId = 0;
        req.data = store.read(line).data;
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            if (mask & (1u << i))
                req.data.w[i] = rng.next() | 1ull;
        }
        if (!mc->enqueueWrite(req))
            return false;
        lastWrite[line] = req.data;
        return true;
    }

    void runAll() { eq.run(); }
    void runFor(Tick dt) { eq.run(eq.now() + dt); }

    struct Verify
    {
        ReqId id;
        unsigned core;
        bool fault;
    };

    EventQueue eq;
    BackingStore store;
    std::unique_ptr<AddressMapper> mapper;
    std::unique_ptr<MemoryController> mc;
    std::vector<Completion> done;
    std::vector<Verify> verifies;
    /** Data of each line's last accepted write. */
    std::map<std::uint64_t, CacheLine> lastWrite;
    int retries = 0;
    ReqId nextId = 1;
    Rng rng{99};
};

// ---------------------------------------------------------------------
// Basic read timing and functional behaviour
// ---------------------------------------------------------------------

TEST_F(ControllerTest, SingleReadRowMissLatency)
{
    build(presets::Baseline);
    const PcmTiming t;
    read(addrFor(0, 1));
    runAll();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].resp.completionTick,
              t.actTicks() + t.readColTicks() + t.burstTicks());
    EXPECT_FALSE(done[0].resp.speculative);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, RowHitReadIsFaster)
{
    build(presets::Baseline);
    const PcmTiming t;
    read(addrFor(0, 1, 0));
    read(addrFor(0, 1, 1)); // same row, next column
    runAll();
    ASSERT_EQ(done.size(), 2u);
    const Tick first = done[0].resp.completionTick;
    const Tick second = done[1].resp.completionTick;
    EXPECT_EQ(second - first, t.readHitTicks());
}

TEST_F(ControllerTest, RowConflictPaysActivation)
{
    build(presets::Baseline);
    const PcmTiming t;
    read(addrFor(0, 1));
    read(addrFor(0, 2)); // different row, same bank
    runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].resp.completionTick - done[0].resp.completionTick,
              t.readMissTicks());
}

TEST_F(ControllerTest, BankParallelReadsOverlap)
{
    build(presets::Baseline);
    const PcmTiming t;
    read(addrFor(0, 1));
    read(addrFor(1, 1)); // different bank: array times overlap
    runAll();
    ASSERT_EQ(done.size(), 2u);
    // The second read finishes well before two serial misses; only
    // its burst serializes on the shared lanes.
    EXPECT_LT(done[1].resp.completionTick, 2 * t.readMissTicks());
}

TEST_F(ControllerTest, ReadReturnsWrittenData)
{
    build(presets::RWoW_RDE);
    const std::uint64_t addr = addrFor(3, 7);
    write(addr, 0b00010010);
    runAll();
    read(addr);
    runAll();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].resp.data, store.read(addr / kLineBytes).data);
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
}

TEST_F(ControllerTest, WriteQueueForwardingServesReadInstantly)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.drainHighWatermark = 0.9; // keep the write buffered
    });
    // Fill readQ first so the write stays queued.
    read(addrFor(5, 1));
    const std::uint64_t addr = addrFor(6, 2);
    write(addr, 0b1);
    read(addr); // hits the write queue
    runFor(20 * kNanosecond);
    EXPECT_GE(mc->stats().readsForwardedFromWq, 1u);
    runAll();
}

TEST_F(ControllerTest, WritesCoalesceInQueue)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.drainHighWatermark = 0.9;
    });
    read(addrFor(0, 1)); // keep controller in read phase briefly
    const std::uint64_t addr = addrFor(1, 1);
    write(addr, 0b1);
    write(addr, 0b10);
    runAll();
    EXPECT_EQ(mc->stats().writesCoalesced, 1u);
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
}

TEST_F(ControllerTest, SilentWriteCompletesWithoutChipWork)
{
    build(presets::RWoW_RDE);
    write(addrFor(2, 3), 0); // no words change
    runAll();
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    EXPECT_EQ(mc->stats().writesSilent, 1u);
    EXPECT_EQ(mc->stats().essentialHist[0], 1u);
    EXPECT_EQ(mc->irlpWindowTicks(), 0.0);
}

// ---------------------------------------------------------------------
// The write problem (Section III): writes block reads in the baseline
// ---------------------------------------------------------------------

TEST_F(ControllerTest, BaselineWriteBlocksSameBankRead)
{
    build(presets::Baseline);
    const PcmTiming t;
    write(addrFor(0, 1), 0b1); // issues opportunistically (no reads)
    runFor(1 * kNanosecond);
    read(addrFor(0, 2)); // arrives during the write
    runAll();
    ASSERT_EQ(done.size(), 1u);
    // The read could not start before the write finished.
    EXPECT_GE(done[0].resp.completionTick,
              t.chipWriteTicks() + t.readMissTicks());
    EXPECT_EQ(mc->stats().readsDelayedByWrite, 1u);
}

TEST_F(ControllerTest, BaselineWriteBlocksOtherBankReadToo)
{
    // The rank-wide idling the paper's intro describes: a write keeps
    // every chip busy, so even another bank's read waits.
    build(presets::Baseline);
    const PcmTiming t;
    write(addrFor(0, 1), 0b1);
    runFor(1 * kNanosecond);
    read(addrFor(4, 2)); // different bank
    runAll();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GE(done[0].resp.completionTick,
              t.chipWriteTicks() + t.readMissTicks());
}

TEST_F(ControllerTest, FineGrainedWriteFreesUninvolvedChips)
{
    // With PCMap's sub-ranking plus RoW, a read is served while the
    // write drain is still in progress, instead of waiting for it.
    build(presets::RWoW_NR, [](ControllerConfig &c) {
        c.writeQueueCap = 4;
    });
    read(addrFor(6, 1)); // keeps the read queue non-empty at drain
    read(addrFor(4, 2));
    write(addrFor(0, 1, 0), 0b1);
    write(addrFor(0, 1, 1), 0b1);
    write(addrFor(0, 1, 2), 0b1);
    runAll();
    ASSERT_EQ(done.size(), 2u);
    const Tick drain_end = eq.now();
    // Both reads completed well before the full drain finished.
    EXPECT_LT(done[1].resp.completionTick, drain_end);
}

// ---------------------------------------------------------------------
// RoW
// ---------------------------------------------------------------------

TEST_F(ControllerTest, RoWServesReadDuringOneWordWrite)
{
    build(presets::RWoW_NR, [](ControllerConfig &c) {
        c.writeQueueCap = 4; // drain after 3 writes
    });
    const PcmTiming t;
    // Park a read behind another so the read queue is non-empty when
    // the drain begins (the paper's RoW scheduling precondition).
    read(addrFor(6, 1));
    read(addrFor(6, 2));
    read(addrFor(6, 3));
    // Three one-word writes to bank 0 trigger the drain.
    write(addrFor(0, 1, 0), 0b1);
    write(addrFor(0, 1, 1), 0b1);
    write(addrFor(0, 1, 2), 0b1);
    runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_GE(mc->stats().twoStepWrites, 1u);
    EXPECT_GE(mc->stats().rowReads + mc->stats().deferredEccReads, 1u);
    // Every speculative read eventually gets exactly one deferred
    // check (a read may be both reconstructed and ECC-deferred).
    EXPECT_EQ(verifies.size(), mc->stats().verifiesCompleted);
    unsigned speculative = 0;
    for (const Completion &c : done)
        speculative += c.resp.speculative ? 1 : 0;
    EXPECT_EQ(mc->stats().verifiesCompleted, speculative);
    for (const Verify &v : verifies)
        EXPECT_FALSE(v.fault);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, RoWReconstructionDeliversCorrectData)
{
    build(presets::RWoW_NR, [](ControllerConfig &c) {
        c.writeQueueCap = 4;
    });
    // Materialize a known line, then force the RoW situation against
    // it and confirm the reconstructed word equals the stored word.
    const std::uint64_t raddr = addrFor(0, 2);
    CacheLine truth;
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        truth.w[i] = 0x1111111111111111ull * (i + 1);
    store.writeLine(raddr / kLineBytes, truth);

    read(addrFor(6, 1));
    read(raddr);
    write(addrFor(0, 1, 0), 0b1);
    write(addrFor(0, 1, 1), 0b1);
    write(addrFor(0, 1, 2), 0b1);
    runAll();
    bool found = false;
    for (const Completion &c : done) {
        if (c.resp.addr == raddr) {
            EXPECT_EQ(c.resp.data, truth);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ControllerTest, RoWFaultDetectedByDeferredVerify)
{
    build(presets::RWoW_NR, [](ControllerConfig &c) {
        c.writeQueueCap = 4;
    });
    // Corrupt a stored bit of the victim line: parity reconstruction
    // then returns the pre-corruption value, and the deferred SECDED
    // check must flag the mismatch.
    const std::uint64_t raddr = addrFor(0, 2);
    CacheLine truth;
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        truth.w[i] = 0xA5A5A5A5A5A5A5A5ull + i;
    store.writeLine(raddr / kLineBytes, truth);
    // Corrupt one bit in every word so whichever chip is busy, the
    // delivered line disagrees with SECDED.
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        store.corruptDataBit(raddr / kLineBytes, w * 64 + 3);

    read(addrFor(0, 3));
    read(raddr);
    write(addrFor(0, 1, 0), 0b1);
    write(addrFor(0, 1, 1), 0b1);
    write(addrFor(0, 1, 2), 0b1);
    runAll();
    // If the corrupted line was delivered speculatively, its deferred
    // check must report the fault.
    bool raddr_speculative = false;
    for (const Completion &c : done) {
        if (c.resp.addr == raddr)
            raddr_speculative = c.resp.speculative;
    }
    if (raddr_speculative) {
        EXPECT_GT(mc->stats().faultsDetected, 0u);
        bool fault_seen = false;
        for (const Verify &v : verifies)
            fault_seen |= v.fault;
        EXPECT_TRUE(fault_seen);
    } else {
        // Served as a plain read: inline SECDED silently corrected it.
        EXPECT_GE(mc->stats().readsCompleted, 2u);
    }
}

// ---------------------------------------------------------------------
// WoW
// ---------------------------------------------------------------------

TEST_F(ControllerTest, WoWMergesDisjointWrites)
{
    build(presets::WoW_NR);
    const PcmTiming t;
    // Two writes, same bank, dirty words on different chips.
    write(addrFor(0, 1, 0), 0b00000001); // word 0 -> chip 0
    write(addrFor(0, 1, 1), 0b00000010); // word 1 -> chip 1
    runAll();
    EXPECT_EQ(mc->stats().wowGroups, 1u);
    EXPECT_EQ(mc->stats().wowMergedWrites, 1u);
    EXPECT_EQ(mc->stats().writesCompleted, 2u);
    // Both fit one write latency plus trailing code updates.
    EXPECT_LT(eq.now(), 2 * t.chipWriteTicks() + 4 * t.chipWriteTicks());
}

TEST_F(ControllerTest, WoWCannotMergeConflictingChips)
{
    build(presets::WoW_NR);
    // Same dirty offset on consecutive lines: same chip without
    // rotation, so the writes must serialize.
    write(addrFor(0, 1, 0), 0b00000100);
    write(addrFor(0, 1, 1), 0b00000100);
    runAll();
    EXPECT_EQ(mc->stats().wowGroups, 0u);
    EXPECT_EQ(mc->stats().writesCompleted, 2u);
}

TEST_F(ControllerTest, WordRotationEnablesSameOffsetMerge)
{
    // The identical conflicting pattern merges once data rotation
    // spreads the same offset across chips (Section IV-C2).
    build(presets::RWoW_RD);
    write(addrFor(0, 1, 0), 0b00000100);
    write(addrFor(0, 1, 1), 0b00000100);
    runAll();
    EXPECT_EQ(mc->stats().wowGroups, 1u);
    EXPECT_EQ(mc->stats().writesCompleted, 2u);
}

TEST_F(ControllerTest, WoWRespectsMergeCap)
{
    build(presets::RWoW_RD, [](ControllerConfig &c) {
        c.wowMaxMerge = 2;
        c.writeQueueCap = 64;
        c.drainHighWatermark = 0.9;
    });
    for (unsigned i = 0; i < 8; ++i)
        write(addrFor(0, 1, i), 0b1);
    runAll();
    EXPECT_EQ(mc->stats().writesCompleted, 8u);
    // With a cap of 2 the largest group has 2 members: at least 4
    // groups, none bigger than 2.
    EXPECT_GE(mc->stats().wowGroups, 1u);
    EXPECT_LE(mc->stats().wowMergedWrites, 4u);
}

TEST_F(ControllerTest, WoWOnlyMergesSameBank)
{
    build(presets::WoW_NR);
    write(addrFor(0, 1), 0b1);
    write(addrFor(1, 1), 0b10); // other bank: separate service
    runAll();
    EXPECT_EQ(mc->stats().wowGroups, 0u);
    EXPECT_EQ(mc->stats().writesCompleted, 2u);
}

TEST_F(ControllerTest, ClosedPagePolicyForfeitsRowHits)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.pagePolicy = PagePolicy::Closed;
    });
    const PcmTiming t;
    read(addrFor(0, 1, 0));
    read(addrFor(0, 1, 1)); // same row: would be a hit under open-page
    runAll();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].resp.completionTick - done[0].resp.completionTick,
              t.readMissTicks());
}

TEST_F(ControllerTest, FcfsServesStrictlyInArrivalOrder)
{
    // Reads to bank 0 (busy) then bank 1 (free).  FR-FCFS would let
    // the bank-1 read overtake; strict FCFS must not.
    build(presets::Baseline, [](ControllerConfig &c) {
        c.readScheduling = ReadScheduling::Fcfs;
    });
    read(addrFor(0, 1));
    read(addrFor(0, 2)); // waits behind the first (same bank)
    read(addrFor(1, 1)); // free bank, but younger
    runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].resp.addr, addrFor(0, 1));
    EXPECT_EQ(done[1].resp.addr, addrFor(0, 2));
    EXPECT_EQ(done[2].resp.addr, addrFor(1, 1));
}

TEST_F(ControllerTest, FrFcfsLetsFreeBankOvertake)
{
    build(presets::Baseline);
    read(addrFor(0, 1));
    read(addrFor(0, 2));
    read(addrFor(1, 1)); // younger but on an idle bank
    runAll();
    ASSERT_EQ(done.size(), 3u);
    // The bank-1 read finishes before the second bank-0 read.
    Tick bank1_done = 0;
    Tick bank0_second_done = 0;
    for (const Completion &c : done) {
        if (c.resp.addr == addrFor(1, 1))
            bank1_done = c.resp.completionTick;
        if (c.resp.addr == addrFor(0, 2))
            bank0_second_done = c.resp.completionTick;
    }
    EXPECT_LT(bank1_done, bank0_second_done);
}

TEST_F(ControllerTest, MultiWordRoWSerializesWriteSteps)
{
    // Section IV-B4 extension: with rowMultiWordWrites a 3-word write
    // becomes three one-chip pulses and reads keep flowing.
    build(presets::RoW_NR, [](ControllerConfig &c) {
        c.rowMultiWordWrites = true;
        c.writeQueueCap = 4;
    });
    const PcmTiming t;
    read(addrFor(6, 1));
    read(addrFor(6, 2));
    write(addrFor(0, 1, 0), 0b00010101); // words 0, 2, 4
    write(addrFor(0, 1, 1), 0b00010101);
    write(addrFor(0, 1, 2), 0b00010101);
    runAll();
    EXPECT_GE(mc->stats().multiStepWrites, 1u);
    EXPECT_EQ(mc->stats().writesCompleted, 3u);
    EXPECT_EQ(done.size(), 2u);
    // Serialized steps stretch the drain past 3 parallel writes.
    EXPECT_GT(eq.now(), 3 * t.chipWriteTicks());
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, MultiWordRoWOffByDefault)
{
    build(presets::RoW_NR, [](ControllerConfig &c) {
        c.writeQueueCap = 4;
    });
    read(addrFor(6, 1));
    read(addrFor(6, 2));
    write(addrFor(0, 1, 0), 0b00010101);
    write(addrFor(0, 1, 1), 0b00010101);
    write(addrFor(0, 1, 2), 0b00010101);
    runAll();
    EXPECT_EQ(mc->stats().multiStepWrites, 0u);
    EXPECT_EQ(mc->stats().writesCompleted, 3u);
}

TEST_F(ControllerTest, WriteTrainsOverlapAndDrainToIdle)
{
    // Split and round-chained writes run as train records advanced by
    // events.  At tlc with RoW, a lone multi-word write chains its
    // programming rounds and pauses at a round boundary for a read
    // that needs its chips.  Then a drain under waiting reads splits a
    // multi-word write into one-chip steps, and the next write on the
    // rank starts at its commit, while that train's trailing PCC step
    // is still in flight.
    build(presets::RoW_NR, [](ControllerConfig &c) {
        c.timing = c.timing.withOrg(DeviceOrg::Tlc);
        c.rowMultiWordWrites = true;
        c.writeQueueCap = 4;
    });
    obs::TraceRecorder rec(1u << 14);
    mc->setTraceRecorder(&rec);
    const PcmTiming t = PcmTiming::forOrg(DeviceOrg::Tlc);

    // Round chain: three busy chips, so the read cannot reconstruct
    // around them and takes the gap at the first round boundary.
    write(addrFor(0, 1, 0), 0b00000111);
    runFor(t.chipWriteTicks() / (2 * t.writeRounds));
    read(addrFor(0, 1, 5));
    runAll();
    EXPECT_GE(mc->stats().writeRoundPauses, 1u);
    EXPECT_TRUE(mc->idle());

    // Multi-step trains: reads wait on a conflicting row of bank 6
    // while four multi-word writes to bank 0 fill the queue and drain.
    for (unsigned i = 0; i < 6; ++i)
        read(addrFor(6, 10 + i));
    for (unsigned i = 0; i < 4; ++i)
        write(addrFor(0, 2 + i / 2, 1 + i), 0b00101001);
    runAll();

    EXPECT_GE(mc->stats().multiStepWrites, 1u);
    EXPECT_GE(mc->stats().writeRoundPauses, 1u);
    EXPECT_EQ(mc->stats().writesCompleted, 5u);
    EXPECT_EQ(done.size(), 7u);
    EXPECT_TRUE(mc->idle());
    EXPECT_EQ(eq.pending(), 0u);
    for (const auto &[line, data] : lastWrite)
        EXPECT_EQ(store.read(line).data, data) << "line " << line;

    // Some write started on rank 0 within one chip write of a
    // multi-step commit, i.e. while that train's PCC step was live.
    const obs::TraceRing &ring = rec.ring();
    ASSERT_EQ(ring.dropped(), 0u);
    bool overlapped = false;
    for (std::size_t i = 0; i < ring.size(); ++i) {
        const obs::TraceEvent &c = ring.at(i);
        if (c.point != obs::TracePoint::WriteComplete ||
            c.arg0 != static_cast<std::uint64_t>(obs::WriteKind::MultiStep))
            continue;
        const Tick commit = c.ts + c.dur;
        for (std::size_t j = 0; j < ring.size(); ++j) {
            const obs::TraceEvent &w = ring.at(j);
            if (w.point == obs::TracePoint::WriteIssue && w.id != c.id &&
                w.rank == c.rank && w.ts >= commit &&
                w.ts < commit + t.chipWriteTicks())
                overlapped = true;
        }
    }
    EXPECT_TRUE(overlapped);
}

// ---------------------------------------------------------------------
// Queue management and back-pressure
// ---------------------------------------------------------------------

TEST_F(ControllerTest, WriteQueueFullRejectsAndRetries)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.writeQueueCap = 2;
        c.drainHighWatermark = 0.99;
        c.drainLowWatermark = 0.1;
    });
    read(addrFor(7, 1)); // hold the controller in read phase
    EXPECT_TRUE(write(addrFor(0, 1, 0), 0b1));
    EXPECT_TRUE(write(addrFor(0, 1, 1), 0b1));
    EXPECT_FALSE(write(addrFor(0, 1, 2), 0b1));
    EXPECT_EQ(mc->stats().writesRejected, 1u);
    runAll();
    EXPECT_GT(retries, 0);
}

TEST_F(ControllerTest, WriteCancellationFreesChipsForRead)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enableWriteCancellation = true;
    });
    const PcmTiming t;
    write(addrFor(0, 1), 0b1); // issues opportunistically
    runFor(5 * kNanosecond);
    read(addrFor(0, 2)); // arrives early in the write
    runAll();
    ASSERT_EQ(done.size(), 1u);
    // The read did not wait for the full write.
    EXPECT_LT(done[0].resp.completionTick,
              t.chipWriteTicks() + t.readMissTicks());
    EXPECT_GE(mc->stats().writesCancelled, 1u);
    // The write still completed (after its retry).
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, WriteCancellationBoundedRetries)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enableWriteCancellation = true;
        c.maxWriteCancels = 2;
        // Once the write turns sticky it blocks the bank for its full
        // duration, so the 30 ns read stream backs up; give the queue
        // room for the whole burst.
        c.readQueueCap = 16;
    });
    write(addrFor(0, 1), 0b1);
    // A stream of reads that would cancel forever if unbounded.
    for (unsigned i = 0; i < 12; ++i) {
        runFor(30 * kNanosecond);
        EXPECT_TRUE(read(addrFor(0, 2 + i))) << "read " << i
            << " rejected at now=" << eq.now();
    }
    runAll();
    EXPECT_LE(mc->stats().writesCancelled, 2u);
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    EXPECT_EQ(done.size(), 12u);
}

TEST_F(ControllerTest, MultiRoundWriteCancelsAtRoundBoundaries)
{
    // Regression for the multi-round (MLC+) write model: the retry
    // and cancellation math once assumed a write occupies its chips
    // for a single pulse.  A QLC write under a read storm must abort
    // only at programming-round boundaries, keep the rounds it
    // already committed (so each retry is shorter), respect the
    // cancel bound, and drain the read queue completely.
    build(presets::Baseline, [](ControllerConfig &c) {
        c.timing = c.timing.withOrg(DeviceOrg::Qlc);
        c.enableWriteCancellation = true;
        c.maxWriteCancels = 2;
        c.readQueueCap = 16;
    });
    const PcmTiming t = PcmTiming::forOrg(DeviceOrg::Qlc);
    write(addrFor(0, 1), 0b1);
    for (unsigned i = 0; i < 12; ++i) {
        runFor(30 * kNanosecond);
        EXPECT_TRUE(read(addrFor(0, 2 + i))) << "read " << i
            << " rejected at now=" << eq.now();
    }
    runAll();
    EXPECT_LE(mc->stats().writesCancelled, 2u);
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    EXPECT_EQ(done.size(), 12u);
    // Boundary aborts happened and were counted as committed rounds.
    EXPECT_GE(mc->stats().writeRoundPauses, 1u);
    // Every cancel keeps >= 1 committed round, so across all retries
    // the chips see at most one full write's worth of extra rounds —
    // never "cancels x writeRounds" restarts from scratch.
    EXPECT_GE(mc->stats().writeRoundsIssued, t.writeRounds);
    EXPECT_LE(mc->stats().writeRoundsIssued,
              t.writeRounds + mc->stats().writesCancelled *
                                  (t.writeRounds - 1));
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, WriteIssueWakesWriterStalledOnFullQueue)
{
    // Deadlock regression: a writer rejected by a full write queue is
    // only ever resumed by a retry notification.  Retries used to
    // fire solely on read issues and silent write completions, so an
    // all-write phase (no reads in flight) could drain the queue to
    // empty without ever waking the stalled writer — the event queue
    // emptied mid-run.  Long multi-round QLC writes made this easy to
    // hit at scale (RoW-NR @ qlc, canneal); the fix notifies on every
    // write issue, which is when queue space actually frees.
    build(presets::RoW_NR, [](ControllerConfig &c) {
        c.timing = c.timing.withOrg(DeviceOrg::Qlc);
        c.writeQueueCap = 4;
    });
    std::uint64_t row = 1;
    while (write(addrFor(0, row), 0b11)) {
        ++row;
        ASSERT_LT(row, 100u) << "write queue never filled";
    }
    EXPECT_EQ(mc->stats().writesRejected, 1u);

    // Model the stalled core: re-enqueue the rejected write on retry.
    const std::uint64_t stranded = addrFor(0, row);
    bool accepted = false;
    mc->setRetryCallback([&] {
        if (!accepted)
            accepted = write(stranded, 0b11);
    });
    runAll();
    EXPECT_TRUE(accepted)
        << "no retry notification reached the stalled writer";
    EXPECT_EQ(mc->stats().writesCompleted, mc->stats().writesEnqueued);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerTest, SingleRoundOrgKeepsRoundCountersAtZero)
{
    // The round counters are gated on writeRounds > 1 so slc output
    // (results dump, stat export, sweep JSONL) stays byte-identical.
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enableWriteCancellation = true;
    });
    write(addrFor(0, 1), 0b1);
    runFor(5 * kNanosecond);
    read(addrFor(0, 2));
    runAll();
    EXPECT_GE(mc->stats().writesCancelled, 1u);
    EXPECT_EQ(mc->stats().writeRoundsIssued, 0u);
    EXPECT_EQ(mc->stats().writeRoundPauses, 0u);
}

TEST_F(ControllerTest, CancelledWriteStillCommitsData)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enableWriteCancellation = true;
    });
    const std::uint64_t addr = addrFor(0, 1);
    write(addr, 0b101);
    runFor(5 * kNanosecond);
    read(addrFor(0, 2));
    runAll();
    // Functional state reflects the retried write.
    EXPECT_NE(store.read(addr / kLineBytes).data.w[0], 0u);
    EXPECT_NE(store.read(addr / kLineBytes).data.w[2], 0u);
}

TEST_F(ControllerTest, PerBankWriteQueuesScaleCapacity)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.perBankWriteQueues = true;
        c.writeQueueCap = 2; // per bank
        c.drainHighWatermark = 0.99;
    });
    read(addrFor(7, 1)); // hold the read phase
    // Two writes fit in bank 0's queue; the third is rejected...
    EXPECT_TRUE(write(addrFor(0, 1, 0), 0b1));
    EXPECT_TRUE(write(addrFor(0, 1, 1), 0b1));
    EXPECT_FALSE(write(addrFor(0, 1, 2), 0b1));
    // ...while another bank still has room.
    EXPECT_TRUE(write(addrFor(1, 1, 0), 0b1));
    EXPECT_TRUE(write(addrFor(1, 1, 1), 0b1));
    EXPECT_FALSE(write(addrFor(1, 1, 2), 0b1));
    runAll();
    EXPECT_EQ(mc->stats().writesCompleted, 4u);
}

TEST_F(ControllerTest, ReadQueueFullRejects)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.readQueueCap = 2;
    });
    // All arrive in the same tick, before any can issue.
    EXPECT_TRUE(read(addrFor(0, 1)));
    EXPECT_TRUE(read(addrFor(0, 2)));
    EXPECT_FALSE(read(addrFor(0, 3))); // queue full
    EXPECT_EQ(mc->stats().readsRejected, 1u);
    runAll();
    EXPECT_EQ(done.size(), 2u);
}

TEST_F(ControllerTest, EssentialHistogramCountsDirtyWords)
{
    build(presets::RWoW_RDE);
    write(addrFor(0, 1, 0), 0b1);        // 1 word
    runAll();
    write(addrFor(0, 1, 1), 0b1111);     // 4 words
    runAll();
    write(addrFor(0, 1, 2), 0xFF);       // 8 words
    runAll();
    EXPECT_EQ(mc->stats().essentialHist[1], 1u);
    EXPECT_EQ(mc->stats().essentialHist[4], 1u);
    EXPECT_EQ(mc->stats().essentialHist[8], 1u);
    EXPECT_EQ(mc->stats().essentialWordsSum, 13u);
}

TEST_F(ControllerTest, DrainStopsAtLowWatermark)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.writeQueueCap = 10;
        c.drainHighWatermark = 0.8;
        c.drainLowWatermark = 0.2;
    });
    for (unsigned i = 0; i < 8; ++i)
        write(addrFor(i % 8, 1, i), 0b1);
    runAll();
    EXPECT_EQ(mc->stats().writesCompleted, 8u);
    EXPECT_TRUE(mc->idle());
}

TEST(ControllerDeterminism, IdenticalStimulusIdenticalTiming)
{
    auto run_once = [](std::uint64_t &lat_sum, Tick &end) {
        EventQueue eq;
        BackingStore store;
        AddressMapper mapper{MemGeometry{}};
        MemoryController mc(
            "mc0", controllerFor(presets::RWoW_RDE), eq,
            store, mapper, 0);
        Rng rng(99);
        ReqId next_id = 1;
        for (unsigned i = 0; i < 12; ++i) {
            DecodedAddr d;
            d.bank = i % 8;
            d.row = i / 8 + 1;
            MemRequest r;
            r.id = next_id++;
            r.addr = mapper.encode(d);
            mc.enqueueRead(r, [](const ReadResponse &) {});

            DecodedAddr wd;
            wd.bank = (i + 3) % 8;
            wd.row = 2;
            wd.column = i % 4;
            MemRequest w;
            w.id = next_id++;
            w.type = ReqType::Write;
            w.addr = mapper.encode(wd);
            w.data = store.read(w.addr / kLineBytes).data;
            w.data.w[i % 8] = rng.next() | 1ull;
            mc.enqueueWrite(w);
        }
        eq.run();
        lat_sum =
            static_cast<std::uint64_t>(mc.stats().readLatencySum);
        end = eq.now();
    };
    std::uint64_t a_lat = 0;
    std::uint64_t b_lat = 0;
    Tick a_end = 0;
    Tick b_end = 0;
    run_once(a_lat, a_end);
    run_once(b_lat, b_end);
    EXPECT_EQ(a_lat, b_lat);
    EXPECT_EQ(a_end, b_end);
}

TEST_F(ControllerTest, FunctionalStateMatchesAllWrites)
{
    // Pseudo-random soak: every committed write must be readable back
    // exactly, regardless of RoW/WoW/rotation scheduling.
    build(presets::RWoW_RDE);
    Rng addr_rng(5);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t addr =
            addrFor(static_cast<unsigned>(addr_rng.below(8)),
                    1 + addr_rng.below(4),
                    static_cast<unsigned>(addr_rng.below(8)));
        addrs.push_back(addr);
        write(addr, static_cast<WordMask>(addr_rng.below(256)));
        if (i % 7 == 0)
            runFor(300 * kNanosecond);
    }
    runAll();
    done.clear();
    for (const std::uint64_t a : addrs)
        read(a);
    runAll();
    for (const Completion &c : done) {
        EXPECT_EQ(c.resp.data,
                  store.read(c.resp.addr / kLineBytes).data);
    }
}

} // namespace
} // namespace pcmap
