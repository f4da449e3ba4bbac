/**
 * @file
 * Edge-case and resource-limit tests for the controller: the
 * speculative-read buffer, the code-update backlog, status-poll
 * accounting, forwarding during drains, and mixed-stress soaks for
 * every mode.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/controller.h"
#include "sim/rng.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

class ControllerEdgeTest : public ::testing::Test
{
  protected:
    void
    build(const ControllerPolicy &system,
          const std::function<void(ControllerConfig &)> &tweak = {})
    {
        ControllerConfig cfg;
        system.applyTo(cfg);
        if (tweak)
            tweak(cfg);
        mapper = std::make_unique<AddressMapper>(MemGeometry{});
        mc = std::make_unique<MemoryController>("mc0", cfg, eq, store,
                                                *mapper, 0);
        mc->setVerifyCallback(
            [this](ReqId, unsigned, bool) { ++verifies; });
    }

    std::uint64_t
    addrFor(unsigned bank, std::uint64_t row, unsigned col = 0) const
    {
        DecodedAddr d;
        d.bank = bank;
        d.row = row;
        d.column = col;
        return mapper->encode(d);
    }

    bool
    read(std::uint64_t addr)
    {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Read;
        req.addr = addr;
        return mc->enqueueRead(req, [this](const ReadResponse &r) {
            responses.push_back(r);
        });
    }

    bool
    write(std::uint64_t addr, WordMask mask)
    {
        const std::uint64_t line = addr / kLineBytes;
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Write;
        req.addr = addr;
        req.data = store.read(line).data;
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            if (mask & (1u << i))
                req.data.w[i] = rng.next() | 1ull;
        }
        return mc->enqueueWrite(req);
    }

    EventQueue eq;
    BackingStore store;
    std::unique_ptr<AddressMapper> mapper;
    std::unique_ptr<MemoryController> mc;
    std::vector<ReadResponse> responses;
    int verifies = 0;
    ReqId nextId = 1;
    Rng rng{7};
};

TEST_F(ControllerEdgeTest, SpecBufferCapLimitsOutstandingVerifies)
{
    // With a 1-entry speculative buffer, at most one unverified read
    // can be outstanding; further reads wait for chips instead.
    build(presets::RWoW_NR, [](ControllerConfig &c) {
        c.specReadBufferCap = 1;
        c.writeQueueCap = 4;
    });
    for (unsigned i = 0; i < 6; ++i)
        read(addrFor(0, 10 + i));
    write(addrFor(0, 1, 0), 0b1);
    write(addrFor(0, 1, 1), 0b1);
    write(addrFor(0, 1, 2), 0b1);
    eq.run();
    EXPECT_EQ(responses.size(), 6u);
    // Every speculative delivery got verified in the end.
    EXPECT_EQ(static_cast<std::uint64_t>(verifies),
              mc->stats().verifiesCompleted);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerEdgeTest, StatusPollsChargedForFineGrainedService)
{
    build(presets::RWoW_RDE);
    write(addrFor(0, 1), 0b11);
    eq.run();
    EXPECT_GE(mc->stats().statusPolls, 1u);
}

TEST_F(ControllerEdgeTest, NoStatusPollsInBaseline)
{
    build(presets::Baseline);
    write(addrFor(0, 1), 0b11);
    read(addrFor(1, 1));
    eq.run();
    EXPECT_EQ(mc->stats().statusPolls, 0u);
}

TEST_F(ControllerEdgeTest, ForwardingWorksDuringDrain)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.writeQueueCap = 8;
        c.drainHighWatermark = 0.5;
    });
    // Trigger a drain, then read a line still buffered in the queue.
    for (unsigned i = 0; i < 6; ++i)
        write(addrFor(0, 1, i), 0b1);
    const std::uint64_t hot = addrFor(0, 1, 5);
    read(hot);
    eq.run(eq.now() + 50 * kNanosecond);
    EXPECT_GE(mc->stats().readsForwardedFromWq, 1u);
    eq.run();
}

TEST_F(ControllerEdgeTest, BacklogCapThrottlesWrites)
{
    // A tiny code-update backlog forces write service to wait for the
    // code chips; everything still completes.
    build(presets::WoW_NR, [](ControllerConfig &c) {
        c.codeUpdateBacklogCap = 2;
        c.writeQueueCap = 64;
        c.drainHighWatermark = 0.9;
    });
    for (unsigned i = 0; i < 16; ++i)
        write(addrFor(0, 1, i), 0b1 << (i % 8));
    eq.run();
    EXPECT_EQ(mc->stats().writesCompleted, 16u);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerEdgeTest, ZeroEssentialWritesNeverTouchChips)
{
    build(presets::RWoW_RDE);
    // Pre-populate, then write back identical contents repeatedly.
    CacheLine l;
    l.w[3] = 42;
    store.writeLine(addrFor(2, 5) / kLineBytes, l);
    for (int i = 0; i < 5; ++i) {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Write;
        req.addr = addrFor(2, 5);
        req.data = l;
        mc->enqueueWrite(req);
        eq.run();
    }
    EXPECT_EQ(mc->stats().writesSilent + mc->stats().writesCoalesced,
              5u);
    EXPECT_EQ(mc->irlpWindowTicks(), 0.0);
}

TEST_F(ControllerEdgeTest, PresetMakesBufferedWriteFast)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enablePreset = true;
        c.drainHighWatermark = 0.9;
    });
    // Park reads so the write stays buffered long enough to pre-SET.
    read(addrFor(7, 1));
    read(addrFor(7, 2));
    read(addrFor(7, 3));
    write(addrFor(0, 1), 0b111);
    eq.run();
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    if (mc->stats().presetsIssued > 0) {
        EXPECT_EQ(mc->stats().presetWrites, 1u);
    }
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerEdgeTest, PresetDroppedWhenWriteOutrunsIt)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enablePreset = true;
    });
    // No reads: the write issues immediately, before any pre-SET.
    write(addrFor(0, 1), 0b1);
    eq.run();
    EXPECT_EQ(mc->stats().writesCompleted, 1u);
    EXPECT_EQ(mc->stats().presetWrites, 0u);
    EXPECT_EQ(mc->stats().presetsIssued, 0u);
    EXPECT_TRUE(mc->idle());
}

TEST_F(ControllerEdgeTest, PresetWritesCommitCorrectData)
{
    build(presets::Baseline, [](ControllerConfig &c) {
        c.enablePreset = true;
        c.drainHighWatermark = 0.9;
    });
    read(addrFor(7, 1));
    read(addrFor(7, 2));
    const std::uint64_t addr = addrFor(0, 1);
    write(addr, 0b1010);
    eq.run();
    responses.clear();
    read(addr);
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].data, store.read(addr / kLineBytes).data);
}

/** Random mixed-stress soak across every system: nothing deadlocks,
 *  everything completes, functional state stays exact. */
class ControllerSoak : public ::testing::TestWithParam<PaperSystem>
{
};

TEST_P(ControllerSoak, RandomStressCompletesConsistently)
{
    EventQueue eq;
    BackingStore store;
    AddressMapper mapper{MemGeometry{}};
    ControllerConfig cfg;
    GetParam().policy().applyTo(cfg);
    cfg.writeQueueCap = 16;
    MemoryController mc("mc0", cfg, eq, store, mapper, 0);
    mc.setVerifyCallback([](ReqId, unsigned, bool) {});

    Rng rng(101);
    ReqId next_id = 1;
    std::uint64_t accepted_reads = 0;
    std::uint64_t completed_reads = 0;
    std::uint64_t accepted_writes = 0;

    for (int burst = 0; burst < 40; ++burst) {
        const int ops = 1 + static_cast<int>(rng.below(8));
        for (int i = 0; i < ops; ++i) {
            DecodedAddr d;
            d.bank = static_cast<unsigned>(rng.below(8));
            d.row = 1 + rng.below(3);
            d.column = static_cast<unsigned>(rng.below(16));
            const std::uint64_t addr = mapper.encode(d);
            if (rng.chance(0.5)) {
                MemRequest req;
                req.id = next_id++;
                req.addr = addr;
                if (mc.enqueueRead(req,
                                   [&completed_reads](
                                       const ReadResponse &) {
                                       ++completed_reads;
                                   })) {
                    ++accepted_reads;
                }
            } else {
                MemRequest req;
                req.id = next_id++;
                req.type = ReqType::Write;
                req.addr = addr;
                req.data = store.read(addr / kLineBytes).data;
                const auto mask =
                    static_cast<WordMask>(rng.below(256));
                for (unsigned w = 0; w < kWordsPerLine; ++w) {
                    if (mask & (1u << w))
                        req.data.w[w] = rng.next();
                }
                if (mc.enqueueWrite(req))
                    ++accepted_writes;
            }
        }
        eq.run(eq.now() + rng.below(2000) * kNanosecond / 4);
    }
    eq.run();
    EXPECT_EQ(completed_reads, accepted_reads);
    EXPECT_GT(accepted_writes, 0u);
    EXPECT_TRUE(mc.idle());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ControllerSoak, ::testing::ValuesIn(allPaperSystems()),
    [](const ::testing::TestParamInfo<PaperSystem> &info) {
        return info.param.testName();
    });

} // namespace
} // namespace pcmap
