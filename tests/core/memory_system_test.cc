/**
 * @file
 * Tests for the multi-channel MainMemory router: channel dispatch,
 * retry/verify fan-out, shared functional state, and idle detection.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/memory_system.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

class MemorySystemTest : public ::testing::Test
{
  protected:
    void
    build(const ControllerPolicy &system)
    {
        mem = std::make_unique<MainMemory>(
            controllerFor(system), geom, eq);
    }

    /** Line-aligned address decoding to @p channel. */
    std::uint64_t
    addrOnChannel(unsigned channel, std::uint64_t salt = 0) const
    {
        // Channel interleave is line-level: line % channels.
        const std::uint64_t line = salt * geom.channels + channel;
        return line * kLineBytes;
    }

    bool
    read(std::uint64_t addr)
    {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Read;
        req.addr = addr;
        return mem->enqueueRead(req, [this](const ReadResponse &r) {
            completions.push_back(r);
        });
    }

    bool
    write(std::uint64_t addr, std::uint64_t value)
    {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Write;
        req.addr = addr;
        req.data = mem->backingStore().read(addr / kLineBytes).data;
        req.data.w[0] = value;
        return mem->enqueueWrite(req);
    }

    EventQueue eq;
    MemGeometry geom{};
    std::unique_ptr<MainMemory> mem;
    std::vector<ReadResponse> completions;
    ReqId nextId = 1;
};

TEST_F(MemorySystemTest, BuildsOneControllerPerChannel)
{
    build(presets::Baseline);
    EXPECT_EQ(mem->channels(), geom.channels);
    for (unsigned ch = 0; ch < mem->channels(); ++ch) {
        EXPECT_EQ(mem->controller(ch).name(),
                  "mc" + std::to_string(ch));
    }
    EXPECT_TRUE(mem->idle());
}

TEST_F(MemorySystemTest, RoutesByChannelBits)
{
    build(presets::Baseline);
    for (unsigned ch = 0; ch < geom.channels; ++ch)
        EXPECT_TRUE(read(addrOnChannel(ch, 1)));
    eq.run();
    for (unsigned ch = 0; ch < geom.channels; ++ch) {
        EXPECT_EQ(mem->controller(ch).stats().readsCompleted, 1u)
            << "channel " << ch;
    }
    EXPECT_EQ(completions.size(), geom.channels);
}

TEST_F(MemorySystemTest, ChannelsOperateInParallel)
{
    build(presets::Baseline);
    const PcmTiming t;
    for (unsigned ch = 0; ch < geom.channels; ++ch)
        read(addrOnChannel(ch, 2));
    eq.run();
    // Four reads on four channels complete in one miss latency, not
    // four.
    for (const ReadResponse &r : completions)
        EXPECT_EQ(r.completionTick, t.readMissTicks());
}

TEST_F(MemorySystemTest, WritesVisibleAcrossPort)
{
    build(presets::RWoW_RDE);
    const std::uint64_t addr = addrOnChannel(2, 7);
    write(addr, 0xCAFE);
    eq.run();
    read(addr);
    eq.run();
    ASSERT_EQ(completions.size(), 1u);
    EXPECT_EQ(completions[0].data.w[0], 0xCAFEu);
    EXPECT_TRUE(mem->idle());
}

TEST_F(MemorySystemTest, RetryCallbackFansOutFromAnyController)
{
    build(presets::Baseline);
    int retries = 0;
    mem->setRetryCallback([&] { ++retries; });
    // Overflow channel 0's read queue.
    std::uint64_t salt = 1;
    int accepted = 0;
    while (read(addrOnChannel(0, salt++)))
        ++accepted;
    EXPECT_GT(accepted, 0);
    eq.run();
    EXPECT_GT(retries, 0);
}

TEST_F(MemorySystemTest, VerifyCallbackCarriesCoreId)
{
    build(presets::RWoW_NR);
    std::vector<unsigned> cores_seen;
    mem->setVerifyCallback(
        [&](ReqId, unsigned core, bool fault) {
            cores_seen.push_back(core);
            EXPECT_FALSE(fault);
        });
    // Force a drain with queued reads so speculative service happens.
    MemRequest rd;
    rd.id = nextId++;
    rd.type = ReqType::Read;
    rd.addr = addrOnChannel(0, 50);
    rd.coreId = 5;
    mem->enqueueRead(rd, [](const ReadResponse &) {});
    rd.id = nextId++;
    rd.addr = addrOnChannel(0, 51);
    mem->enqueueRead(rd, [](const ReadResponse &) {});
    for (std::uint64_t i = 0; i < 30; ++i)
        write(addrOnChannel(0, 100 + i), i + 1);
    eq.run();
    for (const unsigned c : cores_seen)
        EXPECT_EQ(c, 5u);
}

TEST_F(MemorySystemTest, IdleReflectsOutstandingWork)
{
    build(presets::Baseline);
    EXPECT_TRUE(mem->idle());
    read(addrOnChannel(1, 3));
    EXPECT_FALSE(mem->idle());
    eq.run();
    EXPECT_TRUE(mem->idle());
}

TEST_F(MemorySystemTest, SumOverAggregatesControllers)
{
    build(presets::Baseline);
    for (unsigned ch = 0; ch < geom.channels; ++ch)
        read(addrOnChannel(ch, 4));
    eq.run();
    const double total = mem->sumOver([](const MemoryController &mc) {
        return static_cast<double>(mc.stats().readsCompleted);
    });
    EXPECT_DOUBLE_EQ(total, static_cast<double>(geom.channels));
}

TEST_F(MemorySystemTest, MultiRankBuildsAndRoundTrips)
{
    geom.ranksPerChannel = 2;
    build(presets::RWoW_RDE);
    EXPECT_EQ(mem->controller(0).numRanks(), 2u);
    // Find two addresses on channel 0 in different ranks.
    std::uint64_t rank0_addr = 0;
    std::uint64_t rank1_addr = 0;
    bool have0 = false;
    bool have1 = false;
    for (std::uint64_t line = 0; !(have0 && have1); line += 1) {
        const DecodedAddr d = mem->mapper().decode(line * kLineBytes);
        if (d.channel != 0)
            continue;
        if (d.rank == 0 && !have0) {
            rank0_addr = line * kLineBytes;
            have0 = true;
        }
        if (d.rank == 1 && !have1) {
            rank1_addr = line * kLineBytes;
            have1 = true;
        }
    }
    write(rank0_addr, 0x11);
    write(rank1_addr, 0x22);
    eq.run();
    read(rank0_addr);
    read(rank1_addr);
    eq.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_TRUE(mem->idle());
}

TEST_F(MemorySystemTest, RanksServeWritesConcurrently)
{
    // The one-write-group-at-a-time constraint is per rank: two ranks
    // of one channel write in parallel, halving the two-write makespan.
    geom.ranksPerChannel = 2;
    build(presets::Baseline);
    const PcmTiming t;
    std::uint64_t rank_addr[2] = {0, 0};
    bool have[2] = {false, false};
    for (std::uint64_t line = 0; !(have[0] && have[1]); ++line) {
        const DecodedAddr d = mem->mapper().decode(line * kLineBytes);
        if (d.channel == 0 && d.rank < 2 && !have[d.rank]) {
            rank_addr[d.rank] = line * kLineBytes;
            have[d.rank] = true;
        }
    }
    write(rank_addr[0], 1);
    write(rank_addr[1], 2);
    eq.run();
    EXPECT_EQ(mem->controller(0).stats().writesCompleted, 2u);
    // Both writes fit well inside two serial write latencies.
    EXPECT_LT(eq.now(), 2 * t.chipWriteTicks());
}

TEST_F(MemorySystemTest, FinalizeClosesIrlpWindows)
{
    build(presets::Baseline);
    write(addrOnChannel(0, 9), 42);
    eq.run();
    mem->finalize(eq.now());
    EXPECT_GT(mem->controller(0).irlpWindowTicks(), 0.0);
}

} // namespace
} // namespace pcmap
