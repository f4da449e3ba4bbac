/**
 * @file
 * Tests for the gem5-style statistics export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/stat_export.h"
#include "paper_systems.h"

namespace pcmap {
namespace {

class StatExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        mem = std::make_unique<MainMemory>(
            controllerFor(presets::RWoW_RDE), geom, eq);
    }

    void
    doWrite(std::uint64_t line, std::uint64_t value)
    {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Write;
        req.addr = line * kLineBytes;
        req.data = mem->backingStore().read(line).data;
        req.data.w[0] = value;
        mem->enqueueWrite(req);
    }

    void
    doRead(std::uint64_t line)
    {
        MemRequest req;
        req.id = nextId++;
        req.type = ReqType::Read;
        req.addr = line * kLineBytes;
        mem->enqueueRead(req, [](const ReadResponse &) {});
    }

    EventQueue eq;
    MemGeometry geom{};
    std::unique_ptr<MainMemory> mem;
    ReqId nextId = 1;
};

TEST_F(StatExportTest, BuildsOneGroupPerChannel)
{
    SystemStatExport exporter(*mem);
    std::ostringstream os;
    exporter.dump(os);
    const std::string text = os.str();
    for (unsigned ch = 0; ch < geom.channels; ++ch) {
        EXPECT_NE(text.find("pcm.mc" + std::to_string(ch) + ".reads"),
                  std::string::npos)
            << "channel " << ch;
    }
}

TEST_F(StatExportTest, RefreshTracksLiveCounters)
{
    SystemStatExport exporter(*mem);
    exporter.refresh();
    // Channel of line 0 is controller 0.
    doRead(0);
    doWrite(4, 77); // also channel 0 (line 4 % 4 == 0)
    eq.run();
    exporter.refresh();
    const stats::StatBase *reads =
        exporter.root().find("reads"); // not at root level
    EXPECT_EQ(reads, nullptr);
    std::ostringstream os;
    exporter.dump(os);
    const std::string text = os.str();
    // The dumped listing shows the completed read and write.
    EXPECT_NE(text.find("pcm.mc0.reads"), std::string::npos);
    EXPECT_NE(text.find("pcm.mc0.writes"), std::string::npos);
}

TEST_F(StatExportTest, DumpIncludesDescriptions)
{
    SystemStatExport exporter(*mem);
    std::ostringstream os;
    exporter.dump(os);
    EXPECT_NE(os.str().find("PCC reconstruction"), std::string::npos);
    EXPECT_NE(os.str().find("SET pulses"), std::string::npos);
}

TEST_F(StatExportTest, ValuesMatchControllerCounters)
{
    doWrite(0, 1);
    doWrite(4, 2);
    doRead(8);
    eq.run();
    SystemStatExport exporter(*mem);
    std::ostringstream os;
    exporter.dump(os);

    // Parse the mc0.writes line and compare with the raw counter.
    std::istringstream in(os.str());
    std::string name;
    double value = -1.0;
    bool found = false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        ls >> name >> value;
        if (name == "pcm.mc0.writes") {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    EXPECT_DOUBLE_EQ(
        value,
        static_cast<double>(
            mem->controller(0).stats().writesCompleted));
}

} // namespace
} // namespace pcmap
