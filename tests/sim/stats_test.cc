/**
 * @file
 * Unit tests for the stat writer: dotted names from nested scopes,
 * the dump line format, collect/dump agreement, the seven-key
 * percentile entry, and the bound on what exporting those keys
 * allocates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "obs/histogram.h"
#include "sim/stats.h"

// Count every heap allocation in this binary so the allocation test
// below can bound what exporting a percentile entry costs.  The array
// forms route through the scalar ones by default, so replacing the
// scalar pair is sufficient for counting.
namespace {
std::uint64_t g_heapAllocs = 0;
} // namespace

// GCC pairs its builtin model of ::operator new with the replaced
// delete below and warns about malloc/free mixing that cannot happen
// once both replacements are linked in.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace pcmap::stats {
namespace {

using obs::LogHistogram;

TEST(StatGroup, DumpIncludesPrefixAndNames)
{
    std::ostringstream os;
    Writer w(os);
    {
        const Writer::Scope sys(w, "sys");
        w.scalar("reads", 4.0, "total reads");
    }
    const std::string text = os.str();
    EXPECT_NE(text.find("sys.reads"), std::string::npos);
    EXPECT_NE(text.find("total reads"), std::string::npos);
}

TEST(StatGroup, ChildGroupsAreNested)
{
    FlatStats flat;
    Writer w(flat);
    {
        const Writer::Scope sys(w, "sys");
        {
            const Writer::Scope mc(w, "mc", 0);
            w.scalar("writes", 1.0, "w");
        }
        w.scalar("reads", 2.0, "r");
    }
    w.scalar("top", 3.0, "t");
    const FlatStats want = {
        {"sys.mc0.writes", 1.0}, {"sys.reads", 2.0}, {"top", 3.0}};
    EXPECT_EQ(flat, want);
}

/** Write the same small tree: nested scopes and a percentile entry. */
void
writeTree(Writer &w, const LogHistogram &h)
{
    const Writer::Scope pcm(w, "pcm");
    for (unsigned ch = 0; ch < 2; ++ch) {
        const Writer::Scope mc(w, "mc", ch);
        w.scalar("reads", 10.0 * (ch + 1), "PCM reads served");
        w.percentiles("readLatencyHistNs", h, 1e-3,
                      "read latency percentiles");
        w.scalar("writes", 3.0, "write-backs committed");
    }
}

TEST(StatsWriter, DumpAndCollectEmitTheSameKeys)
{
    LogHistogram h;
    for (std::uint64_t v = 1000; v <= 100'000; v += 1000)
        h.sample(v);

    FlatStats flat;
    Writer collect(flat);
    writeTree(collect, h);

    std::ostringstream os;
    Writer dump(os);
    writeTree(dump, h);

    ASSERT_EQ(flat.size(), 2u * 9u);
    EXPECT_EQ(flat.front().first, "pcm.mc0.reads");
    EXPECT_EQ(flat[1].first, "pcm.mc0.readLatencyHistNs.p50");
    EXPECT_EQ(flat.back().first, "pcm.mc1.writes");

    std::istringstream in(os.str());
    std::string line;
    std::size_t i = 0;
    while (std::getline(in, line)) {
        ASSERT_LT(i, flat.size());
        std::istringstream fields(line);
        std::string key;
        double value = -1.0;
        fields >> key >> value;
        EXPECT_EQ(key, flat[i].first) << "line " << i;
        // The dump prints six significant digits.
        EXPECT_NEAR(value, flat[i].second,
                    1e-5 * std::max(1.0, flat[i].second))
            << key;
        ++i;
    }
    EXPECT_EQ(i, flat.size());
}

TEST(StatsWriter, DumpLineFormatIsPinned)
{
    std::ostringstream os;
    Writer w(os);
    {
        const Writer::Scope pcm(w, "pcm");
        const Writer::Scope mc(w, "mc", 3);
        w.scalar("readLatencyNs", 1234.56789,
                 "mean effective read latency");
    }
    // Name left-aligned in 48 columns, one space, value right-aligned
    // in 16 columns at precision 6, then "  # " and the description.
    EXPECT_EQ(os.str(),
              "pcm.mc3.readLatencyNs                           "
              "          1234.57  # mean effective read latency\n");
}

TEST(PercentilesStatTest, ExportsSevenSuffixedKeys)
{
    LogHistogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.sample(v * 100);
    const LogHistogram::Summary s = h.summary();

    FlatStats flat;
    Writer w(flat);
    {
        const Writer::Scope ctrl(w, "ctrl");
        w.percentiles("readLatencyHistNs", h, 1e-3,
                      "read latency percentiles");
    }
    ASSERT_EQ(flat.size(), 7u);
    EXPECT_EQ(flat[0].first, "ctrl.readLatencyHistNs.p50");
    EXPECT_DOUBLE_EQ(flat[0].second, s.p50 * 1e-3);
    EXPECT_EQ(flat[1].first, "ctrl.readLatencyHistNs.p90");
    EXPECT_DOUBLE_EQ(flat[1].second, s.p90 * 1e-3);
    EXPECT_EQ(flat[2].first, "ctrl.readLatencyHistNs.p99");
    EXPECT_DOUBLE_EQ(flat[2].second, s.p99 * 1e-3);
    EXPECT_EQ(flat[3].first, "ctrl.readLatencyHistNs.p999");
    EXPECT_DOUBLE_EQ(flat[3].second, s.p999 * 1e-3);
    EXPECT_EQ(flat[4].first, "ctrl.readLatencyHistNs.max");
    EXPECT_DOUBLE_EQ(flat[4].second, 100.0);
    EXPECT_EQ(flat[5].first, "ctrl.readLatencyHistNs.mean");
    EXPECT_DOUBLE_EQ(flat[5].second, s.mean * 1e-3);
    // The sample count is never scaled.
    EXPECT_EQ(flat[6].first, "ctrl.readLatencyHistNs.samples");
    EXPECT_DOUBLE_EQ(flat[6].second, 1000.0);

    // An empty histogram exports zeros under the same keys.
    FlatStats empty;
    Writer e(empty);
    e.percentiles("h", LogHistogram{}, 1e-3, "empty");
    ASSERT_EQ(empty.size(), 7u);
    for (const auto &[key, value] : empty)
        EXPECT_DOUBLE_EQ(value, 0.0) << key;
}

TEST(PercentilesStatTest, CollectUsesKeyScratchNotConcatChains)
{
    const LogHistogram h;
    FlatStats out;
    out.reserve(16);

    const std::uint64_t before = g_heapAllocs;
    {
        Writer w(out);
        const Writer::Scope chan(w, "chan", 0);
        const Writer::Scope ctrl(w, "controller03");
        w.percentiles("queueResidencyNs", h, 1e-3,
                      "queue residency percentiles");
    }
    const std::uint64_t spent = g_heapAllocs - before;
    ASSERT_EQ(out.size(), 7u);
    // One path scratch and one copy per exported key.  A naive
    // prefix+name+suffix build per value would at least double this;
    // the bound fails loudly if the shared scratch path regresses.
    EXPECT_LE(spent, 10u);
    // Keys long enough that none of this hid in SSO.
    EXPECT_EQ(out[0].first, "chan0.controller03.queueResidencyNs.p50");
}

} // namespace
} // namespace pcmap::stats
