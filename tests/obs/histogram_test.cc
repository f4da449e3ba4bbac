/**
 * @file
 * Tests for the log-bucketed latency histogram: bucket geometry, the
 * documented ~3% percentile error bound and merge/reset semantics.
 * Its seven-key stat export is tested with the stat writer
 * (tests/sim/stats_test.cc).
 */

#include <gtest/gtest.h>

#include "obs/histogram.h"

namespace pcmap {
namespace {

using obs::LogHistogram;

TEST(LogHistogramTest, SmallValuesAreExact)
{
    LogHistogram h;
    for (std::uint64_t v = 0; v < LogHistogram::kSubCount; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketUpperBound(v), v);
    }
    h.sample(3);
    h.sample(3);
    h.sample(7);
    EXPECT_EQ(h.percentile(50.0), 3u);
    EXPECT_EQ(h.percentile(100.0), 7u);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), (3.0 + 3.0 + 7.0) / 3.0);
}

TEST(LogHistogramTest, BucketGeometryIsConsistent)
{
    // Every value maps into a bucket whose upper bound is at least the
    // value and within the documented 2^-kSubBits relative error.
    for (std::uint64_t v = 1; v < (1ull << 40);
         v += 1 + v / 3) {
        const std::size_t idx = LogHistogram::bucketIndex(v);
        const std::uint64_t ub = LogHistogram::bucketUpperBound(idx);
        ASSERT_GE(ub, v) << "value " << v;
        ASSERT_LE(ub - v, v / LogHistogram::kSubCount + 1)
            << "value " << v;
        // The upper bound itself must land in the same bucket.
        ASSERT_EQ(LogHistogram::bucketIndex(ub), idx) << "value " << v;
    }
    // Index is monotone across octave boundaries.
    std::size_t prev = 0;
    for (std::uint64_t v = 0; v < 100'000; ++v) {
        const std::size_t idx = LogHistogram::bucketIndex(v);
        ASSERT_GE(idx, prev);
        prev = idx;
    }
}

TEST(LogHistogramTest, PercentilesWithinErrorBound)
{
    LogHistogram h;
    // Uniform 1..100000: p50 = 50000, p99 = 99000 up to bucketing.
    for (std::uint64_t v = 1; v <= 100'000; ++v)
        h.sample(v);
    const double tol = 1.0 / LogHistogram::kSubCount;
    EXPECT_NEAR(static_cast<double>(h.percentile(50.0)), 50'000.0,
                50'000.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(90.0)), 90'000.0,
                90'000.0 * tol);
    EXPECT_NEAR(static_cast<double>(h.percentile(99.0)), 99'000.0,
                99'000.0 * tol);
    // p100 and max are exact, not bucket bounds.
    EXPECT_EQ(h.percentile(100.0), 100'000u);
    EXPECT_EQ(h.maxSeen(), 100'000u);
    EXPECT_EQ(h.minSeen(), 1u);
}

TEST(LogHistogramTest, SummaryAndEmpty)
{
    LogHistogram h;
    const LogHistogram::Summary empty = h.summary();
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_DOUBLE_EQ(empty.p999, 0.0);
    h.sample(1000);
    const LogHistogram::Summary s = h.summary();
    EXPECT_EQ(s.samples, 1u);
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
    EXPECT_DOUBLE_EQ(s.mean, 1000.0);
    // Single sample: every percentile clamps to the exact value.
    EXPECT_DOUBLE_EQ(s.p50, 1000.0);
    EXPECT_DOUBLE_EQ(s.p999, 1000.0);
}

TEST(LogHistogramTest, MergeMatchesCombinedSampling)
{
    LogHistogram a;
    LogHistogram b;
    LogHistogram both;
    for (std::uint64_t v = 1; v <= 500; ++v) {
        a.sample(v * 7);
        both.sample(v * 7);
    }
    for (std::uint64_t v = 1; v <= 300; ++v) {
        b.sample(v * 1001);
        both.sample(v * 1001);
    }
    a.merge(b);
    EXPECT_EQ(a.samples(), both.samples());
    EXPECT_EQ(a.maxSeen(), both.maxSeen());
    EXPECT_EQ(a.minSeen(), both.minSeen());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (const double pct : {50.0, 90.0, 99.0, 99.9})
        EXPECT_EQ(a.percentile(pct), both.percentile(pct)) << pct;
}

TEST(LogHistogramTest, ResetClearsEverything)
{
    LogHistogram h;
    h.sample(123456);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.maxSeen(), 0u);
    EXPECT_EQ(h.percentile(50.0), 0u);
    h.sample(8);
    EXPECT_EQ(h.minSeen(), 8u);
}

} // namespace
} // namespace pcmap
