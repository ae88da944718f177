/**
 * @file
 * Tests for the bounded-memory HDR-style histogram: bucket geometry,
 * the quantile error bound against exact order statistics (Summary),
 * merge semantics and saturation/clamping edges.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "stats/hdr_histogram.hh"
#include "stats/summary.hh"

namespace nimblock {
namespace {

TEST(HdrHistogram, SmallValuesAreCountedExactly)
{
    // Below one sub-bucket span every integer gets its own bucket.
    for (std::int64_t v = 0; v < HdrHistogram::kSubBucketCount; ++v) {
        std::size_t i = HdrHistogram::bucketIndex(v);
        EXPECT_EQ(i, static_cast<std::size_t>(v));
        EXPECT_EQ(HdrHistogram::bucketLo(i), v);
        EXPECT_EQ(HdrHistogram::bucketHi(i), v + 1);
        EXPECT_EQ(HdrHistogram::bucketMid(i), v);
    }
}

TEST(HdrHistogram, BucketsAreContiguousAndSelfConsistent)
{
    for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
        std::int64_t lo = HdrHistogram::bucketLo(i);
        std::int64_t hi = HdrHistogram::bucketHi(i);
        ASSERT_LT(lo, hi) << "bucket " << i;
        if (i + 1 < HdrHistogram::kBucketCount) {
            EXPECT_EQ(HdrHistogram::bucketLo(i + 1), hi) << "bucket " << i;
        }
        // Both edges map back to the bucket they delimit.
        EXPECT_EQ(HdrHistogram::bucketIndex(lo), i);
        EXPECT_EQ(HdrHistogram::bucketIndex(hi - 1), i);
        std::int64_t mid = HdrHistogram::bucketMid(i);
        EXPECT_GE(mid, lo);
        EXPECT_LT(mid, hi);
        // Width bound behind the advertised relative error: above the
        // linear range a bucket spans at most lo / kSubBucketCount.
        if (lo >= HdrHistogram::kSubBucketCount) {
            EXPECT_LE(static_cast<double>(hi - lo),
                      static_cast<double>(lo) /
                          static_cast<double>(HdrHistogram::kSubBucketCount))
                << "bucket " << i;
        }
    }
}

TEST(HdrHistogram, CountSumMinMaxAreExact)
{
    HdrHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_EQ(h.quantile(0.5), 0);

    std::vector<std::int64_t> values = {7, 123456789, 42, 1000000, 7};
    std::int64_t sum = 0;
    for (std::int64_t v : values) {
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), values.size());
    EXPECT_EQ(h.min(), 7);
    EXPECT_EQ(h.max(), 123456789);
    EXPECT_DOUBLE_EQ(h.mean(),
                     static_cast<double>(sum) /
                         static_cast<double>(values.size()));
}

TEST(HdrHistogram, QuantilesWithinAdvertisedErrorOfExactSummary)
{
    // Latency-shaped stream spanning several octaves: exponential
    // service tail on top of a base, in nanoseconds.
    HdrHistogram h;
    Summary exact;
    Rng rng(2023);
    for (int i = 0; i < 50000; ++i) {
        double v = 2.0e6 + rng.exponential(20.0e6);
        auto ns = static_cast<std::int64_t>(v);
        h.record(ns);
        exact.add(static_cast<double>(ns));
    }
    ASSERT_EQ(h.count(), exact.count());

    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        double e = exact.percentile(p);
        double got = static_cast<double>(h.percentile(p));
        // 1% headroom over kMaxRelativeError absorbs the difference
        // between bucket-midpoint and rank-interpolated order statistics.
        EXPECT_NEAR(got, e, 0.01 * e) << "p" << p;
    }
    // Extreme quantiles report bucket midpoints clamped into
    // [min, max], so they land within one bucket of the exact extremes.
    EXPECT_NEAR(static_cast<double>(h.quantile(0.0)), exact.min(),
                0.01 * exact.min());
    EXPECT_NEAR(static_cast<double>(h.quantile(1.0)), exact.max(),
                0.01 * exact.max());
}

TEST(HdrHistogram, NormalizedRatioTailMatchesSummaryWithinOnePercent)
{
    // The bench_fig6 --hdr path: normalized response-time ratios
    // recorded in fixed-point micro-units. The HDR p99 must stay within
    // the advertised 1% of the exact per-sample percentile.
    HdrHistogram h;
    Summary exact;
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        // Ratio-shaped: most mass near 1, a heavy right tail to ~100x.
        double v = 0.2 + rng.exponential(1.0) * rng.exponential(1.0) * 5.0;
        h.recordDouble(v);
        exact.add(v);
    }
    for (double p : {50.0, 95.0, 99.0}) {
        double e = exact.percentile(p);
        double got = static_cast<double>(h.percentile(p)) / 1e6;
        EXPECT_NEAR(got, e, 0.01 * e + 1e-6) << "p" << p;
    }
}

TEST(HdrHistogram, MergeMatchesRecordingTheUnion)
{
    Rng rng(7);
    HdrHistogram a, b, both;
    for (int i = 0; i < 2000; ++i) {
        auto v = static_cast<std::int64_t>(rng.exponential(5.0e6));
        a.record(v);
        both.record(v);
    }
    for (int i = 0; i < 3000; ++i) {
        auto v = static_cast<std::int64_t>(rng.exponential(80.0e6));
        b.record(v);
        both.record(v);
    }

    a.merge(b);
    EXPECT_TRUE(a == both);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_DOUBLE_EQ(a.mean(), both.mean());
    for (double q : {0.5, 0.99, 0.999})
        EXPECT_EQ(a.quantile(q), both.quantile(q));
}

TEST(HdrHistogram, NegativeClampsAndHugeValuesSaturate)
{
    HdrHistogram h;
    h.record(-123);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.bucketCount(0), 1u);

    std::int64_t huge = HdrHistogram::kMaxValue * 4;
    h.record(huge);
    h.record(HdrHistogram::kMaxValue);
    // Saturated samples share the top bucket but max() stays exact; the
    // top quantile reports that bucket (never over max, never below the
    // saturation threshold's bucket).
    EXPECT_EQ(HdrHistogram::bucketIndex(huge),
              HdrHistogram::bucketIndex(HdrHistogram::kMaxValue - 1));
    EXPECT_EQ(h.max(), huge);
    EXPECT_LE(h.quantile(1.0), huge);
    EXPECT_GE(h.quantile(1.0),
              HdrHistogram::bucketLo(
                  HdrHistogram::bucketIndex(HdrHistogram::kMaxValue - 1)));
    EXPECT_EQ(h.count(), 3u);
}

TEST(HdrHistogram, ClearResetsToEmpty)
{
    HdrHistogram h;
    h.record(1000);
    h.record(2000);
    ASSERT_FALSE(h.empty());
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0);
    HdrHistogram fresh;
    EXPECT_TRUE(h == fresh);
}

TEST(HdrHistogram, DoubleRecordingRoundTrips)
{
    HdrHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.recordDouble(i * 0.01);
    double p50 = h.quantileDouble(0.5);
    // Fixed-point micro-units on top of the bucket error.
    EXPECT_NEAR(p50, 5.0, 5.0 * 2 * HdrHistogram::kMaxRelativeError + 1e-6);
}

TEST(HdrHistogram, FootprintIsFixedAndSmall)
{
    // The whole point: O(1) in sample count, and small enough that a
    // per-worker or per-tenant array of them is cheap.
    EXPECT_EQ(HdrHistogram::footprintBytes(), sizeof(HdrHistogram));
    EXPECT_LE(HdrHistogram::footprintBytes(), std::size_t{64} * 1024);

    HdrHistogram h;
    for (int i = 0; i < 100000; ++i)
        h.record(i * 997);
    EXPECT_EQ(h.count(), 100000u);
    EXPECT_FALSE(h.toString().empty());
}

TEST(HdrHistogram, MergeWithEmptyPreservesContentsBothWays)
{
    HdrHistogram filled;
    for (std::int64_t v : {7, 130, 5000, 1 << 20})
        filled.record(v);
    const HdrHistogram snapshot = filled;

    // Merging an empty histogram in must be a no-op...
    HdrHistogram empty;
    filled.merge(empty);
    EXPECT_TRUE(filled == snapshot);
    EXPECT_EQ(filled.min(), 7);
    EXPECT_EQ(filled.max(), 1 << 20);

    // ...and merging into an empty one must reproduce the source
    // exactly, min/max included (an empty histogram reports min() == 0,
    // which must not leak into the merged minimum).
    HdrHistogram target;
    target.merge(snapshot);
    EXPECT_TRUE(target == snapshot);
    EXPECT_EQ(target.min(), 7);
    EXPECT_EQ(target.max(), 1 << 20);

    // Empty into empty stays empty.
    HdrHistogram a, b;
    a.merge(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.count(), 0u);
}

TEST(HdrHistogram, RepeatedMergesMatchOneShot)
{
    // Chaining k partial merges must equal recording the union directly:
    // the per-worker fan-in path reduces histograms pairwise in whatever
    // order workers finish.
    Rng rng(99);
    HdrHistogram direct;
    std::vector<HdrHistogram> parts(4);
    for (int i = 0; i < 4000; ++i) {
        std::int64_t v = rng.uniformInt(0, 1 << 22);
        direct.record(v);
        parts[static_cast<std::size_t>(i) % parts.size()].record(v);
    }
    HdrHistogram chained;
    for (const HdrHistogram &p : parts)
        chained.merge(p);
    EXPECT_TRUE(chained == direct);

    // Unbalanced reduction order (a different tree) gives the same
    // result: merge is commutative and associative.
    HdrHistogram left, right;
    left.merge(parts[0]);
    left.merge(parts[1]);
    right.merge(parts[3]);
    right.merge(parts[2]);
    left.merge(right);
    EXPECT_TRUE(left == direct);
}

TEST(HdrHistogram, ExtremeQuantilesClampToExactMinMax)
{
    HdrHistogram h;
    for (std::int64_t v : {3, 100, 1000, 123456, 9999999})
        h.record(v);
    // quantile(0)/quantile(1) must return the exact tracked extremes,
    // not bucket midpoints (which could over/under-range them).
    EXPECT_EQ(h.quantile(0.0), 3);
    EXPECT_EQ(h.quantile(1.0), 9999999);
    EXPECT_GE(h.quantile(0.5), h.min());
    EXPECT_LE(h.quantile(0.5), h.max());

    // A single sample answers every quantile with itself.
    HdrHistogram one;
    one.record(42);
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(one.quantile(q), 42) << q;
}

TEST(HdrHistogram, EmptyHistogramQueriesAreBenign)
{
    HdrHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.quantile(0.0), 0);
    EXPECT_EQ(h.quantile(0.5), 0);
    EXPECT_EQ(h.quantile(1.0), 0);
    EXPECT_EQ(h.percentile(99.9), 0);
    EXPECT_FALSE(h.toString().empty());
}

} // namespace
} // namespace nimblock
