/**
 * @file
 * Unit tests for the util library: RNG, math helpers, statistics and
 * table formatting.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "util/MathUtil.h"
#include "util/Random.h"
#include "util/Stats.h"
#include "util/Table.h"

namespace csr
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(13);
    const double p = 0.25;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    // E[failures before success] = (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, GeometricWithPOneIsZero)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(21);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(HashMix64, StableAndSpreading)
{
    EXPECT_EQ(hashMix64(12345), hashMix64(12345));
    EXPECT_NE(hashMix64(1), hashMix64(2));
    // Consecutive inputs should differ in many bits.
    const std::uint64_t diff = hashMix64(100) ^ hashMix64(101);
    int bits = 0;
    for (int i = 0; i < 64; ++i)
        bits += (diff >> i) & 1;
    EXPECT_GT(bits, 16);
}

TEST(MathUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(MathUtil, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0);
    EXPECT_EQ(floorLog2(2), 1);
    EXPECT_EQ(floorLog2(3), 1);
    EXPECT_EQ(floorLog2(64), 6);
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(64), 6);
    EXPECT_EQ(ceilLog2(65), 7);
}

TEST(MathUtil, Align)
{
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignDown(128, 64), 128u);
    EXPECT_EQ(alignUp(127, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(RunningStat, MeanAndVariance)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.0, 1e-12); // classic example set
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat all, a, b;
    Rng rng(33);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble() * 10;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStat, MergeWithEmptyIsIdentity)
{
    RunningStat stat, empty;
    stat.add(1.0);
    stat.add(3.0);

    stat.merge(empty); // merging an empty accumulator changes nothing
    EXPECT_EQ(stat.count(), 2u);
    EXPECT_EQ(stat.mean(), 2.0);
    EXPECT_EQ(stat.min(), 1.0);
    EXPECT_EQ(stat.max(), 3.0);

    empty.merge(stat); // merging *into* an empty one copies
    EXPECT_EQ(empty.count(), 2u);
    EXPECT_EQ(empty.mean(), 2.0);
    EXPECT_EQ(empty.min(), 1.0);
    EXPECT_EQ(empty.max(), 3.0);

    RunningStat both_empty, other_empty;
    both_empty.merge(other_empty);
    EXPECT_EQ(both_empty.count(), 0u);
    EXPECT_EQ(both_empty.mean(), 0.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h;
    h.add(-1);        // negative: counts as 0
    h.add(3.2, 5);    // weight 5
    h.add(1.0e12);    // far past any fixed range, still a finite bucket
    EXPECT_EQ(h.totalCount(), 7u);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 3.0);
    EXPECT_NEAR(h.percentile(1.0), 1.0e12, 1.0e12 / 32);
}

TEST(Histogram, Percentile)
{
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.9), 90.0, 2.0);

    Histogram wide;
    for (int i = 1; i <= 1000; ++i)
        wide.add(i * 1000.0);
    EXPECT_NEAR(wide.percentile(0.5), 500'000.0, 500'000.0 / 32);
    EXPECT_NEAR(wide.percentile(0.99), 990'000.0, 990'000.0 / 32);
}

TEST(Histogram, PercentileOfEmptyHistogramIsLowerEdge)
{
    Histogram h;
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileEndpoints)
{
    Histogram h;
    h.add(30.5);
    h.add(60.5);
    // p0 is the smallest sample, p100 the largest (exact below 64).
    EXPECT_EQ(h.percentile(0.0), 30.0);
    EXPECT_EQ(h.percentile(1.0), 60.0);
    // Out-of-range fractions clamp instead of misbehaving.
    EXPECT_EQ(h.percentile(-0.5), 30.0);
    EXPECT_EQ(h.percentile(1.5), 60.0);
}

TEST(Histogram, PercentileWithUnderflowAndOverflowMass)
{
    Histogram h;
    h.add(-5.0, 4); // 40% of the mass below zero
    h.add(5.5, 2);
    h.add(1.0e30, 4); // 40% at or past 2^64
    // Negative samples read as 0; samples past 2^64 land in the top
    // bucket, which reads within 1/32 of 2^64.
    const double top = 18446744073709551616.0;
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.3), 0.0);
    EXPECT_EQ(h.percentile(0.5), 5.0);
    EXPECT_NEAR(h.percentile(1.0), top, top / 32);
}

TEST(Histogram, PercentileSingleSample)
{
    for (double x : {3.0, 123'456.0}) {
        Histogram h;
        h.add(x);
        const double first = h.percentile(0.0);
        EXPECT_NEAR(first, x, x / 32);
        for (double frac : {0.25, 0.5, 1.0})
            EXPECT_EQ(h.percentile(frac), first);
    }
}

TEST(Histogram, MergeEqualsSingleStream)
{
    Histogram whole;
    Histogram parts[3];
    std::uint64_t x = 12345;
    for (int i = 0; i < 30'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        // Spread the samples over ~20 octaves.
        const double v = static_cast<double>(x >> (40 + i % 20));
        whole.add(v);
        parts[i % 3].add(v);
    }
    Histogram merged;
    for (const Histogram &part : parts)
        merged.merge(part);
    EXPECT_EQ(merged.totalCount(), whole.totalCount());
    for (int q = 0; q <= 1000; ++q)
        EXPECT_EQ(merged.percentile(q / 1000.0),
                  whole.percentile(q / 1000.0))
            << "q = " << q / 1000.0;
}

TEST(Histogram, RelativeErrorBounded)
{
    for (int e = 0; e <= 40; ++e) {
        const auto base = std::uint64_t{1} << e;
        for (std::uint64_t v : {base, base + base / 3, 2 * base - 1}) {
            Histogram h;
            h.add(static_cast<double>(v));
            const double got = h.percentile(0.5);
            const auto want = static_cast<double>(v);
            EXPECT_LE(std::abs(got - want), want / 32)
                << "value " << v << " read back as " << got;
        }
    }
}

TEST(TextTable, AlignedOutputContainsCells)
{
    TextTable t("Demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", TextTable::num(1.2345, 2)});
    t.addSeparator();
    t.addRow({"beta", TextTable::count(1234567)});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.23"), std::string::npos);
    EXPECT_NE(s.find("1,234,567"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, NumFormatsNegativesAndPrecision)
{
    EXPECT_EQ(TextTable::num(-1.5, 2), "-1.50");
    EXPECT_EQ(TextTable::num(3.14159, 3), "3.142");
    EXPECT_EQ(TextTable::count(0), "0");
    EXPECT_EQ(TextTable::count(999), "999");
    EXPECT_EQ(TextTable::count(1000), "1,000");
}

} // namespace
} // namespace csr
