/**
 * @file
 * Tests for the synthetic SPLASH-2-like workload generators and the
 * sampled-trace builder (Section 3.1 methodology).
 *
 * The generators' calibration targets are Table 1's remote-access
 * fractions: Barnes 44.8%, LU 19.1%, Ocean 7.4%, Raytrace 29.6%.
 */

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "trace/BarnesWorkload.h"
#include "trace/LuWorkload.h"
#include "trace/OceanWorkload.h"
#include "trace/RaytraceWorkload.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"

namespace csr
{
namespace
{

std::vector<MemAccess>
firstN(const SyntheticWorkload &wl, ProcId p, std::size_t n)
{
    auto stream = wl.procStream(p);
    std::vector<MemAccess> out;
    MemAccess acc;
    while (out.size() < n && stream->next(acc))
        out.push_back(acc);
    return out;
}

class WorkloadBasics : public ::testing::TestWithParam<BenchmarkId>
{
};

TEST_P(WorkloadBasics, StreamsAreDeterministic)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const auto a = firstN(*wl, 0, 5000);
    const auto b = firstN(*wl, 0, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].addr, b[i].addr) << "at " << i;
        ASSERT_EQ(a[i].write, b[i].write) << "at " << i;
    }
}

TEST_P(WorkloadBasics, DifferentProcsDiffer)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const auto a = firstN(*wl, 0, 2000);
    const auto b = firstN(*wl, 1, 2000);
    std::size_t same = 0;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        same += a[i].addr == b[i].addr ? 1 : 0;
    EXPECT_LT(same, n); // not identical streams
}

TEST_P(WorkloadBasics, AddressesAreBlockAligned)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    for (const auto &acc : firstN(*wl, 0, 5000))
        EXPECT_EQ(acc.addr % 64, 0u);
}

TEST_P(WorkloadBasics, ContainsReadsAndWrites)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    bool saw_read = false, saw_write = false;
    for (const auto &acc : firstN(*wl, 0, 20000)) {
        saw_read |= !acc.write;
        saw_write |= acc.write;
    }
    EXPECT_TRUE(saw_read);
    EXPECT_TRUE(saw_write);
}

TEST_P(WorkloadBasics, RespectsReferenceCap)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    auto stream = wl->procStream(0);
    MemAccess acc;
    std::uint64_t count = 0;
    while (stream->next(acc))
        ++count;
    EXPECT_LE(count, 20000u); // Test-scale cap
    EXPECT_GT(count, 1000u);  // but substantial
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadBasics,
                         ::testing::ValuesIn(paperBenchmarks()),
                         [](const auto &info) {
                             return benchmarkName(info.param);
                         });

// ---------------------------------------------------------------------------
// Sampled trace construction
// ---------------------------------------------------------------------------

class SampledTraceTest : public ::testing::TestWithParam<BenchmarkId>
{
};

TEST_P(SampledTraceTest, ContainsOnlySampledAccessesAndRemoteWrites)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const ProcId sampled = 1;
    const SampledTrace trace = buildSampledTrace(*wl, sampled);
    ASSERT_FALSE(trace.records.empty());
    for (const auto &rec : trace.records) {
        if (rec.proc != sampled) {
            ASSERT_TRUE(rec.write) << "remote read leaked into trace";
        }
    }
}

TEST_P(SampledTraceTest, EveryBlockHasAHome)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*wl, 1);
    for (const auto &rec : trace.records) {
        ASSERT_TRUE(trace.homeOf.count(trace.blockOf(rec)))
            << "block without first-touch home";
    }
}

TEST_P(SampledTraceTest, SampledRefCountMatchesBudget)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*wl, 1);
    // Test scale budgets 20000 refs per proc (LU may finish early).
    EXPECT_LE(trace.sampledRefs, 20000u);
    EXPECT_GE(trace.sampledRefs, 5000u);
}

TEST_P(SampledTraceTest, DeterministicAcrossBuilds)
{
    auto wl = makeWorkload(GetParam(), WorkloadScale::Test);
    const SampledTrace a = buildSampledTrace(*wl, 1);
    const SampledTrace b = buildSampledTrace(*wl, 1);
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_TRUE(std::equal(a.records.begin(), a.records.end(),
                           b.records.begin()));
    EXPECT_EQ(a.remoteAccessFraction, b.remoteAccessFraction);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SampledTraceTest,
                         ::testing::ValuesIn(paperBenchmarks()),
                         [](const auto &info) {
                             return benchmarkName(info.param);
                         });

// ---------------------------------------------------------------------------
// Table 1 calibration: remote-access fractions under first touch
// ---------------------------------------------------------------------------

// gtest names a parameterised case by printing the raw bytes of its
// parameter, so the padding between `id` and `paperFraction` is spelled
// out as a zeroed member; otherwise the printed test names would carry
// indeterminate padding bytes and change from one build to the next.
struct RemoteTarget
{
    BenchmarkId id;
    std::uint32_t padding;
    double paperFraction;
};
static_assert(sizeof(BenchmarkId) == 4 && sizeof(RemoteTarget) == 16,
              "RemoteTarget must have no implicit padding");

class RemoteFraction : public ::testing::TestWithParam<RemoteTarget>
{
};

TEST_P(RemoteFraction, MatchesTable1Target)
{
    // Calibration is asserted at the bench (Small) scale; the tiny
    // Test-scale problems distort band/chunk boundary ratios.
    auto wl = makeWorkload(GetParam().id, WorkloadScale::Small);
    const SampledTrace trace = buildSampledTrace(*wl, 1);
    EXPECT_NEAR(trace.remoteAccessFraction, GetParam().paperFraction, 0.04)
        << benchmarkName(GetParam().id);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, RemoteFraction,
    ::testing::Values(RemoteTarget{BenchmarkId::Barnes, 0, 0.448},
                      RemoteTarget{BenchmarkId::Lu, 0, 0.191},
                      RemoteTarget{BenchmarkId::Ocean, 0, 0.074},
                      RemoteTarget{BenchmarkId::Raytrace, 0, 0.296}),
    [](const auto &info) { return benchmarkName(info.param.id); });

// ---------------------------------------------------------------------------
// Structural expectations per benchmark
// ---------------------------------------------------------------------------

TEST(Barnes, OwnershipIsChunkedCyclic)
{
    BarnesWorkload wl;
    const auto &p = wl.params();
    EXPECT_EQ(wl.ownerOfBody(0), 0u);
    EXPECT_EQ(wl.ownerOfBody(p.chunkBodies - 1), 0u);
    EXPECT_EQ(wl.ownerOfBody(p.chunkBodies), 1u);
    EXPECT_EQ(wl.ownerOfBody(p.chunkBodies * p.numProcs), 0u);
}

TEST(Lu, OwnerGridIsTwoDScatter)
{
    LuWorkload wl;
    EXPECT_EQ(wl.ownerOf(0, 0), 0u);
    EXPECT_EQ(wl.ownerOf(0, 1), 1u);
    EXPECT_EQ(wl.ownerOf(1, 0), 2u);
    EXPECT_EQ(wl.ownerOf(4, 2), 0u); // wraps at (4,2)
    EXPECT_EQ(wl.memoryBytes(), 2u * 1024 * 1024); // paper: 2.0 MB
}

TEST(Lu, NaturalTerminationWithoutCap)
{
    LuParams p;
    p.matrixDim = 64; // tiny: 4x4 submatrices
    p.targetRefsPerProc = 0;
    LuWorkload wl(p);
    for (ProcId proc = 0; proc < wl.numProcs(); ++proc) {
        auto stream = wl.procStream(proc);
        MemAccess acc;
        std::uint64_t n = 0;
        while (stream->next(acc)) {
            ++n;
            ASSERT_LT(n, 10000000u) << "stream did not terminate";
        }
        EXPECT_GT(n, 0u);
    }
}

TEST(Ocean, BandPartitionCoversInteriorRows)
{
    OceanWorkload wl;
    const auto &p = wl.params();
    std::uint32_t covered = 0;
    for (ProcId q = 0; q < p.numProcs; ++q) {
        EXPECT_EQ(wl.firstRowOf(q), 1 + covered);
        covered += wl.rowsOf(q);
    }
    EXPECT_EQ(covered, p.gridDim - 2);
}

TEST(Ocean, FootprintFarExceedsL2)
{
    OceanWorkload wl;
    EXPECT_GT(wl.memoryBytes(), 64u * 16 * 1024); // >> 16 KB L2
}

TEST(Raytrace, SceneDominatesFootprint)
{
    RaytraceWorkload wl;
    EXPECT_GT(wl.memoryBytes(), 4u * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(WorkloadFactory, ParseNames)
{
    EXPECT_EQ(parseBenchmark("barnes"), BenchmarkId::Barnes);
    EXPECT_EQ(parseBenchmark("LU"), BenchmarkId::Lu);
    EXPECT_EQ(parseBenchmark("Ocean"), BenchmarkId::Ocean);
    EXPECT_EQ(parseBenchmark("RAYTRACE"), BenchmarkId::Raytrace);
}

TEST(WorkloadFactory, ProcessorCountsMatchTable1)
{
    EXPECT_EQ(makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test)
                  ->numProcs(), 8u);
    EXPECT_EQ(makeWorkload(BenchmarkId::Lu, WorkloadScale::Test)
                  ->numProcs(), 8u);
    EXPECT_EQ(makeWorkload(BenchmarkId::Ocean, WorkloadScale::Test)
                  ->numProcs(), 16u);
    EXPECT_EQ(makeWorkload(BenchmarkId::Raytrace, WorkloadScale::Test)
                  ->numProcs(), 8u);
}

} // namespace
} // namespace csr
