/**
 * @file
 * Tests for the parallel sweep engine: ThreadPool semantics
 * (including exception propagation), grid expansion/parsing, and the
 * load-bearing property that sweep results are bit-identical
 * regardless of worker count.
 */

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/SweepRunner.h"
#include "sim/TraceStudy.h"
#include "cost/StaticCostModels.h"
#include "util/ThreadPool.h"

namespace csr
{
namespace
{

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 200; ++i)
        futures.push_back(pool.submit([&count] { ++count; }));
    for (auto &future : futures)
        future.get();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(2);
    auto a = pool.submit([] { return 21; });
    auto b = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(a.get(), 21);
    EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, PropagatesExceptionsAndSurvives)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);

    // The worker that ran the throwing task must still be alive.
    auto good = pool.submit([] { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, ParallelForRethrowsFirstFailure)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        parallelFor(pool, 50,
                    [&ran](std::size_t i) {
                        ++ran;
                        if (i == 13)
                            throw std::runtime_error("task 13");
                    }),
        std::runtime_error);
    // Every task still ran; the failure did not cancel the batch.
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, DrainsQueueOnDestruction)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

SweepGrid
smallGrid()
{
    SweepGrid grid;
    grid.scale = WorkloadScale::Test;
    grid.benchmarks = {BenchmarkId::Lu, BenchmarkId::Barnes};
    grid.policies = {PolicyKind::GreedyDual, PolicyKind::Dcl};
    grid.mappings = {CostMapping::Random, CostMapping::FirstTouch};
    grid.ratios = {CostRatio::finite(4), CostRatio::makeInfinite()};
    grid.hafs = {0.1, 0.3};
    return grid;
}

TEST(SweepGrid, ExpandIsStableAndCollapsesHafForFirstTouch)
{
    const SweepGrid grid = smallGrid();
    const auto cells = grid.expand();
    // Random keeps the two HAFs, first-touch collapses them:
    // 2 benchmarks x 2 policies x 2 ratios x (2 + 1) HAF points.
    EXPECT_EQ(cells.size(), 2u * 2u * 2u * 3u);

    const auto again = grid.expand();
    ASSERT_EQ(again.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].hash(), again[i].hash()) << "cell " << i;
}

TEST(SweepGrid, HashDistinguishesEveryField)
{
    SweepCell base;
    const std::uint64_t h = base.hash();

    SweepCell cell = base;
    cell.policy = PolicyKind::Bcl;
    EXPECT_NE(cell.hash(), h);

    cell = base;
    cell.benchmark = BenchmarkId::Ocean;
    EXPECT_NE(cell.hash(), h);

    cell = base;
    cell.haf = 0.31;
    EXPECT_NE(cell.hash(), h);

    cell = base;
    cell.l2Assoc = 8;
    EXPECT_NE(cell.hash(), h);

    cell = base;
    cell.depreciationFactor = 1.0;
    EXPECT_NE(cell.hash(), h);
}

TEST(SweepGrid, MappingHashIgnoresPolicyFields)
{
    SweepCell dcl;
    SweepCell gd = dcl;
    gd.policy = PolicyKind::GreedyDual;
    gd.etdAliasBits = 4;
    // Same experiment point => same cost mapping for both policies.
    EXPECT_EQ(dcl.mappingHash(), gd.mappingHash());
    EXPECT_NE(dcl.hash(), gd.hash());
}

TEST(SweepGrid, ParseSpecListsAndPresets)
{
    const SweepGrid grid = parseGridSpec(
        "benchmarks=lu;policies=gd,dcl;mappings=random;"
        "ratios=2,inf;hafs=0.1;scale=test;assocs=2,8");
    EXPECT_EQ(grid.benchmarks.size(), 1u);
    EXPECT_EQ(grid.policies.size(), 2u);
    EXPECT_EQ(grid.ratios.size(), 2u);
    EXPECT_TRUE(grid.ratios[1].infinite);
    EXPECT_EQ(grid.assocs.size(), 2u);
    EXPECT_EQ(grid.scale, WorkloadScale::Test);

    // Presets expand to non-empty grids, and only listed names are
    // presets ("table1" was renamed "headline").
    std::vector<std::string> names;
    for (const SweepPreset &preset : sweepPresets()) {
        names.push_back(preset.name);
        EXPECT_FALSE(parseGridSpec(preset.name).expand().empty())
            << preset.name;
    }
    EXPECT_EQ(names,
              (std::vector<std::string>{
                  "headline", "fig3", "table2", "ablation-assoc",
                  "ablation-cachesize", "ablation-depreciation",
                  "ablation-etd", "smoke"}));
    EXPECT_THROW(parseGridSpec("table1"), ConfigError);
    EXPECT_EQ(findPreset("table1"), nullptr);
}

/** A result cell carrying only what the views read. */
SweepCellResult
viewCell(BenchmarkId benchmark, PolicyKind policy, double ratio,
         double savings)
{
    SweepCellResult res;
    res.cell.benchmark = benchmark;
    res.cell.policy = policy;
    res.cell.ratio = CostRatio::finite(ratio);
    res.savingsPct = savings;
    return res;
}

std::string
printed(const SweepView &view, const std::vector<SweepCellResult> &cells)
{
    std::ostringstream os;
    view.print(os, cells);
    return os.str();
}

TEST(SweepView, FirstEncounterOrderAndMissingCells)
{
    const SweepView view{
        [](const SweepCellResult &res) {
            return policyKindName(res.cell.policy);
        },
        {{"Benchmark",
          [](const SweepCellResult &res) {
              return benchmarkName(res.cell.benchmark);
          }}},
        [](const SweepCellResult &res) { return res.cell.ratio.label(); }};
    // LU before Barnes and r=8 before r=2, as encountered; Barnes has
    // no r=2 cell.
    const std::string out = printed(
        view, {viewCell(BenchmarkId::Lu, PolicyKind::Dcl, 8, 1.0),
               viewCell(BenchmarkId::Lu, PolicyKind::Dcl, 2, -2.5),
               viewCell(BenchmarkId::Barnes, PolicyKind::Dcl, 8, 3.14159),
               viewCell(BenchmarkId::Lu, PolicyKind::Acl, 2, 0.0)});
    EXPECT_EQ(out, "== DCL ==\n"
                   "| Benchmark |  r=8 |   r=2 |\n"
                   "|-----------|------|-------|\n"
                   "| LU        | 1.00 | -2.50 |\n"
                   "| Barnes    | 3.14 |     - |\n"
                   "\n"
                   "== ACL ==\n"
                   "| Benchmark |  r=2 |\n"
                   "|-----------|------|\n"
                   "| LU        | 0.00 |\n"
                   "\n");
}

TEST(SweepView, GroupedRowsPrintBlanksAndRules)
{
    const SweepPreset *table2 = findPreset("table2");
    ASSERT_NE(table2, nullptr);
    ASSERT_TRUE(table2->view.has_value());
    std::vector<SweepCellResult> cells;
    for (BenchmarkId id : {BenchmarkId::Barnes, BenchmarkId::Lu})
        for (PolicyKind kind : {PolicyKind::GreedyDual, PolicyKind::Acl})
            for (double ratio : {2.0, 4.0})
                cells.push_back(viewCell(id, kind, ratio, ratio));
    // One table, so no trailing blank line; a rule between the
    // benchmarks but not after the last one.
    EXPECT_EQ(printed(*table2->view, cells),
              "== Table 2 -- relative cost savings over LRU (%) ==\n"
              "| Benchmark | Algorithm |  r=2 |  r=4 |\n"
              "|-----------|-----------|------|------|\n"
              "| Barnes    |        GD | 2.00 | 4.00 |\n"
              "|           |       ACL | 2.00 | 4.00 |\n"
              "|-----------|-----------|------|------|\n"
              "| LU        |        GD | 2.00 | 4.00 |\n"
              "|           |       ACL | 2.00 | 4.00 |\n");
}

TEST(SweepRunner, ResultsAreBitIdenticalAcrossJobCounts)
{
    const SweepGrid grid = smallGrid();
    const SweepResult serial = SweepRunner(1).run(grid);
    const SweepResult parallel = SweepRunner(8).run(grid);

    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const SweepCellResult &a = serial.cells[i];
        const SweepCellResult &b = parallel.cells[i];
        EXPECT_EQ(a.seed, b.seed) << "cell " << i;
        EXPECT_EQ(a.l2Misses, b.l2Misses) << "cell " << i;
        EXPECT_EQ(a.l2Hits, b.l2Hits) << "cell " << i;
        EXPECT_EQ(a.sampledRefs, b.sampledRefs) << "cell " << i;
        // Bitwise equality, not approximate: determinism is the
        // contract.
        EXPECT_EQ(a.aggregateCost, b.aggregateCost) << "cell " << i;
        EXPECT_EQ(a.lruCost, b.lruCost) << "cell " << i;
        EXPECT_EQ(a.savingsPct, b.savingsPct) << "cell " << i;
    }
}

TEST(SweepRunner, MatchesDirectTraceStudy)
{
    SweepGrid grid;
    grid.scale = WorkloadScale::Test;
    grid.benchmarks = {BenchmarkId::Lu};
    grid.policies = {PolicyKind::Dcl};
    grid.mappings = {CostMapping::Random};
    grid.ratios = {CostRatio::finite(8)};
    grid.hafs = {0.2};

    const SweepResult sweep = SweepRunner(4).run(grid);
    ASSERT_EQ(sweep.cells.size(), 1u);
    const SweepCellResult &res = sweep.cells.front();

    // Replay the same cell by hand through TraceStudy.
    auto workload = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);
    const RandomTwoCost model(CostRatio::finite(8), 0.2,
                              res.cell.mappingHash());
    PolicyParams params;
    params.seed = res.cell.hash();
    const TraceSimResult direct =
        study.run(PolicyKind::Dcl, model, params);

    EXPECT_EQ(res.l2Misses, direct.l2Misses);
    EXPECT_EQ(res.aggregateCost, direct.aggregateCost);
    EXPECT_EQ(res.lruCost, study.lruCost(model));
}

TEST(SweepResult, TableHasOneRowPerCell)
{
    SweepGrid grid;
    grid.scale = WorkloadScale::Test;
    grid.benchmarks = {BenchmarkId::Lu};
    grid.policies = {PolicyKind::Lru, PolicyKind::Dcl};

    const SweepResult sweep = SweepRunner(2).run(grid);
    EXPECT_EQ(sweep.toTable().numRows(), sweep.cells.size());
    EXPECT_EQ(sweep.jobs, 2u);
    EXPECT_GT(sweep.wallSec, 0.0);
    EXPECT_EQ(sweep.timingTable().numRows(), 11u);
}

TEST(SweepResult, FailedJsonWriteIsConfigError)
{
    // A full disk fails the final flush: an error, not a truncated file.
    EXPECT_THROW(SweepResult().writeJson("/dev/full"), ConfigError);
    EXPECT_THROW(SweepResult().writeJson("/nonexistent-dir/s.json"),
                 ConfigError);
}

TEST(CostRatio, OneParserAndShortestLabels)
{
    EXPECT_TRUE(parseCostRatio("inf").infinite);
    EXPECT_TRUE(parseCostRatio("INF").infinite);
    EXPECT_EQ(parseCostRatio("2.5").high, 2.5);
    EXPECT_EQ(parseCostRatio("8").high, 8.0);
    for (const char *bad : {"0", "-3", "banana", "", "nan", "infinity",
                            "1e999", "4x", " 4"})
        EXPECT_THROW(parseCostRatio(bad), ConfigError) << bad;

    EXPECT_EQ(CostRatio::finite(8).label(), "r=8");
    EXPECT_EQ(CostRatio::finite(100000).label(), "r=100000");
    EXPECT_EQ(CostRatio::finite(2.5).label(), "r=2.5");
    EXPECT_EQ(CostRatio::makeInfinite().label(), "r=inf");

    // Two ratios that truncate to one integer stay two columns.
    const auto cells = parseGridSpec("benchmarks=lu;policies=dcl;"
                                     "mappings=first-touch;ratios=2,2.5;"
                                     "scale=test")
                           .expand();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[1].ratio.label(), "r=2.5");
    EXPECT_NE(cells[0].label(), cells[1].label());
    EXPECT_THROW(parseGridSpec("ratios=0"), ConfigError);
}

} // namespace
} // namespace csr
