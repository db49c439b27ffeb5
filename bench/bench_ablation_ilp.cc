/**
 * @file
 * Ablation D: processor memory-level parallelism.
 *
 * The execution-time benefit of latency-sensitive replacement depends
 * on how much miss latency the core can hide.  Sweeps the MSHR count
 * and the store-buffer depth for the DCL policy (500 MHz, Raytrace
 * and Ocean) to expose the regimes: a fully serialized core converts
 * aggregate-latency savings directly into time; a deeply overlapped
 * one hides them.
 *
 * Each (benchmark, MLP point) is an independent pair of NUMA
 * simulations, fanned out across a ThreadPool (--jobs workers);
 * every task builds its own deterministic workload, so results do not
 * depend on the worker count.
 */

#include <future>
#include <iostream>
#include <vector>

#include "BenchCommon.h"
#include "numa/NumaSystem.h"

using namespace csr;

namespace
{

struct IlpPoint
{
    std::uint32_t mshrs;
    std::uint32_t storeBuffer;
};

/** DCL's execution-time reduction over LRU at one MLP point. */
double
timeReductionPct(BenchmarkId id, WorkloadScale scale,
                 const IlpPoint &point)
{
    NumaConfig config;
    config.cycleNs = 2;
    config.mshrs = point.mshrs;
    config.storeBufferDepth = point.storeBuffer;

    config.policy = PolicyKind::Lru;
    auto lru_workload = makeWorkload(id, scale, /*numa_sized=*/true);
    NumaSystem lru(config, *lru_workload);
    const Tick lru_time = lru.run().execTimeNs;

    config.policy = PolicyKind::Dcl;
    auto dcl_workload = makeWorkload(id, scale, /*numa_sized=*/true);
    NumaSystem dcl(config, *dcl_workload);
    const Tick dcl_time = dcl.run().execTimeNs;

    return 100.0 *
           (static_cast<double>(lru_time) -
            static_cast<double>(dcl_time)) /
           static_cast<double>(lru_time);
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Ablation: MLP vs execution-time savings (DCL, "
                  "500MHz)", scale);

    const std::vector<IlpPoint> points = {
        {1, 1}, {4, 1}, {8, 1}, {8, 8},
    };
    const std::vector<BenchmarkId> benchmarks = {
        BenchmarkId::Raytrace, BenchmarkId::Ocean,
    };

    ThreadPool pool(bench::jobsFrom(args));
    std::vector<std::future<double>> futures;
    for (BenchmarkId id : benchmarks) {
        for (const IlpPoint &point : points) {
            futures.push_back(pool.submit([id, scale, point] {
                return timeReductionPct(id, scale, point);
            }));
        }
    }

    TextTable table("DCL execution-time reduction over LRU (%)");
    std::vector<std::string> header = {"Benchmark"};
    for (const IlpPoint &point : points)
        header.push_back("mshr=" + std::to_string(point.mshrs) +
                         ",sb=" + std::to_string(point.storeBuffer));
    table.setHeader(header);

    std::size_t next = 0;
    for (BenchmarkId id : benchmarks) {
        std::vector<std::string> row = {benchmarkName(id)};
        for (std::size_t i = 0; i < points.size(); ++i)
            row.push_back(TextTable::num(futures[next++].get(), 2));
        table.addRow(row);
    }
    table.print(std::cout);
    return 0;
}
