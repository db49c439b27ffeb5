/**
 * @file
 * Construction of the four paper benchmarks at several scales.
 */

#ifndef CSR_TRACE_WORKLOADFACTORY_H
#define CSR_TRACE_WORKLOADFACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "trace/Workload.h"

namespace csr
{

/** Benchmark selector.  (WorkloadScale and WorkloadConfig live in
 *  trace/Workload.h so the *Workload ctors can consume them.) */
enum class BenchmarkId
{
    Barnes,
    Lu,
    Ocean,
    Raytrace,
};

/** The four paper benchmarks in Table 1 order. */
const std::vector<BenchmarkId> &paperBenchmarks();

/** Display name ("Barnes", "LU", "Ocean", "Raytrace"). */
std::string benchmarkName(BenchmarkId id);

/** Parse a benchmark name (case-insensitive); throws ConfigError
 *  naming the valid ones on unknown names. */
BenchmarkId parseBenchmark(const std::string &name);

/** "test", "small" or "full". */
const char *workloadScaleName(WorkloadScale scale);

/** Parse a scale name (case-insensitive); throws ConfigError naming
 *  the valid values on unknown names. */
WorkloadScale parseWorkloadScale(const std::string &name);

/**
 * Build a benchmark from the unified config: config.name selects the
 * benchmark (fatal on unknown), config.scale / config.numaSized pick
 * the problem-size preset (the NUMA study uses smaller problems than
 * the trace study, Section 4.2), and the nonzero override fields
 * (numProcs, seed, targetRefsPerProc) replace the preset's values.
 */
std::unique_ptr<SyntheticWorkload> makeWorkload(
    const WorkloadConfig &config);

/** Shorthand for the common (benchmark, scale) case. */
std::unique_ptr<SyntheticWorkload> makeWorkload(BenchmarkId id,
                                                WorkloadScale scale,
                                                bool numa_sized = false);

} // namespace csr

#endif // CSR_TRACE_WORKLOADFACTORY_H
