/**
 * @file
 * Shared plumbing for the reproduction benches.
 *
 * Every bench binary regenerates one of the paper's tables or
 * figures.  All of them parse the shared flag grammar through
 * benchArgs(): --scale test|small|full selects the problem scale
 * ("test" seconds/sanity, "small" the calibrated default of
 * EXPERIMENTS.md, "full" closest to the paper's trace lengths), and
 * the common flags (--jobs, --seed, --json, --metrics) mean the same
 * thing as in csrsim.  The historical CSR_SCALE / CSR_JOBS
 * environment variables remain as fallbacks when the flags are
 * absent.
 */

#ifndef CSR_BENCH_BENCHCOMMON_H
#define CSR_BENCH_BENCHCOMMON_H

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "robust/Errors.h"
#include "sim/SweepRunner.h"
#include "telemetry/MetricRegistry.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "util/CliArgs.h"
#include "util/Stats.h"
#include "util/Table.h"
#include "util/ThreadPool.h"

namespace csr::bench
{

/** Scale from $CSR_SCALE (test|small|full), default small. */
inline WorkloadScale
scaleFromEnv()
{
    const char *env = std::getenv("CSR_SCALE");
    if (!env)
        return WorkloadScale::Small;
    const std::string s(env);
    if (s == "test")
        return WorkloadScale::Test;
    if (s == "full")
        return WorkloadScale::Full;
    return WorkloadScale::Small;
}

inline const char *
scaleName(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return "test";
      case WorkloadScale::Small:
        return "small";
      case WorkloadScale::Full:
        return "full";
    }
    return "?";
}

/** Build the sampled trace of a benchmark (the paper samples one
 *  slave process; we sample processor 1). */
inline SampledTrace
sampledTrace(BenchmarkId id, WorkloadScale scale)
{
    auto workload = makeWorkload(id, scale);
    return buildSampledTrace(*workload, /*sampled=*/1);
}

/** Standard bench banner. */
inline void
banner(const std::string &what, WorkloadScale scale)
{
    std::cout << "### " << what << "\n"
              << "### scale=" << scaleName(scale)
              << "  (--scale test|small|full, or CSR_SCALE)\n\n";
}

/** Worker count from $CSR_JOBS (default: one per hardware thread). */
inline unsigned
jobsFromEnv()
{
    const char *env = std::getenv("CSR_JOBS");
    if (!env)
        return ThreadPool::defaultThreads();
    const long jobs = std::strtol(env, nullptr, 10);
    return jobs > 0 ? static_cast<unsigned>(jobs) : 1;
}

/**
 * Parse a bench binary's command line: the common flags plus --scale
 * and any bench-specific keys in @p extra_known.  --help prints the
 * shared usage and exits; a bad flag prints its diagnostic and exits
 * with the ConfigError code instead of throwing through main.
 */
inline CliArgs
benchArgs(int argc, char **argv,
          const std::vector<std::string> &extra_known = {})
{
    try {
        const CliArgs args(argc, argv);
        if (args.helpRequested()) {
            std::cout << "usage: " << argv[0]
                      << " [--scale test|small|full] [--jobs N]\n"
                         "  plus the common flags: --seed N "
                         "--json FILE --metrics FILE\n";
            std::exit(exitcode::kOk);
        }
        std::vector<std::string> known = {"scale"};
        known.insert(known.end(), extra_known.begin(),
                     extra_known.end());
        args.requireKnown(known);
        return args;
    } catch (const Error &e) {
        std::cerr << e.kind() << ": " << e.what() << "\n";
        std::exit(e.exitCode());
    }
}

/** --scale, falling back to $CSR_SCALE when the flag is absent. */
inline WorkloadScale
scaleFrom(const CliArgs &args)
{
    if (!args.has("scale"))
        return scaleFromEnv();
    const std::string name = args.get("scale", "small");
    if (name == "test")
        return WorkloadScale::Test;
    if (name == "small")
        return WorkloadScale::Small;
    if (name == "full")
        return WorkloadScale::Full;
    std::cerr << "ConfigError: --scale '" << name
              << "' must be test|small|full\n";
    std::exit(exitcode::kConfig);
}

/** --jobs, falling back to $CSR_JOBS (0 = one per hardware thread). */
inline unsigned
jobsFrom(const CliArgs &args)
{
    const unsigned jobs = args.jobs(/*env_fallback=*/true);
    return jobs ? jobs : ThreadPool::defaultThreads();
}

/**
 * The shared sweep harness: stamp the bench scale onto @p grid, run
 * it on $CSR_JOBS workers and hand the results back for pivoting.
 */
inline SweepResult
runSweep(SweepGrid grid)
{
    grid.scale = scaleFromEnv();
    const SweepRunner runner(jobsFromEnv());
    return runner.run(grid);
}

/** Same, with the scale and worker count taken from the flags. */
inline SweepResult
runSweep(SweepGrid grid, const CliArgs &args)
{
    grid.scale = scaleFrom(args);
    const SweepRunner runner(jobsFrom(args));
    return runner.run(grid);
}

/** Cells of @p result matching a predicate, in grid order. */
inline std::vector<SweepCellResult>
filterCells(const SweepResult &result,
            const std::function<bool(const SweepCellResult &)> &keep)
{
    std::vector<SweepCellResult> out;
    for (const SweepCellResult &cell : result.cells)
        if (keep(cell))
            out.push_back(cell);
    return out;
}

/**
 * Pivot sweep cells into a rows x columns table.  Row and column keys
 * appear in first-encounter order, which matches the grid's stable
 * expansion order, so benches print the same layout the serial loops
 * used to.
 */
inline TextTable
pivot(const std::string &title, const std::string &corner,
      const std::vector<SweepCellResult> &cells,
      const std::function<std::string(const SweepCellResult &)> &row_of,
      const std::function<std::string(const SweepCellResult &)> &col_of,
      const std::function<std::string(const SweepCellResult &)> &value_of)
{
    std::vector<std::string> row_keys, col_keys;
    std::map<std::pair<std::string, std::string>, std::string> values;
    for (const SweepCellResult &cell : cells) {
        const std::string row = row_of(cell);
        const std::string col = col_of(cell);
        if (std::find(row_keys.begin(), row_keys.end(), row) ==
            row_keys.end())
            row_keys.push_back(row);
        if (std::find(col_keys.begin(), col_keys.end(), col) ==
            col_keys.end())
            col_keys.push_back(col);
        values[{row, col}] = value_of(cell);
    }

    TextTable table(title);
    std::vector<std::string> header = {corner};
    header.insert(header.end(), col_keys.begin(), col_keys.end());
    table.setHeader(header);
    for (const std::string &row : row_keys) {
        std::vector<std::string> cells_out = {row};
        for (const std::string &col : col_keys) {
            auto it = values.find({row, col});
            cells_out.push_back(it == values.end() ? "-" : it->second);
        }
        table.addRow(cells_out);
    }
    return table;
}

/** The standard pivot value: relative cost savings over LRU. */
inline std::string
savingsOf(const SweepCellResult &cell)
{
    return TextTable::num(cell.savingsPct, 2);
}

/**
 * Percentile summary of latency histograms, one row per series.
 * Benches that run the NUMA machine print this next to their
 * execution-time tables so the latency *distribution* behind each
 * mean is visible (the same data --metrics exports as JSON).
 */
inline TextTable
latencyHistogramTable(
    const std::string &title,
    const std::vector<std::pair<std::string, const Histogram *>> &rows)
{
    TextTable table(title);
    table.setHeader({"Series", "Samples", "p50 (ns)", "p90 (ns)",
                     "p99 (ns)"});
    for (const auto &[label, hist] : rows) {
        table.addRow({label, TextTable::count(hist->totalCount()),
                      TextTable::num(hist->percentile(0.50), 1),
                      TextTable::num(hist->percentile(0.90), 1),
                      TextTable::num(hist->percentile(0.99), 1)});
    }
    return table;
}

/** Write @p registry as unified metrics JSON when @p path is set
 *  (the benches' --metrics flag), with a stderr note. */
inline void
maybeWriteMetrics(const MetricRegistry &registry, const std::string &path)
{
    if (path.empty() || registry.empty())
        return;
    registry.writeJson(path);
    std::cerr << "### wrote metrics to " << path << "\n";
}

/** Footer making the parallel harness observable (goes to stderr so
 *  table output stays diffable across $CSR_JOBS values). */
inline void
printSweepTiming(const SweepResult &result)
{
    std::cerr << "### sweep: " << result.cells.size() << " cells on "
              << result.jobs << " jobs in "
              << TextTable::num(result.wallSec, 2) << "s (task total "
              << TextTable::num(result.taskSecTotal, 2) << "s, speedup "
              << TextTable::num(result.wallSec > 0.0
                                    ? result.taskSecTotal /
                                          result.wallSec
                                    : 0.0, 2)
              << "x, set CSR_JOBS=N)\n";
}

} // namespace csr::bench

#endif // CSR_BENCH_BENCHCOMMON_H
