/**
 * @file
 * Shared plumbing for the reproduction benches.
 *
 * Every bench binary regenerates one of the paper's tables or
 * figures that is not a `csrsim sweep` preset.  All of them parse the
 * shared flag grammar through benchArgs(): --scale test|small|full
 * selects the problem scale ("test" seconds/sanity, "small" the
 * calibrated default of EXPERIMENTS.md, "full" closest to the paper's
 * trace lengths), and the common flags (--jobs, --seed, --json,
 * --metrics) mean the same thing as in csrsim.
 */

#ifndef CSR_BENCH_BENCHCOMMON_H
#define CSR_BENCH_BENCHCOMMON_H

#include <cstdlib>
#include <functional>
#include <iostream>
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
              << "### scale=" << workloadScaleName(scale)
              << "  (--scale test|small|full)\n\n";
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

/** --scale (default small); an unknown name exits like benchArgs. */
inline WorkloadScale
scaleFrom(const CliArgs &args)
{
    try {
        return parseWorkloadScale(args.get("scale", "small"));
    } catch (const Error &e) {
        std::cerr << e.kind() << ": " << e.what() << "\n";
        std::exit(e.exitCode());
    }
}

/** --jobs (0 or absent = one per hardware thread). */
inline unsigned
jobsFrom(const CliArgs &args)
{
    const unsigned jobs = args.jobs();
    return jobs ? jobs : ThreadPool::defaultThreads();
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

/** writeOutputFile(@p path, @p write) with a stderr note naming
 *  @p what; a failed write exits like benchArgs. */
inline void
writeBenchFile(const std::string &path, const char *what,
               const std::function<void(std::ostream &)> &write)
{
    try {
        writeOutputFile(path, write);
    } catch (const Error &e) {
        std::cerr << e.kind() << ": " << e.what() << "\n";
        std::exit(e.exitCode());
    }
    std::cerr << "### wrote " << what << " to " << path << "\n";
}

/** Write @p registry as unified metrics JSON when @p path is set
 *  (the benches' --metrics flag), with a stderr note. */
inline void
maybeWriteMetrics(const MetricRegistry &registry, const std::string &path)
{
    if (path.empty() || registry.empty())
        return;
    writeBenchFile(path, "metrics",
                   [&](std::ostream &os) { registry.writeJson(os); });
}

} // namespace csr::bench

#endif // CSR_BENCH_BENCHCOMMON_H
