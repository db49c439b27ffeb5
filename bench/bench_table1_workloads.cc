/**
 * @file
 * Reproduction of Table 1: benchmark characteristics.
 *
 * Paper values (full scale): Barnes 64K bodies / 11.3 MB / 34.2M refs
 * / 44.8% remote; LU 512x512 / 2.0 MB / 12.7M / 19.1%; Ocean 258x258
 * / 15.0 MB / 15.6M / 7.4%; Raytrace car / 32 MB / 14.0M / 29.6%.
 * Our generators run scaled problem sizes; the remote-access fraction
 * is the calibrated quantity (it drives the first-touch cost study).
 *
 * The four traces are built in parallel through the sweep engine's
 * setup phase (--jobs workers).
 */

#include <iostream>

#include "BenchCommon.h"

using namespace csr;

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Table 1: benchmark characteristics", scale);

    const SweepRunner runner(bench::jobsFrom(args));
    const SweepRunner::TraceMap traces =
        runner.buildTraces(paperBenchmarks(), scale);

    TextTable table("Table 1 (measured at this scale; paper remote "
                    "fractions: 44.8 / 19.1 / 7.4 / 29.6 %)");
    table.setHeader({"Benchmark", "# proc", "Mem usage (MB)",
                     "Touched (MB)", "Refs by sampled proc",
                     "Remote access fraction (%)"});

    for (BenchmarkId id : paperBenchmarks()) {
        auto workload = makeWorkload(id, scale);
        const SampledTrace &trace = *traces.at(id);
        table.addRow({
            benchmarkName(id),
            std::to_string(workload->numProcs()),
            TextTable::num(static_cast<double>(workload->memoryBytes()) /
                               (1024.0 * 1024.0), 1),
            TextTable::num(static_cast<double>(trace.touchedBytes) /
                               (1024.0 * 1024.0), 1),
            TextTable::count(trace.sampledRefs),
            TextTable::num(100.0 * trace.remoteAccessFraction, 1),
        });
    }
    table.print(std::cout);
    return 0;
}
