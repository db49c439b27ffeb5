/**
 * @file
 * The repo benchmark's program (run it through perfbench/run.py):
 *
 *   perfbench --workload wire_hot|serve_churn|replay_costmix
 *             --seed N --seconds S --trace 0|1
 *             [--trace-file PATH] [--work-dir DIR]
 *
 * --trace 0 measures the end-to-end metrics with no tracing at all;
 * --trace 1 is the separate traced run that reports the per-layer
 * metrics and writes its spans to --trace-file as Chrome trace-event
 * JSON.  Every run checks the program's outputs.  The metrics are
 * printed one per line with their units, and the last line of stdout
 * is the result object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Exit status: 0 when every check passed, 1 when one failed, 2 on bad
 * arguments, 3 when the run itself broke (no result line then).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "Common.h"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "wire_hot|serve_churn|replay_costmix --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH] "
                 "[--work-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUInt(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-')
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = parseUInt(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUInt(flag, value));
            if (o.seconds < 1 || o.seconds > 120)
                usage("--seconds must be in [1, 120]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--trace-file") {
            o.traceFile = value;
        } else if (flag == "--work-dir") {
            o.workDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return o;
}

/** All digits of a measured value (JSON has no NaN/inf: callers
 *  check finiteness first). */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    void (*run)(const Options &, Report &, SpanLog &) = nullptr;
    if (options.workload == "wire_hot")
        run = runWireHot;
    else if (options.workload == "serve_churn")
        run = runServeChurn;
    else if (options.workload == "replay_costmix")
        run = runReplayCostmix;
    else
        usage("unknown workload '" + options.workload +
              "' (valid: wire_hot serve_churn replay_costmix)");

    Report report;
    SpanLog log;
    const std::string histogram_problem = histogramSelfCheck();
    report.check(histogram_problem.empty(), histogram_problem);
    try {
        run(options, report, log);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " failed: " << e.what() << "\n";
        return 3;
    }
    if (options.trace && !options.traceFile.empty())
        report.check(log.writeChromeTrace(options.traceFile),
                     "cannot write the trace to " + options.traceFile);

    for (const std::string &note : report.notes)
        std::printf("# %s\n", note.c_str());
    std::string metrics;
    for (const MetricSpec &spec : metricSpecs()) {
        if (spec.perLayer != options.trace)
            continue;
        const auto it = report.values.find(spec.name);
        // Per-layer metrics of a layer a workload does not use read 0.
        double value = 0.0;
        if (it != report.values.end())
            value = it->second;
        else
            report.check(spec.perLayer, std::string("metric ") + spec.name +
                                            " was not measured");
        if (!std::isfinite(value)) {
            report.check(false, std::string("metric ") + spec.name +
                                    " is not a finite number");
            value = 0.0;
        }
        std::printf("%-32s %24.6f %s\n", spec.name, value, spec.unit);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   spec.name + "\": {\"value\": " + number(value) +
                   ", \"unit\": \"" + spec.unit + "\"}";
    }
    const double failed_frac =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    std::printf("%-32s %24.6f %s\n", "failed_frac", failed_frac, "ratio");
    for (const std::string &v : report.violations)
        std::cerr << "perfbench: CHECK FAILED: " << v << "\n";

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metrics.c_str());
    return correct ? 0 : 1;
}
