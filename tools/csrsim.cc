/**
 * @file
 * csrsim -- command-line driver for the csr simulators.
 *
 * Three modes:
 *
 *   csrsim trace --benchmark barnes --policy dcl \
 *                [--mapping random|first-touch] [--ratio 8] [--haf 0.3]
 *                [--scale test|small|full] [--assoc 4] [--l2 16384]
 *                [--alias-bits 0] [--depreciation 2.0]
 *                [--procs N] [--refs N] [--seed N] [--validate]
 *                [--save-trace FILE | --load-trace FILE]
 *       Replays a sampled-processor trace (Section 3 study) and
 *       prints hits/misses, aggregate cost and savings over LRU.
 *       --save-trace writes the generated trace as .csrt (key =
 *       block number; the sampled processor's loads/stores are
 *       GET/SET, other processors' writes DEL); --load-trace replays
 *       such a file in place of the generated records, keeping the
 *       first-touch homes of the generated workload.
 *
 *   csrsim numa  --benchmark raytrace --policy dcl \
 *                [--clock 500|1000] [--hints 0|1] [--scale ...]
 *                [--alias-bits 0] [--store-weight 1.0]
 *                [--max-cycles NS] [--stall-window NS] [--validate]
 *       Runs the 16-node CC-NUMA machine (Section 4 study) under LRU
 *       and the chosen policy and prints the execution-time delta.
 *       A hung protocol is converted into SimulationStallError (exit
 *       code 5) carrying a per-node diagnostic snapshot instead of
 *       spinning forever; --max-cycles adds a hard simulated-time
 *       budget on top of the stall watchdog.
 *
 *   csrsim replay --file trace.csrt --policy acl \
 *                [--cache-bytes N] [--assoc N] [--block-bytes N]
 *                [--jobs N] [--max-ops N] [--default-cost NS]
 *                [--read-mode mmap|buffered] [--alias-bits N]
 *                [--depreciation F] [--seed N] [--json FILE]
 *       Replays a recorded KV trace (.csrt, see csrtrace) straight
 *       through CacheModel under any online policy: N replay jobs
 *       plus one decode thread that decodes each block once.  The
 *       summary on stdout is byte-identical for every --jobs value
 *       (the replay partitions by cache set, see replay/Replayer.h);
 *       timing, decode-stage busy time and job wait included, goes
 *       to stderr.
 *
 *   csrsim sweep --grid PRESET|"key=v1,v2;..." \
 *                [--jobs N] [--scale test|small|full] [--csv 0|1]
 *                [--json FILE] [--json-timing 0|1]
 *                [--checkpoint FILE [--resume]] [--retries N]
 *                [--validate]
 *       Expands a declarative policy x workload x cost grid and runs
 *       every cell in parallel on a bounded thread pool (SweepRunner).
 *       Results go to stdout in stable grid order -- they are
 *       bit-identical for any --jobs value -- and the timing summary
 *       goes to stderr so outputs stay diffable.  A preset with a
 *       view (fig3, table2, the ablations; see sweepPresets()) prints
 *       the paper's tables; other grids, and --csv 1, print one row
 *       per cell.  A failing cell is
 *       retried (--retries) and then recorded as a failure while the
 *       rest of the grid completes; a sweep with failures prints a
 *       failure appendix and exits with code 10.  --checkpoint
 *       journals each cell's outcome, one plain-text line per cell
 *       (sim/SweepCheckpoint.h); --resume restores the finished ones
 *       on restart and re-runs the rest, and a killed-and-resumed
 *       sweep's grid output is byte-identical to an uninterrupted run
 *       (pass --json-timing 0 to make the JSON byte-stable too).
 *
 * Every mode also accepts the telemetry flags:
 *
 *   --trace FILE    record the run and export Chrome trace-event JSON
 *                   (open in https://ui.perfetto.dev);
 *   --metrics FILE  dump the run's unified metrics (counters, stats,
 *                   histograms) as JSON.
 *
 * --fault-rate F --fault-seed N seed deterministic failures at the
 * fault-injection probe points (src/robust/FaultInjector.h).
 *
 * Output paths (--trace/--metrics/--json/--checkpoint/--save-trace)
 * are probed for writability *before* the run starts, so a typo'd
 * directory fails in milliseconds rather than after an hour of
 * simulation.
 *
 * Errors map to distinct exit codes (see robust/Errors.h): 0 ok,
 * 2 ConfigError, 3 TraceFormatError, 4 CheckpointError, 5 stall,
 * 6 geometry, 7 invariant violation, 8 injected fault, 10 sweep
 * completed with failed cells.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "cache/CacheGeometry.h"
#include "replay/Replayer.h"
#include "replay/SweepTrace.h"
#include "numa/NumaSystem.h"
#include "robust/Errors.h"
#include "robust/FaultInjector.h"
#include "sim/SweepRunner.h"
#include "sim/TraceStudy.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Tracer.h"
#include "trace/WorkloadFactory.h"
#include "util/CliArgs.h"
#include "util/Logging.h"
#include "util/Table.h"

using namespace csr;

namespace
{

/** Invariant-check cadence installed by --validate (sampled refs for
 *  the trace study, events for the NUMA run). */
constexpr std::uint64_t kValidateCadence = 4096;

/** Probe every output path a mode may write, before it runs. */
void
checkOutputPaths(const CliArgs &args)
{
    ensureWritable(args.tracePath(), "trace");
    ensureWritable(args.metricsPath(), "metrics");
    ensureWritable(args.jsonPath(), "json");
    ensureWritable(args.get("checkpoint", ""), "checkpoint");
    ensureWritable(args.get("save-trace", ""), "save-trace");
}

/** Wire --fault-rate/--fault-seed into the process-global injector. */
void
configureFaultInjection(const CliArgs &args)
{
    const double rate = args.getDouble("fault-rate", 0.0);
    if (rate < 0.0 || rate > 1.0)
        throw ConfigError("--fault-rate must be in [0,1]");
    FaultInjector::instance().configure(rate,
                                        args.getUInt("fault-seed", 1));
}

void
writeMetricsIfRequested(const CliArgs &args, const MetricRegistry &registry)
{
    const std::string path = args.metricsPath();
    if (path.empty())
        return;
    registry.writeJson(path);
    inform("wrote metrics to %s", path.c_str());
}

WorkloadConfig
workloadConfigFromArgs(const CliArgs &args, const std::string &benchmark,
                       bool numa_sized)
{
    WorkloadConfig config;
    config.name = args.get("benchmark", benchmark);
    config.scale = parseWorkloadScale(args.get("scale", "small"));
    config.numaSized = numa_sized;
    config.numProcs =
        static_cast<ProcId>(args.getUInt("procs", 0));
    config.seed = args.seed(0);
    config.targetRefsPerProc = args.getUInt("refs", 0);
    return config;
}

int
runTrace(const CliArgs &args)
{
    const WorkloadConfig wl =
        workloadConfigFromArgs(args, "barnes", /*numa_sized=*/false);
    const BenchmarkId id = parseBenchmark(wl.name);
    const PolicyKind kind = requirePolicyKind(args.get("policy", "dcl"));

    auto workload = makeWorkload(wl);
    SampledTrace trace = buildSampledTrace(*workload, 1);

    if (args.has("load-trace")) {
        trace.records = replay::loadSampledRecords(
            args.get("load-trace", ""), trace.sampledProc,
            trace.blockBytes);
        inform("loaded %zu records (first-touch homes taken from the "
               "generated workload)", trace.records.size());
    }
    if (args.has("save-trace")) {
        replay::saveSampledTrace(args.get("save-trace", ""), trace);
        inform("saved %zu records", trace.records.size());
    }

    TraceSimConfig config;
    config.l2Bytes = args.getUInt("l2", config.l2Bytes);
    config.l2Assoc =
        static_cast<std::uint32_t>(args.getUInt("assoc", config.l2Assoc));
    if (args.has("validate"))
        config.validateEveryRefs = kValidateCadence;
    const TraceStudy study(trace, config);

    PolicyParams params;
    params.etdAliasBits =
        static_cast<unsigned>(args.getUInt("alias-bits", 0));
    params.depreciationFactor = args.getDouble("depreciation", 2.0);

    // The sweep cell of this experiment builds the cost model, so a
    // random mapping draws the cell's costs (a --load-trace file's
    // `traces=` cell's costs).
    SweepCell cell = sourceCell(id, args.get("load-trace", ""), wl.scale);
    cell.mapping = parseCostMapping(args.get("mapping", "first-touch"));
    cell.ratio = parseCostRatio(args.get("ratio", "4"));
    cell.haf = args.getDouble("haf", 0.3);
    const auto model_ptr = makeCellCostModel(cell, trace);
    const CostModel &model = *model_ptr;

    TraceSimResult res;
    double lru_cost = 0.0;
    {
        const telemetry::TraceSession session(args.tracePath());
        res = study.run(kind, model, params);
        lru_cost = study.lruCost(model);
    }

    TextTable table("trace study: " + benchmarkName(id) + " / " +
                    res.policyName + " / " + model.describe());
    table.setHeader({"Metric", "Value"});
    table.addRow({"sampled refs", TextTable::count(res.sampledRefs)});
    table.addRow({"L1 hits", TextTable::count(res.l1Hits)});
    table.addRow({"L2 hits", TextTable::count(res.l2Hits)});
    table.addRow({"L2 misses", TextTable::count(res.l2Misses)});
    table.addRow({"invalidations",
                  TextTable::count(res.invalidationsReceived)});
    table.addRow({"aggregate cost",
                  TextTable::num(res.aggregateCost, 0)});
    table.addRow({"LRU cost", TextTable::num(lru_cost, 0)});
    table.addRow({"savings over LRU (%)",
                  TextTable::num(relativeCostSavings(
                      lru_cost, res.aggregateCost), 2)});
    table.print(std::cout);

    if (res.policyCounters != PolicyCounters{}) {
        TextTable stats("policy counters");
        stats.setHeader({"Counter", "Value"});
        forEachPolicyCounter(
            [&stats](const char *name, std::uint64_t value) {
                stats.addRow({name, TextTable::count(value)});
            },
            res.policyCounters);
        stats.print(std::cout);
    }

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        res.exportMetrics(registry);
        registry.stat("trace.lru_cost").add(lru_cost);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runNuma(const CliArgs &args)
{
    const WorkloadConfig wl =
        workloadConfigFromArgs(args, "raytrace", /*numa_sized=*/true);
    const BenchmarkId id = parseBenchmark(wl.name);
    const PolicyKind kind = requirePolicyKind(args.get("policy", "dcl"));

    NumaConfig config;
    config.cycleNs = args.getUInt("clock", 500) >= 1000 ? 1 : 2;
    config.replacementHints = args.getUInt("hints", 1) != 0;
    config.policyParams.etdAliasBits =
        static_cast<unsigned>(args.getUInt("alias-bits", 0));
    config.storeCostWeight = args.getDouble("store-weight", 1.0);
    config.maxSimNs = args.getUInt("max-cycles", config.maxSimNs);
    config.stallWindowNs =
        args.getUInt("stall-window", config.stallWindowNs);
    if (args.has("validate"))
        config.validateEveryEvents = kValidateCadence;

    auto workload = makeWorkload(wl);

    // Built first, so makePolicy refuses an oracle before LRU runs.
    config.policy = kind;
    NumaSystem sys(config, *workload);
    config.policy = PolicyKind::Lru;
    NumaSystem lru(config, *workload);
    const NumaResult base = lru.run();

    NumaResult res;
    {
        const telemetry::TraceSession session(args.tracePath());
        res = sys.run();
    }

    TextTable table("numa study: " + benchmarkName(id) + " @ " +
                    (config.cycleNs == 1 ? "1GHz" : "500MHz"));
    table.setHeader({"Metric", "LRU", res.policyName});
    table.addRow({"exec time (ms)",
                  TextTable::num(static_cast<double>(base.execTimeNs) /
                                     1e6, 3),
                  TextTable::num(static_cast<double>(res.execTimeNs) /
                                     1e6, 3)});
    table.addRow({"misses", TextTable::count(base.totalMisses),
                  TextTable::count(res.totalMisses)});
    table.addRow({"avg miss latency (ns)",
                  TextTable::num(base.avgMissLatencyNs, 1),
                  TextTable::num(res.avgMissLatencyNs, 1)});
    table.print(std::cout);
    std::cout << "execution time reduction: "
              << TextTable::num(
                     100.0 *
                         (static_cast<double>(base.execTimeNs) -
                          static_cast<double>(res.execTimeNs)) /
                         static_cast<double>(base.execTimeNs),
                     2)
              << "%\n";

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        res.exportMetrics(registry);
        registry.setCounter("numa.lru_exec_time_ns", base.execTimeNs);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runReplay(const CliArgs &args)
{
    const replay::ReplayConfig config =
        replay::ReplayConfig::fromArgs(args);
    replay::ReplayResult result;
    {
        const telemetry::TraceSession session(args.tracePath());
        result = replay::replayTrace(config);
    }

    // Deterministic summary to stdout (CI diffs it across --jobs
    // and against the committed golden, so the title must not leak
    // the invocation directory -- basename only), wall clock to
    // stderr.
    const std::size_t slash = config.path.find_last_of('/');
    const std::string base = slash == std::string::npos
                                 ? config.path
                                 : config.path.substr(slash + 1);
    result
        .summaryTable("replay: " + base + " / " +
                      policyKindName(config.policy))
        .print(std::cout);
    result.timingTable().print(std::cerr);

    if (args.has("json"))
        writeOutputFile(args.jsonPath(), [&](std::ostream &os) {
            result.writeJsonObject(os, policyKindName(config.policy));
            os << "\n";
        });

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        replay::forEachReplayCounter(
            [&registry](const char *, const char *metric,
                        const auto &value) {
                if (metric)
                    registry.setCounter(
                        metric, static_cast<std::uint64_t>(value));
            },
            result.totals);
        registry.setCounter("replay.jobs", result.jobs);
        registry.recordTimerSec("replay.wall", result.wallSec);
        registry.recordTimerSec("replay.decode", result.decodeSec);
        registry.recordTimerSec("replay.wait", result.waitSec);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runSweep(const CliArgs &args)
{
    const std::string spec = args.get("grid", "headline");
    SweepGrid grid = parseGridSpec(spec);
    if (args.has("scale"))
        grid.scale = parseWorkloadScale(args.get("scale", "small"));

    SweepOptions options;
    options.maxAttempts =
        static_cast<unsigned>(args.getUInt("retries", 0)) + 1;
    options.checkpointPath = args.get("checkpoint", "");
    options.resume = args.has("resume");
    if (options.resume && options.checkpointPath.empty())
        throw ConfigError("--resume requires --checkpoint FILE");
    if (args.has("validate"))
        options.validateEveryRefs = kValidateCadence;

    const SweepRunner runner(args.jobs());
    SweepResult result;
    {
        const telemetry::TraceSession session(args.tracePath());
        result = runner.run(grid, options);
    }

    const SweepPreset *preset = findPreset(spec);
    const bool csv = args.getUInt("csv", 0) != 0;
    if (preset && preset->view && !csv) {
        preset->view->print(std::cout, result.cells);
    } else {
        TextTable table = result.toTable(
            "sweep: " + std::to_string(result.cells.size()) + "/" +
            std::to_string(result.gridCells) + " cells");
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);
    }
    if (!result.complete())
        result.failureTable().print(std::cout);

    // Timing to stderr: per-cell results on stdout stay bit-diffable
    // across --jobs values.
    result.timingTable().print(std::cerr);

    if (args.has("json"))
        result.writeJson(args.jsonPath(),
                         args.getUInt("json-timing", 1) != 0);

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        registry.setCounter("sweep.cells", result.cells.size());
        registry.setCounter("sweep.grid_cells", result.gridCells);
        registry.setCounter("sweep.failed_cells",
                            result.failures.size());
        registry.setCounter("sweep.resumed_cells", result.resumedCells);
        registry.setCounter("sweep.jobs", result.jobs);
        registry.recordTimerSec("sweep.wall", result.wallSec);
        registry.recordTimerSec("sweep.setup", result.setupSec);
        for (const SweepCellResult &cell : result.cells) {
            registry.incCounter("sweep.sampled_refs", cell.sampledRefs);
            registry.incCounter("sweep.l2_misses", cell.l2Misses);
            registry.stat("sweep.savings_pct").add(cell.savingsPct);
        }
        writeMetricsIfRequested(args, registry);
    }
    return result.complete() ? exitcode::kOk : exitcode::kSweepPartial;
}

void
usage()
{
    std::cerr
        << "usage: csrsim trace|numa|sweep|replay [--key value ...]\n"
           "  common: --benchmark barnes|lu|ocean|raytrace\n"
           "          --policy " << policyNamesJoined() << "\n"
        << "            (opt, costopt: offline oracles, trace and sweep only)\n"
           "          --scale test|small|full  --alias-bits N\n"
           "          --procs N --refs N --seed N --validate\n"
           "          --trace FILE (Chrome trace JSON, see Perfetto)\n"
           "          --metrics FILE (unified metrics JSON)\n"
           "          --fault-rate F --fault-seed N (fault injection)\n"
           "  trace:  --mapping random|first-touch --ratio R --haf F\n"
           "          --assoc N --l2 BYTES --depreciation F\n"
           "          --save-trace F.csrt --load-trace F.csrt\n"
           "            (GET/SET = sampled load/store, DEL = remote write)\n"
           "  numa:   --clock 500|1000 --hints 0|1 --store-weight W\n"
           "          --max-cycles NS --stall-window NS\n"
           "  replay: --file T.csrt --cache-bytes N --assoc N\n"
           "          --block-bytes N --max-ops N\n"
           "          --jobs N (N replay jobs plus one decode thread)\n"
           "          --default-cost NS --read-mode mmap|buffered\n"
           "          --depreciation F --json FILE\n"
           "  sweep:  --grid PRESET|\"key=v1,v2;...\" --jobs N --csv 0|1\n"
           "          --json FILE --json-timing 0|1\n"
           "          --checkpoint FILE [--resume] --retries N\n"
           "          presets (NAME [view]: SPEC; a view prints the\n"
           "            paper's tables instead of one row per cell):\n";
    for (const SweepPreset &preset : sweepPresets())
        std::cerr << "            " << preset.name
                  << (preset.view ? " [view]: " : ": ") << preset.spec
                  << "\n";
    std::cerr
        << "          keys: benchmarks policies mappings ratios hafs\n"
           "            l2 assocs alias-bits depreciations scale\n"
           "            traces (.csrt files; replaces benchmarks;\n"
           "              random mapping only)\n"
           "  exit codes: 0 ok, 2 config, 3 trace format, 4 checkpoint,\n"
           "    5 stall, 6 geometry, 7 invariant, 8 injected fault,\n"
           "    10 sweep finished with failed cells\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return exitcode::kGeneric;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
        usage();
        return exitcode::kOk;
    }
    try {
        const CliArgs args(argc, argv, /*first=*/2,
                           /*valueless=*/{"resume", "validate"});
        if (args.helpRequested()) {
            usage();
            return exitcode::kOk;
        }
        checkOutputPaths(args);
        configureFaultInjection(args);
        if (mode == "trace")
            return runTrace(args);
        if (mode == "numa")
            return runNuma(args);
        if (mode == "sweep")
            return runSweep(args);
        if (mode == "replay")
            return runReplay(args);
    } catch (const Error &e) {
        std::cerr << "csrsim: " << e.kind() << ": " << e.what() << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "csrsim: " << e.what() << "\n";
        return exitcode::kGeneric;
    }
    usage();
    return exitcode::kGeneric;
}
