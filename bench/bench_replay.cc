/**
 * @file
 * Trace-replay throughput: decode + replay of a recorded .csrt
 * stream straight through CacheModel, per policy.
 *
 * The fixture trace is recorded in-process from the deterministic
 * Zipfian KeyGenerator (the same stream `csrtrace record` captures),
 * so the bench needs no external file and the deterministic counters
 * -- hits, misses, evictions, aggregate miss cost -- are pure
 * functions of (seed, scale, policy) that check_bench.py gates
 * against bench/baselines/BENCH_replay.json.  Throughput (ops/min,
 * in the "timing" block CI skips) is the headline number: the
 * acceptance floor for the replay engine is 100M ops/min in Release,
 * asserted in CI via --min-ops-per-min.
 *
 * A second run replays the fixture with ACL at --jobs 1 and --jobs 4
 * and writes the ratio of their CPU time per op ("scaling"): one
 * decode stage feeds every job, so added jobs should cost little CPU
 * beyond their own replay work.  The ratio is machine-independent and
 * gated; the two wall times sit in its "timing" block.
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "replay/Replayer.h"
#include "replay/TraceWriter.h"
#include "serve/KeyGenerator.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::replay;

namespace
{

std::uint64_t
opsForScale(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return 500'000;
      case WorkloadScale::Small:
        return 5'000'000;
      case WorkloadScale::Full:
        return 20'000'000;
    }
    return 5'000'000;
}

/** Record the fixture trace: Zipfian keys over a keyspace well above
 *  cache capacity, 20% writes, 1us spacing.  15% of keys live on a
 *  16x slower tier (same shape as SyntheticBackend's bimodal
 *  latency), carried as per-record cost hints -- with uniform costs
 *  the cost-sensitive policies degenerate to LRU by design and the
 *  bench would measure nothing but decode speed. */
std::string
recordFixture(std::uint64_t ops, std::uint64_t seed)
{
    serve::WorkloadMix mix;
    mix.numKeys = 1 << 18;
    mix.writeFraction = 0.2;
    serve::KeyGenerator gen(mix, seed);

    const std::string path = "bench_replay_fixture.csrt";
    TraceWriter writer(path);
    for (std::uint64_t i = 0; i < ops; ++i) {
        const serve::Op op = gen.next();
        ReplayRecord rec;
        rec.tsNs = i * 1000;
        rec.key = op.key;
        rec.op = op.write ? TraceOp::Set : TraceOp::Get;
        rec.valueSize = 8;
        const bool slow = hashMix64(op.key ^ seed) % 100 < 15;
        rec.costHint = slow ? 32'000 : 2'000;
        writer.append(rec);
    }
    writer.finish();
    return path;
}

/** The CPU time, across all threads, of this process so far. */
double
processCpuSec()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** ACL replayed at --jobs 1 and --jobs 4: medians of wall and process
 *  CPU seconds over kRounds alternating rounds. */
struct JobsScaling
{
    static constexpr unsigned kJobs[2] = {1, 4};
    static constexpr int kRounds = 15;
    double wallSec[2] = {};
    double cpuSec[2] = {};

    /** CPU per op at --jobs 4 over that at --jobs 1 (same ops). */
    double cpuRatio() const { return cpuSec[1] / cpuSec[0]; }
};

JobsScaling
measureJobsScaling(ReplayConfig config)
{
    config.policy = PolicyKind::Acl;
    std::vector<double> wall[2];
    std::vector<double> cpu[2];
    for (int round = 0; round < JobsScaling::kRounds; ++round) {
        for (int k = 0; k < 2; ++k) {
            config.jobs = JobsScaling::kJobs[k];
            const double cpu0 = processCpuSec();
            const ReplayResult result = replayTrace(config);
            cpu[k].push_back(processCpuSec() - cpu0);
            wall[k].push_back(result.wallSec);
        }
    }
    JobsScaling scaling;
    for (int k = 0; k < 2; ++k) {
        scaling.wallSec[k] = median(wall[k]);
        scaling.cpuSec[k] = median(cpu[k]);
    }
    return scaling;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(
        argc, argv, {"ops", "cache-bytes", "min-ops-per-min"});
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Trace replay: decode+replay throughput by policy "
                  "(recorded Zipfian .csrt)", scale);

    const std::uint64_t ops =
        args.getUInt("ops", opsForScale(scale));
    const std::uint64_t seed = args.seed(7);
    const double min_ops_per_min =
        args.getDouble("min-ops-per-min", 0.0);

    std::cerr << "### recording " << ops << "-op fixture trace...\n";
    const std::string path = recordFixture(ops, seed);

    ReplayConfig config;
    config.path = path;
    config.cacheBytes = args.getUInt("cache-bytes", 1 << 20);
    config.jobs = bench::jobsFrom(args);

    const std::vector<PolicyKind> policies = {
        PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
        PolicyKind::Dcl, PolicyKind::Acl,
    };

    TextTable table("replay of " + std::to_string(ops) +
                    " ops, cache " +
                    std::to_string(config.cacheBytes / 1024) + " KiB");
    table.setHeader({"Policy", "Hit %", "Misses", "Miss cost (ms)",
                     "Evictions", "Mops/min"});

    struct PolicyRun
    {
        std::string name;
        ReplayResult result;
    };
    std::vector<PolicyRun> runs;
    bool floor_ok = true;

    for (PolicyKind kind : policies) {
        config.policy = kind;
        config.policyParams.seed = seed;
        const ReplayResult result = replayTrace(config);
        const std::string name = policyKindName(kind);
        table.addRow({
            name,
            TextTable::num(result.totals.hitRatio() * 100.0),
            TextTable::count(result.totals.misses),
            TextTable::num(result.totals.missCostNs / 1e6, 3),
            TextTable::count(result.totals.evictions),
            TextTable::num(result.opsPerMin() / 1e6, 1),
        });
        if (min_ops_per_min > 0.0 &&
            result.opsPerMin() < min_ops_per_min) {
            std::cerr << "### FAIL: " << name << " replayed at "
                      << TextTable::num(result.opsPerMin(), 0)
                      << " ops/min, below the --min-ops-per-min "
                      << TextTable::num(min_ops_per_min, 0)
                      << " floor\n";
            floor_ok = false;
        }
        runs.push_back({name, result});
    }
    table.print(std::cout);

    const JobsScaling scaling = measureJobsScaling(config);
    TextTable scaling_table("ACL replay, --jobs 1 vs --jobs 4 (median of " +
                            std::to_string(JobsScaling::kRounds) +
                            " rounds)");
    scaling_table.setHeader({"Jobs", "Wall s", "CPU s", "CPU/op vs 1 job"});
    for (int k = 0; k < 2; ++k)
        scaling_table.addRow({
            std::to_string(JobsScaling::kJobs[k]),
            TextTable::num(scaling.wallSec[k], 4),
            TextTable::num(scaling.cpuSec[k], 4),
            TextTable::num(scaling.cpuSec[k] / scaling.cpuSec[0], 3),
        });
    scaling_table.print(std::cout);

    const std::string json_path =
        args.has("json") ? args.jsonPath() : "BENCH_replay.json";
    bench::writeBenchFile(json_path, "JSON", [&](std::ostream &os) {
        os << "{\n  \"ops\": " << ops << ",\n  \"cacheBytes\": "
           << config.cacheBytes << ",\n  \"policies\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            os << "    ";
            runs[i].result.writeJsonObject(os, runs[i].name,
                                           /*indent=*/4);
            os << (i + 1 < runs.size() ? ",\n" : "\n");
        }
        // check_bench gates the CPU ratio and skips "timing".
        os << "  ],\n  \"scaling\": {\n    \"policy\": \"ACL\",\n"
           << "    \"cpuPerOpJobs4OverJobs1\": "
           << TextTable::numFull(scaling.cpuRatio()) << ",\n"
           << "    \"timing\": {\n      \"wallSecJobs1\": "
           << TextTable::numFull(scaling.wallSec[0])
           << ",\n      \"wallSecJobs4\": "
           << TextTable::numFull(scaling.wallSec[1]) << "\n    }\n  }\n}\n";
    });

    if (!args.metricsPath().empty()) {
        MetricRegistry metrics;
        for (const PolicyRun &run : runs) {
            metrics.incCounter("replay.misses." + run.name,
                               run.result.totals.misses);
            metrics.stat("replay.ops_per_min." + run.name)
                .add(run.result.opsPerMin());
        }
        bench::maybeWriteMetrics(metrics, args.metricsPath());
    }

    std::remove(path.c_str());
    return floor_ok ? 0 : 1;
}
