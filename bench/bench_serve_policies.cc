/**
 * @file
 * Serving-layer policy comparison: the paper's replacement policies
 * driving the online csr::serve cache against a bimodal-latency
 * backend.
 *
 * Each policy serves the same deterministic Zipfian op stream from
 * the same seed on a fresh CacheService; the figure of merit is the
 * *aggregate miss cost* (sum of measured backend fetch latencies),
 * the online analogue of the paper's cost metric.  Cost-sensitive
 * policies (GD/BCL/DCL/ACL) trade a little hit ratio for misses that
 * are cheap to refetch, so they beat LRU on cost while losing on raw
 * hit counts -- the same trade the trace studies show offline.
 *
 * Also reports wall-clock throughput and op-latency percentiles per
 * policy, and dumps everything as one JSON document with --json
 * (BENCH_serve.json by default) for CI to archive.
 */

#include <iostream>
#include <vector>

#include "BenchCommon.h"
#include "serve/CacheService.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"

using namespace csr;
using namespace csr::serve;

namespace
{

std::uint64_t
opsForScale(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return 60'000;
      case WorkloadScale::Small:
        return 400'000;
      case WorkloadScale::Full:
        return 4'000'000;
    }
    return 400'000;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args =
        bench::benchArgs(argc, argv, {"ops", "keys", "workers"});
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Serving mode: online miss cost by policy "
                  "(Zipfian keys, bimodal backend)", scale);

    // The pressure point: keyspace well above cache capacity, 15% of
    // keys on a 16x slower backend tier.  Cost-sensitive policies
    // can then buy cost savings with slightly worse hit ratios.
    ServeConfig serve_config;
    serve_config.shards = 4;
    serve_config.shardBytes = 64 * 1024;
    serve_config.policyParams.seed = args.seed(7);

    SyntheticBackendConfig backend_config;
    backend_config.seed = args.seed(7);
    backend_config.slowFraction = 0.15;
    backend_config.slowNs = 32'000.0;

    HarnessConfig harness_config;
    harness_config.ops = args.getUInt("ops", opsForScale(scale));
    harness_config.workers =
        static_cast<unsigned>(args.getUInt("workers", 4));
    harness_config.seed = args.seed(7);
    harness_config.mix.numKeys = args.getUInt("keys", 1 << 18);

    const std::vector<PolicyKind> policies = {
        PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
        PolicyKind::Dcl, PolicyKind::Acl,
    };

    TextTable table("aggregate miss cost by policy, " +
                    harness_config.mix.describe());
    table.setHeader({"Policy", "Hit %", "Misses", "Miss cost (ms)",
                     "vs LRU (%)", "QPS", "p50 (us)", "p90 (us)",
                     "p99 (us)"});

    struct PolicyRun
    {
        std::string name;
        HarnessResult result;
    };
    std::vector<PolicyRun> runs;
    double lru_cost_ns = 0.0;

    for (PolicyKind kind : policies) {
        ServeConfig config = serve_config;
        config.policy = kind;
        SyntheticBackend backend(backend_config);
        CacheService service(config, backend);
        HarnessResult result = runLoad(service, harness_config);
        if (kind == PolicyKind::Lru)
            lru_cost_ns = result.totals.missCostNs;
        const double savings =
            lru_cost_ns > 0.0
                ? 100.0 * (lru_cost_ns - result.totals.missCostNs) /
                      lru_cost_ns
                : 0.0;
        table.addRow({
            service.policyName(),
            TextTable::num(result.totals.hitRatio() * 100.0),
            TextTable::count(result.totals.misses),
            TextTable::num(result.totals.missCostNs / 1e6, 3),
            TextTable::num(savings),
            TextTable::num(result.qps, 0),
            TextTable::num(result.opLatencyNs.percentile(0.50) / 1e3),
            TextTable::num(result.opLatencyNs.percentile(0.90) / 1e3),
            TextTable::num(result.opLatencyNs.percentile(0.99) / 1e3),
        });
        runs.push_back({service.policyName(), std::move(result)});
    }
    table.print(std::cout);
    std::cout << "(positive 'vs LRU' = the policy refetches cheaper "
                 "misses than LRU at the same capacity)\n";

    const std::string json_path =
        args.has("json") ? args.jsonPath() : "BENCH_serve.json";
    bench::writeBenchFile(json_path, "JSON", [&](std::ostream &os) {
        os << "{\n  \"ops\": " << harness_config.ops
           << ",\n  \"workload\": \"" << harness_config.mix.describe()
           << "\",\n  \"lruMissCostNs\": " << lru_cost_ns
           << ",\n  \"policies\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            os << "    ";
            runs[i].result.writeJsonObject(
                os, runs[i].name, harness_config.mix.describe(),
                /*indent=*/4);
            os << (i + 1 < runs.size() ? ",\n" : "\n");
        }
        os << "  ]\n}\n";
    });

    if (!args.metricsPath().empty()) {
        MetricRegistry metrics;
        for (const PolicyRun &run : runs) {
            metrics.stat("serve.miss_cost_ns." + run.name)
                .add(run.result.totals.missCostNs);
            metrics.mergeHistogram("serve.op_latency_ns." + run.name,
                                   run.result.opLatencyNs);
        }
        bench::maybeWriteMetrics(metrics, args.metricsPath());
    }
    return 0;
}
