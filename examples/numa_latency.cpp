/**
 * @file
 * Example: latency-sensitive replacement on the CC-NUMA simulator.
 *
 * Runs one SPLASH-2-like benchmark on the 16-node machine of Table 4
 * twice -- under LRU and under a chosen cost-sensitive policy -- and
 * reports execution time, miss statistics and the behaviour of the
 * last-latency predictor.
 *
 *   $ ./examples/numa_latency [benchmark=raytrace] [policy=dcl]
 */

#include <iostream>

#include "numa/NumaSystem.h"
#include "robust/Errors.h"
#include "trace/WorkloadFactory.h"
#include "util/Table.h"

using namespace csr;

namespace
{

NumaResult
runOnce(const SyntheticWorkload &workload, PolicyKind kind)
{
    NumaConfig config;
    config.cycleNs = 2; // 500 MHz
    config.policy = kind;
    NumaSystem sys(config, workload);
    return sys.run();
}

} // namespace

int
main(int argc, char **argv)
try {
    const BenchmarkId id = parseBenchmark(argc > 1 ? argv[1] : "raytrace");
    const PolicyKind kind = requirePolicyKind(argc > 2 ? argv[2] : "dcl");

    auto workload = makeWorkload(id, WorkloadScale::Small,
                                 /*numa_sized=*/true);
    std::cout << "benchmark: " << benchmarkName(id) << ", "
              << workload->numProcs() << " processors, "
              << workload->memoryBytes() / 1024 << " KB shared data\n\n";

    const NumaResult lru = runOnce(*workload, PolicyKind::Lru);
    const NumaResult alg = runOnce(*workload, kind);

    TextTable table("LRU vs " + policyKindName(kind) +
                    " on the Table 4 machine (500 MHz)");
    table.setHeader({"Metric", "LRU", alg.policyName});
    table.addRow({"execution time (ms)",
                  TextTable::num(static_cast<double>(lru.execTimeNs) / 1e6,
                                 3),
                  TextTable::num(static_cast<double>(alg.execTimeNs) / 1e6,
                                 3)});
    table.addRow({"ops executed", TextTable::count(lru.totalOps),
                  TextTable::count(alg.totalOps)});
    table.addRow({"L2 misses", TextTable::count(lru.totalMisses),
                  TextTable::count(alg.totalMisses)});
    table.addRow({"avg miss latency (ns)",
                  TextTable::num(lru.avgMissLatencyNs, 1),
                  TextTable::num(alg.avgMissLatencyNs, 1)});
    table.addRow({"aggregate miss latency (ms)",
                  TextTable::num(lru.aggregateMissLatencyNs / 1e6, 2),
                  TextTable::num(alg.aggregateMissLatencyNs / 1e6, 2)});
    table.addRow({"reservations started", "-",
                  TextTable::count(alg.policyCounters.reservationStart)});
    table.addRow({"reservation successes", "-",
                  TextTable::count(alg.policyCounters.reservationSuccess)});
    table.print(std::cout);

    const double reduction =
        100.0 *
        (static_cast<double>(lru.execTimeNs) -
         static_cast<double>(alg.execTimeNs)) /
        static_cast<double>(lru.execTimeNs);
    std::cout << "\nexecution time reduction over LRU: "
              << TextTable::num(reduction, 2) << "%\n";
    return 0;
} catch (const Error &e) {
    std::cerr << "numa_latency: " << e.kind() << ": " << e.what() << "\n";
    return e.exitCode();
}
