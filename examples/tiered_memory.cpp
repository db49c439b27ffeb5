/**
 * @file
 * Example: a non-latency cost function (the paper's Section 7 points
 * at power, bandwidth and tiered storage as further applications).
 *
 * Models a DRAM cache in front of a tiered backing store: misses to
 * blocks resident in the fast tier cost 1, misses to the capacity
 * tier cost 12, and misses to cold archival blocks cost 60.  Costs
 * come from an explicit TableCost, showing how any ad-hoc per-block
 * cost plugs into the cost-sensitive policies.
 *
 *   $ ./examples/tiered_memory
 */

#include <iostream>

#include "cost/StaticCostModels.h"
#include "robust/Errors.h"
#include "sim/TraceSimulator.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "util/Random.h"
#include "util/Table.h"

using namespace csr;

int
main()
try {
    // Reuse the Raytrace generator as a stand-in for an object store
    // workload: a large read-mostly footprint with lobed locality.
    auto workload = makeWorkload(BenchmarkId::Raytrace,
                                 WorkloadScale::Small);
    const SampledTrace trace = buildSampledTrace(*workload, 1);

    // Assign tiers per block: 70% fast, 25% capacity, 5% archival.
    TableCost cost(1.0);
    Rng rng(99);
    for (const auto &[block, home] : trace.homeOf) {
        (void)home;
        const double u = rng.nextDouble();
        if (u < 0.05)
            cost.set(block, 60.0);      // archival tier
        else if (u < 0.30)
            cost.set(block, 12.0);      // capacity tier
                                        // else fast tier (default 1)
    }

    TextTable table("Tiered-store miss cost (fast=1, capacity=12, "
                    "archive=60)");
    table.setHeader({"Policy", "Aggregate cost", "Misses",
                     "Savings vs LRU (%)"});

    double lru_cost = 0.0;
    const CacheGeometry geom(16 * 1024, 4, 64);
    for (PolicyKind kind :
         {PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
          PolicyKind::Dcl, PolicyKind::Acl}) {
        TraceSimulator sim(TraceSimConfig{}, makePolicy(kind, geom),
                           cost);
        const TraceSimResult res =
            sim.run(trace.records, trace.sampledProc);
        if (kind == PolicyKind::Lru)
            lru_cost = res.aggregateCost;
        table.addRow({res.policyName,
                      TextTable::num(res.aggregateCost, 0),
                      TextTable::count(res.l2Misses),
                      TextTable::num(relativeCostSavings(
                          lru_cost, res.aggregateCost), 2)});
    }
    table.print(std::cout);
    std::cout << "\nWide cost differentials are where GreedyDual-style "
                 "cost-centric\nreplacement shines; the LRU-based "
                 "algorithms stay competitive while\npreserving "
                 "locality.\n";
    return 0;
} catch (const Error &e) {
    std::cerr << "tiered_memory: " << e.kind() << ": " << e.what() << "\n";
    return e.exitCode();
}
