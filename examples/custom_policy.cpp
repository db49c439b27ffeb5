/**
 * @file
 * Example: plugging a user-defined replacement policy into the
 * framework.
 *
 * Implements "CheapestOfTwo": plain LRU, except that the victim is
 * the cheaper of the two least-recently-used blocks -- a minimal,
 * reservation-free way to be cost-aware.  The example evaluates it
 * against LRU and the paper's algorithms on a benchmark trace, which
 * is all it takes to extend the paper's study with a new design
 * point.
 *
 *   $ ./examples/custom_policy [benchmark=barnes]
 */

#include <iostream>

#include "cache/StackPolicyBase.h"
#include "cost/StaticCostModels.h"
#include "robust/Errors.h"
#include "sim/TraceSimulator.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "util/Table.h"

using namespace csr;

namespace
{

/**
 * LRU that victimizes the cheaper of the two lowest-locality blocks.
 * Deriving from StackPolicyBase provides the recency stack, read
 * access to the CacheModel's per-line cost/tag state and the
 * invalidation plumbing; only victim selection needs writing.
 */
class CheapestOfTwoPolicy : public StackPolicyBase
{
  public:
    explicit CheapestOfTwoPolicy(const CacheGeometry &geom)
        : StackPolicyBase(geom)
    {
    }

    std::string name() const override { return "Cheapest2"; }

    int
    selectVictim(std::uint32_t set) override
    {
        const int n = stackSize(set);
        const int lru = wayAt(set, n);
        if (n < 2)
            return lru;
        const int second = wayAt(set, n - 1);
        return costOf(set, second) < costOf(set, lru) ? second : lru;
    }
};

double
aggregateCost(PolicyPtr policy, const SampledTrace &trace,
              const CostModel &model)
{
    TraceSimulator sim(TraceSimConfig{}, std::move(policy), model);
    return sim.run(trace.records, trace.sampledProc).aggregateCost;
}

} // namespace

int
main(int argc, char **argv)
try {
    const BenchmarkId id = parseBenchmark(argc > 1 ? argv[1] : "barnes");
    auto workload = makeWorkload(id, WorkloadScale::Small);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const FirstTouchTwoCost model(CostRatio::finite(8), trace.homeOf,
                                  trace.sampledProc);
    const CacheGeometry geom(16 * 1024, 4, 64);

    const double lru =
        aggregateCost(makePolicy(PolicyKind::Lru, geom), trace, model);

    TextTable table(benchmarkName(id) +
                    " -- first-touch cost mapping, r=8");
    table.setHeader({"Policy", "Aggregate cost", "Savings vs LRU (%)"});
    table.addRow({"LRU", TextTable::num(lru, 0), "0.00"});

    auto report = [&](PolicyPtr policy) {
        const std::string name = policy->name();
        const double c = aggregateCost(std::move(policy), trace, model);
        table.addRow({name, TextTable::num(c, 0),
                      TextTable::num(relativeCostSavings(lru, c), 2)});
    };
    report(std::make_unique<CheapestOfTwoPolicy>(geom));
    for (PolicyKind kind : paperPolicies())
        report(makePolicy(kind, geom));

    table.print(std::cout);
    std::cout << "\nA ~20-line policy slots into the same harness as "
                 "the paper's algorithms.\n";
    return 0;
} catch (const Error &e) {
    std::cerr << "custom_policy: " << e.kind() << ": " << e.what() << "\n";
    return e.exitCode();
}
