/**
 * @file
 * Extension: offline reference oracles.
 *
 * The paper's companion work [Jeong & Dubois, SPAA'99] computes the
 * optimal cost-sensitive schedule offline.  This bench runs Belady's
 * OPT (miss-count-optimal) and a greedy cost-weighted oracle on the
 * same traces as reference points for the online algorithms.  Neither
 * is a cost bound: the greedy oracle is a heuristic, and OPT ignores
 * cost.  An exact CSOPT is meant to replace both.
 * The oracles are TraceStudy::run's one L2-only pass over the whole
 * trace; the study's LRU, DCL and ACL runs disable the L1 too, for a
 * fair comparison.
 */

#include <iostream>

#include "BenchCommon.h"
#include "cost/StaticCostModels.h"
#include "sim/TraceStudy.h"

using namespace csr;

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Offline reference oracles (L2-only hierarchy, first "
                  "touch, r=4)", scale);

    TextTable table("Savings over LRU (%), L2-only");
    table.setHeader({"Benchmark", "DCL", "ACL", "OPT (miss count)",
                     "CostOPT~ (greedy oracle)"});

    for (BenchmarkId id : paperBenchmarks()) {
        const SampledTrace trace = bench::sampledTrace(id, scale);
        TraceSimConfig config;
        config.useL1 = false;
        const TraceStudy study(trace, config);
        const FirstTouchTwoCost model(CostRatio::finite(4), trace.homeOf,
                                      trace.sampledProc);
        table.addRow({
            benchmarkName(id),
            TextTable::num(study.savingsPct(PolicyKind::Dcl, model), 2),
            TextTable::num(study.savingsPct(PolicyKind::Acl, model), 2),
            TextTable::num(study.savingsPct(PolicyKind::Opt, model), 2),
            TextTable::num(study.savingsPct(PolicyKind::CostOpt, model),
                           2),
        });
    }
    table.print(std::cout);
    std::cout << "\n(reference oracles, not bounds: OPT minimizes the "
                 "miss count and CostOPT~ is a greedy heuristic, not the "
                 "true CSOPT, so either can save less than a "
                 "cost-optimal schedule)\n";
    return 0;
}
