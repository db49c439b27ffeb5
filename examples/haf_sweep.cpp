/**
 * @file
 * Example: exploring the cost-savings "sweet spot".
 *
 * The paper's Figure 3 shows that relative savings peak when 10-30%
 * of accesses are high-cost.  This example sweeps the high-cost
 * access fraction for one benchmark and prints an ASCII curve of the
 * DCL savings at a chosen cost ratio -- a quick way to explore where
 * a cost function you care about would land.
 *
 *   $ ./examples/haf_sweep [benchmark=ocean] [r=8]
 */

#include <iostream>

#include "cost/StaticCostModels.h"
#include "robust/Errors.h"
#include "sim/TraceStudy.h"
#include "trace/WorkloadFactory.h"
#include "util/Table.h"

using namespace csr;

int
main(int argc, char **argv)
try {
    const BenchmarkId id = parseBenchmark(argc > 1 ? argv[1] : "ocean");
    const CostRatio ratio = parseCostRatio(argc > 2 ? argv[2] : "8");

    auto workload = makeWorkload(id, WorkloadScale::Small);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);

    std::cout << "DCL savings over LRU on " << benchmarkName(id)
              << ", random cost mapping, " << ratio.label() << "\n\n";

    double peak = 0.0;
    double peak_haf = 0.0;
    for (double haf = 0.0; haf <= 1.0001; haf += 0.05) {
        const RandomTwoCost model(ratio, haf);
        const double savings =
            study.savingsPct(PolicyKind::Dcl, model);
        if (savings > peak) {
            peak = savings;
            peak_haf = haf;
        }
        std::cout << "HAF " << TextTable::num(haf, 2) << " | ";
        const int bars = std::max(0, static_cast<int>(savings * 2));
        for (int i = 0; i < bars; ++i)
            std::cout << '#';
        std::cout << ' ' << TextTable::num(savings, 2) << "%\n";
    }
    std::cout << "\npeak savings " << TextTable::num(peak, 2)
              << "% at HAF " << TextTable::num(peak_haf, 2)
              << " (paper: peak between 0.1 and 0.3)\n";
    return 0;
} catch (const Error &e) {
    std::cerr << "haf_sweep: " << e.kind() << ": " << e.what() << "\n";
    return e.exitCode();
}
