/**
 * @file
 * Ablation A: the cost-depreciation factor.
 *
 * The paper depreciates a reserved block's cost by *twice* the
 * sacrificed block's cost, "a way to hedge against the bet" (Section
 * 2.3).  This bench sweeps the factor {0.5, 1, 2, 4} for BCL and DCL
 * under the first-touch mapping at r=4, on the parallel sweep
 * harness, to show the design point: a small factor chases
 * reservations too long (losses on LU-like workloads grow), a large
 * one gives up savings.
 */

#include <iostream>

#include "BenchCommon.h"

using namespace csr;

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(argc, argv);
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Ablation: Acost depreciation factor (first touch, "
                  "r=4)", scale);

    const SweepResult sweep =
        bench::runSweep(presetGrid("ablation-depreciation"), args);

    for (PolicyKind kind : {PolicyKind::Bcl, PolicyKind::Dcl}) {
        const auto pane = bench::filterCells(
            sweep, [&](const SweepCellResult &res) {
                return res.cell.policy == kind;
            });
        TextTable table = bench::pivot(
            policyKindName(kind) +
                " -- savings over LRU (%) by depreciation factor",
            "Benchmark", pane,
            [](const SweepCellResult &res) {
                return benchmarkName(res.cell.benchmark);
            },
            [](const SweepCellResult &res) {
                return std::string("x").append(
                    TextTable::num(res.cell.depreciationFactor, 1));
            },
            bench::savingsOf);
        table.print(std::cout);
        std::cout << "\n";
    }
    bench::printSweepTiming(sweep);
    return 0;
}
