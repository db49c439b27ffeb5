/**
 * @file
 * Contention scaling of the csr::serve hit path: throughput as
 * workers pile onto the same shards.
 *
 * Every cell replays the same read-only Zipfian stream (writeFraction
 * 0, keyspace sized so the cache holds the hot set and gets mostly
 * hit) under --affinity free, so every worker contends on every
 * shard.  A get that finds its stripe mutex busy serves a read hit
 * without taking it (DESIGN.md section 3.5), so hit throughput should
 * scale with the worker count; at one worker the mutex is always
 * free and every get takes it, which makes the first column the
 * locked baseline.
 *
 * The figure of merit CI gates on: for each policy,
 *
 *     scaling = hits/s at max workers
 *             / hits/s at the first (lowest) worker count
 *
 * --min-scaling F makes the binary exit non-zero when any policy's
 * scaling falls below F (the CI contention job passes 2.0).  On a
 * single-core host the ratio caps near 1.0 -- gate only where the
 * runner actually has cores.
 *
 * A second sweep measures the WRITE path: the same stream with
 * --write-fracs (default 0.3) mixed writes, replayed against the
 * single-mutex shard ("single": --stripes 1) and the striped shard
 * ("striped": --stripes N).  Writes serialize per stripe, so striping
 * is what lets them scale; the figure of merit per policy and write
 * fraction is
 *
 *     write scaling = striped ops/s at max workers
 *                   / single  ops/s at the first worker count
 *
 * gated by --min-write-scaling F (the CI contention job passes 1.5 at
 * 30% writes; same single-core caveat as above).
 *
 * JSON (BENCH_contention.json by default) carries every cell of both
 * sweeps plus the scaling summaries for the artifact archive.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "cache/SimdScan.h"
#include "robust/Errors.h"
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
        return 200'000;
      case WorkloadScale::Small:
        return 2'000'000;
      case WorkloadScale::Full:
        return 8'000'000;
    }
    return 2'000'000;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/** One replay: a (policy, stripes, write fraction, workers) cell. */
struct Cell
{
    std::string policy;
    std::string config; // "single" (1 stripe) or "striped"
    unsigned stripes = 1;
    double writeFrac = 0.0;
    unsigned workers = 0;
    double wallSec = 0.0;
    /** Hits/s on the read sweep; whole ops/s on the write sweep,
     *  where writes never hit. */
    double perSec = 0.0;
    ServeTotals totals;
};

/** Max workers over the first worker count, for one row of cells. */
struct Scaling
{
    std::string label;
    double baseline = 0.0;
    double peak = 0.0;
    double ratio = 0.0;
};

/** Replay the Zipfian stream under --affinity free: every worker
 *  contends on every shard. */
Cell
runCell(const CliArgs &args, PolicyKind kind, bool striped,
        unsigned stripes, double write_frac, unsigned workers,
        std::uint64_t ops, std::uint64_t keys)
{
    ServeConfig serve_config;
    serve_config.shards = 4;
    serve_config.shardBytes = 256 * 1024;
    serve_config.policy = kind;
    serve_config.policyParams.seed = args.seed(7);
    serve_config.stripes = striped ? stripes : 1;

    SyntheticBackendConfig backend_config;
    backend_config.seed = args.seed(7);

    HarnessConfig harness;
    harness.ops = ops;
    harness.workers = workers;
    harness.seed = args.seed(7);
    harness.shardAffinity = false; // real contention
    harness.mix.numKeys = keys;
    harness.mix.writeFraction = write_frac;

    SyntheticBackend backend(backend_config);
    CacheService service(serve_config, backend);
    const HarnessResult result = runLoad(service, harness);
    service.checkInvariants();

    Cell cell;
    cell.policy = service.policyName();
    cell.config = striped ? "striped" : "single";
    cell.stripes = service.numStripes();
    cell.writeFrac = write_frac;
    cell.workers = workers;
    cell.wallSec = result.wallSec;
    const double scored = static_cast<double>(
        write_frac > 0.0 ? ops : result.totals.hits);
    cell.perSec = result.wallSec > 0.0 ? scored / result.wallSec : 0.0;
    cell.totals = result.totals;
    return cell;
}

/**
 * Print @p cells as a table with one row per @p row_len consecutive
 * cells (the worker sweep), labelled by @p label; return each row's
 * scaling -- its last cell over its first.
 */
template <typename Label>
std::vector<Scaling>
reportSweep(const std::string &title, const std::vector<Cell> &cells,
            const std::vector<unsigned> &worker_list, Label label)
{
    TextTable table(title);
    std::vector<std::string> header = {"Policy / config"};
    for (const unsigned w : worker_list)
        header.push_back("w=" + std::to_string(w));
    table.setHeader(header);
    std::vector<Scaling> scalings;
    for (std::size_t row = 0; row < cells.size();
         row += worker_list.size()) {
        std::vector<std::string> out = {label(cells[row])};
        for (std::size_t i = 0; i < worker_list.size(); ++i)
            out.push_back(
                TextTable::num(cells[row + i].perSec / 1e6, 2));
        table.addRow(out);
        Scaling s;
        s.label = out.front();
        s.baseline = cells[row].perSec;
        s.peak = cells[row + worker_list.size() - 1].perSec;
        s.ratio = s.baseline > 0.0 ? s.peak / s.baseline : 0.0;
        scalings.push_back(s);
    }
    table.print(std::cout);
    return scalings;
}

void
printScalings(const std::string &title, const std::string &base,
              const std::string &peak,
              const std::vector<Scaling> &scalings)
{
    TextTable summary(title);
    summary.setHeader({"Policy / config", base + " (M/s)",
                       peak + " (M/s)", "scaling (x)"});
    for (const Scaling &s : scalings)
        summary.addRow({s.label, TextTable::num(s.baseline / 1e6, 2),
                        TextTable::num(s.peak / 1e6, 2),
                        TextTable::num(s.ratio, 2)});
    summary.print(std::cout);
}

/** @return false (after saying so) when any scaling is below @p min. */
bool
passesGate(const char *what, const std::vector<Scaling> &scalings,
           double min)
{
    bool passed = true;
    for (const Scaling &s : scalings) {
        if (s.ratio < min) {
            std::cerr << "### FAIL: " << s.label << " " << what << " "
                      << TextTable::num(s.ratio, 2) << "x < "
                      << TextTable::num(min, 2) << "x required\n";
            passed = false;
        }
    }
    if (passed)
        std::cout << "### " << what << " gate passed (>= "
                  << TextTable::num(min, 2) << "x on every policy)\n";
    return passed;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(
        argc, argv,
        {"policies", "workers", "ops", "keys", "min-scaling",
         "write-fracs", "stripes", "min-write-scaling"});
    const WorkloadScale scale = bench::scaleFrom(args);
    bench::banner("Serving mode: hit-path contention scaling "
                  "(--affinity free)",
                  scale);
    std::cout << "### tag scan ISA: " << simd::tagScanIsa() << "\n\n";

    const std::uint64_t ops =
        args.getUInt("ops", opsForScale(scale));
    // Keyspace close to cache capacity: the stream mostly hits, so
    // the hit path -- not the backend -- is what's being measured.
    const std::uint64_t keys = args.getUInt("keys", 16'384);
    const double min_scaling = args.getDouble("min-scaling", 0.0);
    const double min_write_scaling =
        args.getDouble("min-write-scaling", 0.0);
    unsigned striped_stripes = kStripesAuto;
    try {
        striped_stripes = requireStripes(args.get("stripes", "4"));
    } catch (const ConfigError &err) {
        std::cerr << "ConfigError: " << err.what() << "\n";
        return exitcode::kConfig;
    }
    std::vector<double> write_fracs;
    for (const std::string &item :
         splitList(args.get("write-fracs", "0.3"))) {
        char *end = nullptr;
        const double f = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || f < 0.0 ||
            f > 1.0) {
            std::cerr << "ConfigError: --write-fracs entries must be "
                         "fractions in [0, 1]\n";
            return exitcode::kConfig;
        }
        write_fracs.push_back(f);
    }
    if (write_fracs.empty()) {
        std::cerr << "ConfigError: --write-fracs must be non-empty\n";
        return exitcode::kConfig;
    }

    std::vector<PolicyKind> policies;
    for (const std::string &name :
         splitList(args.get("policies", "lru,acl"))) {
        const auto kind = parsePolicyKind(name);
        if (!kind) {
            std::cerr << "ConfigError: unknown policy '" << name
                      << "'\n";
            return exitcode::kConfig;
        }
        policies.push_back(*kind);
    }
    std::vector<unsigned> worker_list;
    for (const std::string &item :
         splitList(args.get("workers", "1,2,4"))) {
        const unsigned w = static_cast<unsigned>(
            std::strtoul(item.c_str(), nullptr, 10));
        if (w == 0) {
            std::cerr << "ConfigError: --workers entries must be "
                         "positive\n";
            return exitcode::kConfig;
        }
        worker_list.push_back(w);
    }
    if (policies.empty() || worker_list.empty()) {
        std::cerr << "ConfigError: --policies and --workers must be "
                     "non-empty\n";
        return exitcode::kConfig;
    }

    std::vector<Cell> cells;
    for (const PolicyKind kind : policies)
        for (const unsigned workers : worker_list)
            cells.push_back(
                runCell(args, kind, false, 1, 0.0, workers, ops, keys));
    const std::vector<Scaling> scalings = reportSweep(
        "hit throughput (M hits/s) by policy, workers", cells,
        worker_list, [](const Cell &c) { return c.policy; });
    const std::string first_w =
        "w=" + std::to_string(worker_list.front());
    const std::string max_w = "w=" + std::to_string(worker_list.back());
    printScalings("scaling: " + max_w + " / " + first_w, first_w, max_w,
                  scalings);

    // ---- Write sweep: single-mutex shard vs striped shard --------
    // Writes always take the stripe lock, so the single config (one
    // stripe) serializes each shard and the striped config is what
    // this bench exists to defend.
    std::vector<Cell> write_cells;
    for (const PolicyKind kind : policies) {
        for (const double frac : write_fracs) {
            for (const bool striped : {false, true}) {
                for (const unsigned workers : worker_list)
                    write_cells.push_back(
                        runCell(args, kind, striped, striped_stripes,
                                frac, workers, ops, keys));
            }
        }
    }
    const unsigned resolved_stripes =
        write_cells[worker_list.size()].stripes; // first striped cell
    std::vector<Scaling> write_rows = reportSweep(
        "write-mix throughput (M ops/s): single (1 stripe) vs striped (" +
            std::to_string(resolved_stripes) + " stripes)",
        write_cells, worker_list, [](const Cell &c) {
            return c.policy + " / " + c.config + " / wf=" +
                   TextTable::num(c.writeFrac, 2);
        });
    // Write scaling: striped at max workers over single at the first
    // worker count, per policy and write fraction (rows alternate
    // single, striped).
    std::vector<Scaling> write_scalings;
    for (std::size_t row = 0; row + 1 < write_rows.size(); row += 2) {
        Scaling s;
        const Cell &single = write_cells[row * worker_list.size()];
        s.label = single.policy + "@" + TextTable::num(single.writeFrac, 2);
        s.baseline = write_rows[row].baseline;
        s.peak = write_rows[row + 1].peak;
        s.ratio = s.baseline > 0.0 ? s.peak / s.baseline : 0.0;
        write_scalings.push_back(s);
    }
    printScalings("write scaling: striped@" + max_w + " / single@" +
                      first_w,
                  "single", "striped", write_scalings);

    const std::string json_path =
        args.has("json") ? args.jsonPath() : "BENCH_contention.json";
    std::ofstream os(json_path);
    if (os) {
        const auto write_cells_json = [&](const std::vector<Cell> &list) {
            for (std::size_t i = 0; i < list.size(); ++i) {
                const Cell &c = list[i];
                os << "    {\"policy\": \"" << c.policy
                   << "\", \"config\": \"" << c.config
                   << "\", \"stripes\": " << c.stripes
                   << ", \"writeFrac\": " << c.writeFrac
                   << ", \"workers\": " << c.workers
                   << ", \"wallSec\": " << c.wallSec
                   << ", \"perSec\": " << c.perSec
                   << ", \"hits\": " << c.totals.hits
                   << ", \"seqlockHits\": " << c.totals.seqlockHits
                   << ", \"seqlockRetries\": " << c.totals.seqlockRetries
                   << ", \"lockedFallbacks\": "
                   << c.totals.lockedFallbacks
                   << ", \"logFullFallbacks\": "
                   << c.totals.logFullFallbacks
                   << ", \"coalescedMisses\": "
                   << c.totals.coalescedMisses << "}"
                   << (i + 1 < list.size() ? ",\n" : "\n");
            }
        };
        const auto write_scalings_json =
            [&](const std::vector<Scaling> &list) {
                for (std::size_t i = 0; i < list.size(); ++i)
                    os << "\"" << list[i].label << "\": " << list[i].ratio
                       << (i + 1 < list.size() ? ", " : "");
            };
        os << "{\n  \"ops\": " << ops << ",\n  \"keys\": " << keys
           << ",\n  \"tagScanIsa\": \"" << simd::tagScanIsa()
           << "\",\n  \"cells\": [\n";
        write_cells_json(cells);
        os << "  ],\n  \"scaling\": {";
        write_scalings_json(scalings);
        os << "},\n  \"stripes\": " << resolved_stripes
           << ",\n  \"writeCells\": [\n";
        write_cells_json(write_cells);
        os << "  ],\n  \"writeScaling\": {";
        write_scalings_json(write_scalings);
        os << "},\n  \"minScaling\": " << min_scaling
           << ",\n  \"minWriteScaling\": " << min_write_scaling
           << "\n}\n";
        std::cerr << "### wrote JSON to " << json_path << "\n";
    } else {
        std::cerr << "### cannot write " << json_path << "\n";
    }

    bool failed = false;
    if (min_scaling > 0.0)
        failed = !passesGate("scaling", scalings, min_scaling);
    if (min_write_scaling > 0.0)
        failed = !passesGate("write-scaling", write_scalings,
                             min_write_scaling) ||
                 failed;
    return failed ? 1 : 0;
}
