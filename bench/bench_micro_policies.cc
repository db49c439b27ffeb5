/**
 * @file
 * Microbenchmark (google-benchmark): per-access overhead of each
 * replacement policy implementation, to back the Section 5 claim
 * that the algorithms' work per access is trivial.  Measures the
 * CacheModel protocol (lookup + policy access + victim/fill) on the
 * paper's 16 KB 4-way geometry over a mixed-locality address stream.
 *
 * Besides the normal console output, the run is summarized into a
 * small JSON file (BENCH_micro.json by default, or --json <path>)
 * with per-policy ns/access and accesses/sec plus the total wall
 * clock, so CI can archive machine-readable numbers.  With
 * --benchmark_repetitions=N each row is the benchmark's median
 * aggregate, under its plain name, so the file keeps one row per
 * policy in registration order (its "iterations" then counts the
 * repetitions).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/CacheModel.h"
#include "cache/PolicyFactory.h"
#include "util/CliArgs.h"
#include "util/Random.h"

namespace
{

using namespace csr;

void
runPolicy(benchmark::State &state, PolicyKind kind)
{
    const CacheGeometry geom(16 * 1024, 4, 64);
    CacheModel cache(geom, makePolicy(kind, geom));
    Rng rng(42);

    // Pre-generate a mixed stream: hot set + streaming tail.
    std::vector<Addr> stream;
    stream.reserve(1 << 16);
    Addr cursor = 0;
    for (int i = 0; i < (1 << 16); ++i) {
        if (rng.nextBool(0.6))
            stream.push_back(rng.nextBelow(256) * 64);
        else
            stream.push_back((0x100000 + (cursor++ % 4096)) * 64);
    }
    Rng cost_rng(7);

    std::size_t i = 0;
    for (auto _ : state) {
        const Addr addr = stream[i++ & 0xFFFF];
        const std::uint32_t set = geom.setIndex(addr);
        const Addr tag = geom.tag(addr);
        const int hit_way = cache.access(set, tag);
        if (hit_way == kInvalidWay) {
            cache.fillVictimOrFree(
                set, tag, static_cast<Cost>(1 + cost_rng.nextBelow(8)));
        }
        benchmark::DoNotOptimize(hit_way);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Lru(benchmark::State &s) { runPolicy(s, PolicyKind::Lru); }
void BM_Gd(benchmark::State &s) { runPolicy(s, PolicyKind::GreedyDual); }
void BM_Bcl(benchmark::State &s) { runPolicy(s, PolicyKind::Bcl); }
void BM_Dcl(benchmark::State &s) { runPolicy(s, PolicyKind::Dcl); }
void BM_Acl(benchmark::State &s) { runPolicy(s, PolicyKind::Acl); }

BENCHMARK(BM_Lru);
BENCHMARK(BM_Gd);
BENCHMARK(BM_Bcl);
BENCHMARK(BM_Dcl);
BENCHMARK(BM_Acl);

/** Console reporter that also records one JSON row per benchmark:
 *  its single run, or its median aggregate over repetitions. */
class JsonCaptureReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::int64_t family = 0;
        std::string name;
        std::int64_t iterations = 0;
        double nsPerAccess = 0.0;
        double accessesPerSec = 0.0;
    };

    std::vector<Row> rows;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const auto &run : reports) {
            const bool row_of_run =
                run.run_type == Run::RT_Aggregate
                    ? run.aggregate_name == "median"
                    : run.repetitions <= 1;
            if (!row_of_run)
                continue;
            // A median's accumulated time is rescaled to its
            // "iterations" (the repetition count), so the ratio below
            // is the median time per access either way.
            Row row;
            row.family = run.family_index;
            row.name = run.run_name.str();
            row.iterations = run.iterations;
            if (run.iterations > 0 && run.real_accumulated_time > 0.0) {
                row.nsPerAccess = 1e9 * run.real_accumulated_time /
                                  static_cast<double>(run.iterations);
                row.accessesPerSec = static_cast<double>(run.iterations) /
                                     run.real_accumulated_time;
            }
            rows.push_back(std::move(row));
        }
        // Interleaved repetitions finish in random order.
        std::stable_sort(rows.begin(), rows.end(),
                         [](const Row &a, const Row &b) {
                             return a.family < b.family;
                         });
        ConsoleReporter::ReportRuns(reports);
    }
};

void
writeJson(const std::string &path, const JsonCaptureReporter &reporter,
          double wall_sec)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_micro_policies: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"wallSec\": %.6f,\n  \"benchmarks\": [\n",
                 wall_sec);
    for (std::size_t i = 0; i < reporter.rows.size(); ++i) {
        const auto &row = reporter.rows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"iterations\": %lld, "
                     "\"nsPerAccess\": %.4f, \"accessesPerSec\": %.1f}%s\n",
                     row.name.c_str(),
                     static_cast<long long>(row.iterations),
                     row.nsPerAccess, row.accessesPerSec,
                     i + 1 < reporter.rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // Lenient parse: the shared csr flags are consumed, every other
    // token (google-benchmark's --benchmark_* flags) is preserved
    // verbatim in positionals() for benchmark::Initialize.
    const csr::CliArgs cli = csr::CliArgs::lenient(argc, argv,
                                                   /*valued=*/{});
    const std::string json_path =
        cli.has("json") ? cli.jsonPath() : "BENCH_micro.json";

    std::vector<std::string> rest_storage = cli.positionals();
    std::vector<char *> rest = {argv[0]};
    for (std::string &token : rest_storage)
        rest.push_back(token.data());
    int filtered_argc = static_cast<int>(rest.size());

    benchmark::Initialize(&filtered_argc, rest.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, rest.data()))
        return 1;

    JsonCaptureReporter reporter;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::RunSpecifiedBenchmarks(&reporter);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_sec =
        std::chrono::duration<double>(t1 - t0).count();

    writeJson(json_path, reporter, wall_sec);
    benchmark::Shutdown();
    return 0;
}
