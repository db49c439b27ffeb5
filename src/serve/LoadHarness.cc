#include "serve/LoadHarness.h"

#include <chrono>
#include <ostream>
#include <thread>
#include <vector>

#include "replay/ForEachRecord.h"
#include "robust/Errors.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/Random.h"
#include "util/ThreadPool.h"

namespace csr::serve
{

namespace
{

/** Per-worker accumulators, merged after the pool drains. */
struct WorkerOutput
{
    Histogram opLatencyNs;
    Histogram missLatencyNs;
};

} // namespace

std::uint64_t
harnessPayload(std::uint64_t seed, Addr key)
{
    return hashMix64(key + 0x9E3779B97F4A7C15ull * (seed + 1));
}

HarnessConfig
HarnessConfig::fromArgs(const CliArgs &args)
{
    HarnessConfig config;
    config.replayPath = args.get("replay", "");
    // Replay runs default to the whole trace; synthetic runs need an
    // explicit length (with its usual default).
    config.ops = args.getUInt(
        "ops", config.replayPath.empty() ? config.ops : 0);
    config.workers = static_cast<unsigned>(args.getUInt("workers", 1));
    config.targetQps = args.getDouble("qps", 0.0);
    config.seed = args.seed(1);
    config.backendIsReal = args.has("spin");

    const std::string affinity = args.get("affinity", "shard");
    if (affinity == "shard")
        config.shardAffinity = true;
    else if (affinity == "free")
        config.shardAffinity = false;
    else
        throw ConfigError("unknown affinity '" + affinity +
                          "' (valid: shard free)");

    config.mix.dist = parseKeyDist(args.get("workload", "zipf"));
    config.mix.numKeys = args.getUInt("keys", config.mix.numKeys);
    config.mix.zipfTheta =
        args.getDouble("zipf-theta", config.mix.zipfTheta);
    config.mix.hotFraction =
        args.getDouble("hot-frac", config.mix.hotFraction);
    config.mix.hotProbability =
        args.getDouble("hot-prob", config.mix.hotProbability);
    config.mix.writeFraction =
        args.getDouble("write-frac", config.mix.writeFraction);
    config.validate();
    return config;
}

void
HarnessConfig::validate() const
{
    if (targetQps < 0.0)
        throw ConfigError("target QPS must be non-negative");
}

TextTable
HarnessResult::summaryTable(const std::string &title) const
{
    // Deterministic fields only -- nothing wall-clock-derived, so the
    // rendered table is byte-identical across worker counts under
    // shard affinity.
    TextTable table(title);
    table.setHeader({"metric", "value"});
    table.addRow({"ops", TextTable::count(ops)});
    table.addRow({"gets", TextTable::count(totals.gets)});
    table.addRow({"hits", TextTable::count(totals.hits)});
    table.addRow({"misses", TextTable::count(totals.misses)});
    table.addRow({"hit ratio %", TextTable::num(totals.hitRatio() * 100.0)});
    table.addRow({"stores", TextTable::count(totals.stores)});
    table.addRow({"store hits", TextTable::count(totals.storeHits)});
    table.addRow({"evictions", TextTable::count(totals.evictions)});
    table.addRow({"tracked keys (lines+ghosts)",
                  TextTable::count(totals.trackedKeys)});
    table.addRow(
        {"miss cost ms", TextTable::num(totals.missCostNs / 1e6, 3)});
    table.addRow(
        {"store cost ms", TextTable::num(totals.storeCostNs / 1e6, 3)});
    return table;
}

TextTable
HarnessResult::timingTable() const
{
    // A run that measured nothing (no wall clock, no samples) prints
    // "-" rather than a zero it never observed.
    const auto us = [](const Histogram &h, double frac) {
        return h.totalCount() ? TextTable::num(h.percentile(frac) / 1e3, 2)
                              : std::string("-");
    };
    const bool timed = wallSec > 0.0;
    TextTable table("timing (wall-clock; varies run to run)");
    table.setHeader({"metric", "value"});
    table.addRow({"workers", TextTable::count(workers)});
    table.addRow({"wall s", timed ? TextTable::num(wallSec, 3) : "-"});
    table.addRow({"qps", timed ? TextTable::num(qps, 0) : "-"});
    table.addRow({"op latency p50 us", us(opLatencyNs, 0.50)});
    table.addRow({"op latency p90 us", us(opLatencyNs, 0.90)});
    table.addRow({"op latency p99 us", us(opLatencyNs, 0.99)});
    table.addRow({"miss cost p99 us", us(missLatencyNs, 0.99)});
    return table;
}

void
HarnessResult::writeJsonObject(std::ostream &os,
                               const std::string &policy,
                               const std::string &workload,
                               int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in = pad + "  ";
    const std::string in2 = in + "  ";
    // Each counter block is one half of the ServeTotals list, a
    // `"key": value` line per row.
    const char *sep = "";
    const auto member = [&](const char *key, const char *,
                            const auto &v) {
        os << sep << in2 << '"' << key
           << "\": " << TextTable::numFull(v);
        sep = ",\n";
    };
    os << "{\n"
       << in << "\"policy\": \"" << policy << "\",\n"
       << in << "\"workload\": \"" << workload << "\",\n"
       << in << "\"ops\": " << ops << ",\n"
       << in << "\"workers\": " << workers << ",\n"
       << in << "\"deterministic\": {\n";
    forEachDeterministicCounter(member, totals);
    // Deterministic while no two callers contend for a stripe (all
    // zero except backendFetches == misses); scheduling-dependent
    // otherwise, hence a block of its own.  Its robustness counters
    // are all zero on a healthy, unshed run with the backend
    // behaving, so the deterministic baselines carry them as zeroes.
    os << "\n" << in << "},\n" << in << "\"concurrency\": {\n";
    sep = "";
    forEachConcurrencyCounter(member, totals);
    const auto p = [](const Histogram &h, double frac) {
        return TextTable::numShort(h.percentile(frac));
    };
    os << "\n"
       << in << "},\n"
       << in << "\"timing\": {\n"
       << in2 << "\"wallSec\": " << TextTable::numShort(wallSec) << ",\n"
       << in2 << "\"qps\": " << TextTable::numShort(qps) << ",\n"
       << in2 << "\"opLatencyNs\": {\"p50\": " << p(opLatencyNs, 0.50)
       << ", \"p90\": " << p(opLatencyNs, 0.90)
       << ", \"p99\": " << p(opLatencyNs, 0.99) << "},\n"
       << in2 << "\"missLatencyNs\": {\"p50\": " << p(missLatencyNs, 0.50)
       << ", \"p99\": " << p(missLatencyNs, 0.99) << "}\n"
       << in << "}\n"
       << pad << "}";
}

void
HarnessResult::exportMetrics(MetricRegistry &registry) const
{
    registry.setCounter("serve.harness.ops", ops);
    registry.setCounter("serve.harness.workers", workers);
    registry.recordTimerSec("serve.harness.wall", wallSec);
    registry.stat("serve.harness.qps").add(qps);
    registry.mergeHistogram("serve.op_latency_ns", opLatencyNs);
    registry.mergeHistogram("serve.miss_latency_ns", missLatencyNs);
}

HarnessResult
runLoad(CacheService &service, const HarnessConfig &config)
{
    config.validate();

    const unsigned workers =
        config.workers ? config.workers : ThreadPool::defaultThreads();

    // Generate (or decode) the whole op stream up front, then
    // partition it.  With shard affinity every op lands with the
    // worker that owns its shard, so per-shard op order is the global
    // stream order for any worker count; the strided split instead
    // makes workers contend on the shard locks.
    std::uint64_t total_ops = config.ops;
    std::vector<std::vector<Op>> plan(workers);
    const auto place = [&](std::uint64_t i, const Op &op) {
        const std::size_t w =
            config.shardAffinity
                ? service.shardOf(op.key) % workers
                : static_cast<std::size_t>(i) % workers;
        plan[w].push_back(op);
    };
    if (config.replayPath.empty()) {
        CSR_TRACE_SPAN("serve", "harness.generate");
        for (auto &ops : plan)
            ops.reserve(
                static_cast<std::size_t>(total_ops / workers + 1));
        KeyGenerator gen(config.mix, config.seed);
        for (std::uint64_t i = 0; i < total_ops; ++i)
            place(i, gen.next());
    } else {
        CSR_TRACE_SPAN("serve", "harness.load_trace");
        replay::TraceReader reader(config.replayPath);
        total_ops = replay::recordsWithin(reader, config.ops);
        for (auto &ops : plan)
            ops.reserve(
                static_cast<std::size_t>(total_ops / workers + 1));
        std::uint64_t i = 0;
        replay::forEachRecord(
            reader, total_ops, [&](Addr key, replay::TraceOp op) {
                place(i++, Op{key, op == replay::TraceOp::Set,
                              op == replay::TraceOp::Del});
            });
    }

    std::vector<WorkerOutput> outputs(workers);

    // Closed-loop pacing: each worker owns a 1/workers slice of the
    // aggregate target rate and spaces its ops on a fixed schedule
    // anchored at its own start (no coordination, no drift).
    const double interval_sec =
        config.targetQps > 0.0
            ? static_cast<double>(workers) / config.targetQps
            : 0.0;

    const auto worker_fn = [&](std::size_t w) {
        CSR_TRACE_SPAN_DYN("serve", "worker " + std::to_string(w));
        WorkerOutput &out = outputs[w];
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t n = 0;
        for (const Op &op : plan[w]) {
            if (interval_sec > 0.0) {
                const auto deadline =
                    start + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(n) *
                                    interval_sec));
                std::this_thread::sleep_until(deadline);
            }
            const auto t0 = std::chrono::steady_clock::now();
            ServeOpResult result;
            if (op.del)
                service.del(op.key); // invalidation; no backend
            else
                result = op.write
                             ? service.put(op.key,
                                           harnessPayload(config.seed,
                                                          op.key))
                             : service.get(op.key);
            const double real_ns =
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            // Simulated backend latency is modelled, not slept, so it
            // is added on top of the measured in-cache time -- unless
            // the backend spins, in which case it is already in there.
            const double op_ns =
                real_ns +
                (config.backendIsReal ? 0.0 : result.backendNs);
            out.opLatencyNs.add(op_ns);
            if (!op.write && !op.del && !result.hit)
                out.missLatencyNs.add(result.backendNs);
            ++n;
        }
    };

    WallTimer wall;
    if (workers == 1) {
        worker_fn(0);
    } else {
        ThreadPool pool(workers);
        parallelFor(pool, workers, worker_fn);
    }

    HarnessResult result;
    result.wallSec = wall.elapsedSec();
    result.ops = total_ops;
    result.workers = workers;
    result.qps = result.wallSec > 0.0
                     ? static_cast<double>(total_ops) / result.wallSec
                     : 0.0;
    for (const WorkerOutput &out : outputs) {
        result.opLatencyNs.merge(out.opLatencyNs);
        result.missLatencyNs.merge(out.missLatencyNs);
    }
    result.totals = service.totals();
    return result;
}

} // namespace csr::serve
