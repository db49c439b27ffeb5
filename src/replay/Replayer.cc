#include "replay/Replayer.h"

#include <chrono>
#include <ostream>

#include "cache/CacheModel.h"
#include "robust/Errors.h"
#include "util/CliArgs.h"
#include "util/ThreadPool.h"

namespace csr::replay
{

namespace
{

/** Per-job replay state: a private model (its own policy instance)
 *  plus private counters, merged by summation afterwards. */
struct JobState
{
    ReplayTotals totals;
};

} // namespace

ReplayConfig
ReplayConfig::fromArgs(const CliArgs &args)
{
    ReplayConfig config;
    config.path = args.get("file", "");
    config.cacheBytes = args.getUInt("cache-bytes", config.cacheBytes);
    config.assoc = static_cast<std::uint32_t>(
        args.getUInt("assoc", config.assoc));
    config.blockBytes = static_cast<std::uint32_t>(
        args.getUInt("block-bytes", config.blockBytes));
    if (args.has("policy"))
        config.policy = requirePolicyKind(args.get("policy", ""));
    config.policyParams.etdAliasBits = static_cast<unsigned>(
        args.getUInt("alias-bits", config.policyParams.etdAliasBits));
    config.policyParams.depreciationFactor = args.getDouble(
        "depreciation", config.policyParams.depreciationFactor);
    config.policyParams.seed =
        args.seed(config.policyParams.seed);
    config.jobs = args.jobs();
    config.maxOps = args.getUInt("max-ops", config.maxOps);
    config.defaultCostNs =
        args.getUInt("default-cost", config.defaultCostNs);
    if (args.has("read-mode"))
        config.readMode = requireReadMode(args.get("read-mode", ""));
    config.validate();
    return config;
}

void
ReplayConfig::validate() const
{
    if (path.empty())
        throw ConfigError(
            "replay needs a trace: pass --file PATH (a .csrt file "
            "written by csrtrace)");
    if (policy == PolicyKind::Opt || policy == PolicyKind::CostOpt)
        throw ConfigError(
            std::string("policy '") + policyKindName(policy) +
            "' is offline (needs the future) and cannot replay a "
            "stream; valid: lru random lfu gd bcl dcl acl");
    if (defaultCostNs == 0)
        throw ConfigError("--default-cost must be >= 1 ns (it is the "
                          "miss cost of records without a hint)");
    if (policyParams.depreciationFactor < 1.0)
        throw ConfigError("--depreciation must be >= 1");
    // Geometry errors (non-pow2 sizes, assoc > capacity) surface from
    // the CacheGeometry constructor with their own typed error.
}

ReplayResult
replayTrace(const ReplayConfig &config)
{
    config.validate();
    const CacheGeometry geom(config.cacheBytes, config.assoc,
                             config.blockBytes);

    // Probe the trace once up front so header problems surface before
    // any worker spawns, and so totalOps is known.
    std::uint64_t trace_records = 0;
    {
        TraceReader probe(config.path, config.readMode);
        trace_records = probe.recordCount();
    }
    const std::uint64_t total_ops =
        config.maxOps == 0
            ? trace_records
            : (config.maxOps < trace_records ? config.maxOps
                                             : trace_records);

    unsigned jobs =
        config.jobs == 0 ? ThreadPool::defaultThreads() : config.jobs;
    // More jobs than sets would leave workers with an empty partition;
    // harmless, but pointless threads.
    if (static_cast<std::uint64_t>(jobs) > geom.numSets())
        jobs = static_cast<unsigned>(geom.numSets());
    if (jobs == 0)
        jobs = 1;

    std::vector<JobState> states(jobs);
    const auto t0 = std::chrono::steady_clock::now();

    // Job j replays, in global trace order, exactly the records whose
    // set satisfies set % jobs == j.  Sets are independent in the
    // model and in every online policy, so the merged counters are
    // byte-identical to a jobs=1 run (see the header comment).
    auto run_job = [&](std::size_t j) {
        TraceReader reader(config.path, config.readMode);
        CacheModel model(geom,
                         makePolicy(config.policy, geom,
                                    config.policyParams));
        ReplayTotals &t = states[j].totals;
        const std::uint64_t block_bytes = config.blockBytes;
        const std::uint64_t default_cost = config.defaultCostNs;

        ReplayBlock block;
        std::uint64_t done = 0;
        const std::uint64_t nblocks = reader.blockCount();
        for (std::uint64_t b = 0; b < nblocks && done < total_ops;
             ++b) {
            reader.readBlock(b, block);
            const std::size_t n = block.size();
            for (std::size_t i = 0; i < n && done < total_ops;
                 ++i, ++done) {
                const Addr addr = block.key[i] * block_bytes;
                const std::uint32_t set = geom.setIndex(addr);
                if (set % jobs != j)
                    continue;
                const Addr tag = geom.tag(addr);
                const std::uint64_t cost_ns =
                    block.costHint[i] ? block.costHint[i]
                                      : default_cost;
                switch (static_cast<TraceOp>(block.op[i])) {
                  case TraceOp::Get: {
                    ++t.gets;
                    const int way = model.access(set, tag);
                    if (way != kInvalidWay) {
                        ++t.hits;
                    } else {
                        ++t.misses;
                        t.missCostNs += cost_ns;
                        model.fillVictimOrFree(
                            set, tag, static_cast<Cost>(cost_ns), 0,
                            [&t](int, Addr, std::uint32_t) {
                                ++t.evictions;
                            });
                    }
                    break;
                  }
                  case TraceOp::Set: {
                    ++t.sets;
                    t.storeCostNs += cost_ns;
                    const int way = model.access(set, tag);
                    if (way != kInvalidWay) {
                        ++t.setHits;
                        model.updateCost(set, way,
                                         static_cast<Cost>(cost_ns));
                    } else {
                        model.fillVictimOrFree(
                            set, tag, static_cast<Cost>(cost_ns), 0,
                            [&t](int, Addr, std::uint32_t) {
                                ++t.evictions;
                            });
                    }
                    break;
                  }
                  case TraceOp::Del:
                    ++t.dels;
                    model.invalidateTag(set, tag);
                    break;
                }
                ++t.ops;
            }
        }
    };

    if (jobs == 1) {
        run_job(0);
    } else {
        ThreadPool pool(jobs);
        parallelFor(pool, jobs, run_job);
    }

    const auto t1 = std::chrono::steady_clock::now();

    ReplayResult result;
    result.traceRecords = trace_records;
    result.jobs = jobs;
    result.wallSec =
        std::chrono::duration<double>(t1 - t0).count();
    for (const JobState &s : states)
        forEachReplayCounter(
            [](const char *, std::uint64_t &sum, std::uint64_t part) {
                sum += part;
            },
            result.totals, s.totals);
    return result;
}

TextTable
ReplayResult::summaryTable(const std::string &title) const
{
    TextTable table(title);
    table.setHeader({"metric", "value"});
    table.addRow({"trace records", TextTable::count(traceRecords)});
    table.addRow({"replayed ops", TextTable::count(totals.ops)});
    table.addRow({"gets", TextTable::count(totals.gets)});
    table.addRow({"sets", TextTable::count(totals.sets)});
    table.addRow({"dels", TextTable::count(totals.dels)});
    table.addRow({"hits", TextTable::count(totals.hits)});
    table.addRow({"misses", TextTable::count(totals.misses)});
    table.addRow(
        {"hit ratio %", TextTable::num(totals.hitRatio() * 100.0, 4)});
    table.addRow({"set hits", TextTable::count(totals.setHits)});
    table.addRow({"evictions", TextTable::count(totals.evictions)});
    table.addRow(
        {"miss cost ms",
         TextTable::num(static_cast<double>(totals.missCostNs) / 1e6,
                        3)});
    table.addRow(
        {"store cost ms",
         TextTable::num(static_cast<double>(totals.storeCostNs) / 1e6,
                        3)});
    return table;
}

TextTable
ReplayResult::timingTable() const
{
    TextTable table("replay timing (wall clock, non-deterministic)");
    table.setHeader({"metric", "value"});
    table.addRow({"jobs", TextTable::count(jobs)});
    table.addRow({"wall s", TextTable::num(wallSec, 3)});
    table.addRow({"ops/s", TextTable::num(opsPerSec(), 0)});
    table.addRow({"Mops/min", TextTable::num(opsPerMin() / 1e6, 1)});
    return table;
}

void
ReplayResult::writeJsonObject(std::ostream &os,
                              const std::string &policy,
                              int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in = pad + "  ";
    const std::string in2 = in + "  ";
    os << pad << "{\n"
       << in << "\"policy\": \"" << policy << "\",\n"
       << in << "\"traceRecords\": " << traceRecords << ",\n"
       << in << "\"deterministic\": {\n";
    const char *sep = "";
    forEachReplayCounter(
        [&](const char *key, const auto &v) {
            os << sep << in2 << '"' << key
               << "\": " << TextTable::numFull(v);
            sep = ",\n";
        },
        totals);
    os << "\n"
       << in << "},\n"
       // Wall-clock block: check_bench skips the "timing" subtree.
       << in << "\"timing\": {\n"
       << in2 << "\"jobs\": " << jobs << ",\n"
       << in2 << "\"wallSec\": " << TextTable::numFull(wallSec)
       << ",\n"
       << in2 << "\"opsPerSec\": " << TextTable::numFull(opsPerSec())
       << ",\n"
       << in2 << "\"opsPerMin\": " << TextTable::numFull(opsPerMin())
       << "\n"
       << in << "}\n"
       << pad << "}";
}

} // namespace csr::replay
