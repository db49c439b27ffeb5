#include "sim/TraceStudy.h"

#include <algorithm>
#include <limits>

#include "cost/StaticCostModels.h"
#include "robust/FaultInjector.h"
#include "telemetry/Telemetry.h"

namespace csr
{

namespace
{

/** A way of the offline pass's L2; block == kFreeWay marks it empty. */
struct OracleWay
{
    Addr block;
    std::size_t nextUse; ///< sampled-ref index of the block's next use
    std::size_t lastUse; ///< sampled-ref index of its latest use
    Cost cost;
};

constexpr Addr kFreeWay = std::numeric_limits<Addr>::max();

/**
 * OPT (@p cost_aware false) or CostOPT~ over the sampled refs of
 * @p trace, L2-only, with remote writes invalidating (TraceSimulator
 * with useL1 off).  A miss fills a free way, else evicts the way
 * with the highest score, the most recently used one on a tie:
 *   - OPT scores the next use's index (n, the ref count, if none);
 *   - CostOPT~ scores (next use - now) / cost, cost 0 counting as
 *     0.5, and a never-reused block 2(n+1), above every distance.
 * The pass keeps every sampled ref's next-use index in memory, which
 * bounds the traces it can study.
 */
TraceSimResult
runOracle(bool cost_aware, const SampledTrace &trace,
          const TraceSimConfig &config, const CostModel &model)
{
    const CacheGeometry l2(config.l2Bytes, config.l2Assoc,
                           config.blockBytes);
    const auto &records = trace.records;
    const ProcId proc = trace.sampledProc;

    // One backward pass: next[i] is the index of the next sampled ref
    // to ref i's block, or n if there is none.
    std::size_t n = 0;
    for (const TraceRecord &rec : records)
        n += rec.proc == proc;
    std::vector<std::size_t> next(n);
    {
        std::unordered_map<Addr, std::size_t> nextOf;
        std::size_t i = n;
        for (auto rec = records.rbegin(); rec != records.rend(); ++rec) {
            if (rec->proc == proc) {
                std::size_t &later =
                    nextOf.try_emplace(l2.blockAddr(rec->addr), n)
                        .first->second;
                next[--i] = later;
                later = i;
            }
        }
    }

    // Victim order: free ways first, then by score, then by recency.
    std::size_t now = 0;
    const auto score = [&](const OracleWay &way) {
        if (way.block == kFreeWay)
            return std::numeric_limits<double>::infinity();
        if (!cost_aware)
            return static_cast<double>(way.nextUse);
        if (way.nextUse >= n)
            return 2.0 * static_cast<double>(n + 1);
        return (static_cast<double>(way.nextUse) -
                static_cast<double>(now + 1)) /
               (way.cost > 0.0 ? way.cost : 0.5);
    };
    const auto before = [&](const OracleWay &a, const OracleWay &b) {
        const double sa = score(a), sb = score(b);
        return sa < sb || (sa == sb && a.lastUse < b.lastUse);
    };

    TraceSimResult res;
    res.policyName = policyKindName(cost_aware ? PolicyKind::CostOpt
                                               : PolicyKind::Opt);
    const std::uint32_t assoc = l2.assoc();
    std::vector<OracleWay> ways(
        static_cast<std::size_t>(l2.numSets()) * assoc,
        OracleWay{kFreeWay, 0, 0, 0.0});
    Cost min_cost_seen = std::numeric_limits<Cost>::max();
    for (const TraceRecord &rec : records) {
        const Addr block = l2.blockAddr(rec.addr);
        OracleWay *const set =
            &ways[static_cast<std::size_t>(l2.setIndex(rec.addr)) * assoc];
        OracleWay *const end = set + assoc;
        OracleWay *way = std::find_if(set, end, [block](const OracleWay &w) {
            return w.block == block;
        });

        if (rec.proc != proc) {
            // Only remote writes appear in a sampled trace: coherence
            // invalidations (Section 3.1).
            if (way != end) {
                way->block = kFreeWay;
                ++res.invalidationsReceived;
            }
            continue;
        }

        ++res.sampledRefs;
        if (way != end) {
            ++res.l2Hits;
        } else {
            ++res.l2Misses;
            const Cost cost = model.missCost(block);
            CSR_TRACE_INSTANT_V("sim", "l2.miss_cost", cost);
            res.aggregateCost += cost;
            if (cost < min_cost_seen)
                min_cost_seen = cost;
            if (cost > min_cost_seen)
                ++res.highCostMisses;
            way = std::max_element(set, end, before);
            if (way->block != kFreeWay)
                CSR_TRACE_INSTANT("sim", "l2.evict");
            way->block = block;
            way->cost = cost;
        }
        way->nextUse = next[now];
        way->lastUse = now++;
        if (res.sampledRefs % kFaultProbeEveryRefs == 0)
            CSR_FAULT_POINT(FaultSite::TraceSim, "trace replay loop");
    }
    return res;
}

} // namespace

TraceStudy::TraceStudy(const SampledTrace &trace, TraceSimConfig config)
    : trace_(&trace), config_(config)
{
    // One LRU replay, cost model irrelevant (uniform), to capture the
    // cost-independent miss profile.
    TraceSimConfig profile_config = config_;
    profile_config.collectMissProfile = true;
    CacheGeometry l2(config_.l2Bytes, config_.l2Assoc, config_.blockBytes);
    UniformCost uniform;
    TraceSimulator sim(profile_config, makePolicy(PolicyKind::Lru, l2),
                       uniform);
    TraceSimResult res = sim.run(trace.records, trace.sampledProc);
    lruProfile_ = std::move(res.missProfile);
    lruMisses_ = res.l2Misses;
}

double
TraceStudy::lruCost(const CostModel &model) const
{
    double total = 0.0;
    for (const auto &[block, count] : lruProfile_)
        total += static_cast<double>(count) * model.missCost(block);
    return total;
}

TraceSimResult
TraceStudy::run(PolicyKind kind, const CostModel &model,
                const PolicyParams &params) const
{
    if (kind == PolicyKind::Opt || kind == PolicyKind::CostOpt)
        return runOracle(kind == PolicyKind::CostOpt, *trace_, config_,
                         model);
    CacheGeometry l2(config_.l2Bytes, config_.l2Assoc, config_.blockBytes);
    TraceSimulator sim(config_, makePolicy(kind, l2, params), model);
    return sim.run(trace_->records, trace_->sampledProc);
}

double
TraceStudy::savingsPct(PolicyKind kind, const CostModel &model,
                       const PolicyParams &params) const
{
    const double lru = lruCost(model);
    const TraceSimResult res = run(kind, model, params);
    return relativeCostSavings(lru, res.aggregateCost);
}

} // namespace csr
