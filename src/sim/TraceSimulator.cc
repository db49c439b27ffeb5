#include "sim/TraceSimulator.h"

#include <limits>

#include "robust/FaultInjector.h"
#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

TraceSimulator::TraceSimulator(const TraceSimConfig &config,
                               PolicyPtr policy,
                               const CostModel &cost_model)
    : config_(config),
      l1_(CacheGeometry(config.l1Bytes, 1, config.blockBytes)),
      l2_(CacheGeometry(config.l2Bytes, config.l2Assoc,
                        config.blockBytes),
          std::move(policy)),
      costModel_(cost_model),
      minCostSeen_(std::numeric_limits<Cost>::max())
{
    csr_assert(l2_.policy() != nullptr, "null policy");
    result_.policyName = l2_.policy()->name();
}

TraceSimResult
TraceSimulator::run(const std::vector<TraceRecord> &records,
                    ProcId sampled_proc)
{
    for (const auto &rec : records) {
        if (rec.proc != sampled_proc) {
            // Only remote *writes* appear in a sampled trace; they
            // model coherence invalidations (Section 3.1).
            handleRemoteWrite(rec.addr);
        } else {
            handleSampledAccess(rec.addr);
            if (result_.sampledRefs % kFaultProbeEveryRefs == 0)
                CSR_FAULT_POINT(FaultSite::TraceSim,
                                "trace replay loop");
            if (config_.validateEveryRefs != 0 &&
                result_.sampledRefs % config_.validateEveryRefs == 0)
                checkInvariants();
        }
    }
    if (config_.validateEveryRefs != 0)
        checkInvariants();
    result_.policyCounters = l2_.policy()->counters();
    return result_;
}

void
TraceSimulator::checkInvariants() const
{
    if (config_.useL1)
        l1_.checkInvariants();
    l2_.checkInvariants();
}

void
TraceSimulator::handleRemoteWrite(Addr addr)
{
    bool invalidated = false;

    if (config_.useL1) {
        const CacheGeometry &g = l1_.geometry();
        const std::uint32_t set = g.setIndex(addr);
        const int way = l1_.lookup(set, g.tag(addr));
        if (way != kInvalidWay) {
            l1_.invalidateWay(set, way);
            invalidated = true;
        }
    }

    const CacheGeometry &g = l2_.geometry();
    // The policy is always told: a matching ETD entry must be
    // scrubbed even when the block is no longer cached (Section 2.4).
    if (l2_.invalidateTag(g.setIndex(addr), g.tag(addr)) != kInvalidWay)
        invalidated = true;

    if (invalidated)
        ++result_.invalidationsReceived;
}

void
TraceSimulator::handleSampledAccess(Addr addr)
{
    ++result_.sampledRefs;

    if (config_.useL1) {
        const CacheGeometry &g = l1_.geometry();
        if (l1_.lookup(g.setIndex(addr), g.tag(addr)) != kInvalidWay) {
            ++result_.l1Hits;
            return;
        }
    }

    const CacheGeometry &g = l2_.geometry();
    const std::uint32_t set = g.setIndex(addr);
    const Addr tag = g.tag(addr);
    const int hit_way = l2_.access(set, tag);

    if (hit_way != kInvalidWay) {
        ++result_.l2Hits;
    } else {
        ++result_.l2Misses;
        const Addr block = g.blockAddr(addr);
        const Cost cost = costModel_.missCost(block);
        CSR_TRACE_INSTANT_V("sim", "l2.miss_cost", cost);
        result_.aggregateCost += cost;
        if (config_.collectMissProfile)
            ++result_.missProfile[block];
        if (cost < minCostSeen_)
            minCostSeen_ = cost;
        if (cost > minCostSeen_)
            ++result_.highCostMisses;

        // The predicted cost of the block's *next* miss under a
        // static model is the same static cost.
        l2_.fillVictimOrFree(
            set, tag, cost, 0,
            [&](int, Addr victim_tag, std::uint32_t) {
                CSR_TRACE_INSTANT("sim", "l2.evict");
                if (!config_.useL1)
                    return;
                // Enforce inclusion: the evicted block leaves the L1
                // too.
                const Addr victim_addr = g.blockAddrOf(set, victim_tag)
                                         << g.blockBits();
                const CacheGeometry &l1g = l1_.geometry();
                const std::uint32_t l1set = l1g.setIndex(victim_addr);
                const int l1way = l1_.lookup(l1set, l1g.tag(victim_addr));
                if (l1way != kInvalidWay)
                    l1_.invalidateWay(l1set, l1way);
            });
    }

    if (config_.useL1) {
        const CacheGeometry &l1g = l1_.geometry();
        l1_.install(l1g.setIndex(addr), 0, l1g.tag(addr));
    }
}

void
TraceSimResult::exportMetrics(MetricRegistry &registry) const
{
    forEachPolicyCounter(
        [&registry](const char *name, std::uint64_t value) {
            registry.setCounter(std::string("trace.policy.") + name, value);
        },
        policyCounters);
    registry.setCounter("trace.sampled_refs", sampledRefs);
    registry.setCounter("trace.l1_hits", l1Hits);
    registry.setCounter("trace.l2_hits", l2Hits);
    registry.setCounter("trace.l2_misses", l2Misses);
    registry.setCounter("trace.high_cost_misses", highCostMisses);
    registry.setCounter("trace.invalidations", invalidationsReceived);
    registry.stat("trace.aggregate_cost").add(aggregateCost);
}

double
relativeCostSavings(double lru_cost, double alg_cost)
{
    if (lru_cost == 0.0)
        return 0.0;
    return 100.0 * (lru_cost - alg_cost) / lru_cost;
}

} // namespace csr
