/**
 * @file
 * Harness for the Section 3 trace study: run a sampled trace under
 * LRU and under the cost-sensitive policies, and report relative
 * cost savings across (policy, cost ratio, HAF) sweeps.
 *
 * LRU is cost-blind, so its *miss profile* (how many times each block
 * misses) is independent of the cost model.  The study therefore
 * replays LRU once per trace and re-weights the profile for every
 * cost model, which keeps the Figure 3 sweep (hundreds of cost
 * points) tractable.
 *
 * The study is also the one home of the offline oracles (OPT and the
 * greedy CostOPT~): they need the whole future, so run() computes
 * them in one L2-only pass over the trace instead of through a
 * ReplacementPolicy, which makePolicy refuses to build for them.
 */

#ifndef CSR_SIM_TRACESTUDY_H
#define CSR_SIM_TRACESTUDY_H

#include <unordered_map>

#include "sim/TraceSimulator.h"
#include "trace/SampledTrace.h"

namespace csr
{

/** Per-block LRU miss counts. */
using MissProfile = std::unordered_map<Addr, std::uint64_t>;

/**
 * One trace + hierarchy, many policies and cost models.
 */
class TraceStudy
{
  public:
    TraceStudy(const SampledTrace &trace, TraceSimConfig config = {});

    /** Aggregate cost under plain LRU for an arbitrary cost model
     *  (re-weights the cached LRU miss profile). */
    double lruCost(const CostModel &model) const;

    /** LRU miss count (cost-model independent). */
    std::uint64_t lruMissCount() const { return lruMisses_; }

    /** Full simulation of one policy under one cost model.  The
     *  offline kinds (Opt, CostOpt) run L2-only whatever
     *  config().useL1 says, with 0 L1 hits and 0 policy counters. */
    TraceSimResult run(PolicyKind kind, const CostModel &model,
                       const PolicyParams &params = {}) const;

    /** Relative cost savings of a policy over LRU, percent. */
    double savingsPct(PolicyKind kind, const CostModel &model,
                      const PolicyParams &params = {}) const;

  private:
    const SampledTrace *trace_;
    TraceSimConfig config_;
    MissProfile lruProfile_;
    std::uint64_t lruMisses_ = 0;
};

} // namespace csr

#endif // CSR_SIM_TRACESTUDY_H
