/**
 * @file
 * Trace-driven two-level cache simulator (Section 3 methodology).
 *
 * Models the memory hierarchy the paper's trace study uses: a small
 * direct-mapped L1 above the L2 to which the cost-sensitive
 * replacement algorithm is applied.  The input is a sampled-processor
 * trace (the processor's accesses plus other processors' writes);
 * remote writes invalidate matching blocks in L1, L2 and the
 * policy's ETD.  The figure of merit is the aggregate miss cost of
 * the sampled processor's L2 misses under a static cost model.
 *
 * Both levels are CacheModel instances; the L1 is policy-less (a
 * direct-mapped filter), the L2 owns the replacement policy and the
 * shared access protocol.  Timing is not modelled here -- that is the
 * NUMA simulator's job.
 */

#ifndef CSR_SIM_TRACESIMULATOR_H
#define CSR_SIM_TRACESIMULATOR_H

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/CacheModel.h"
#include "cache/PolicyFactory.h"
#include "cost/CostModel.h"
#include "telemetry/MetricRegistry.h"
#include "trace/TraceRecord.h"

namespace csr
{

/** Cadence of the fault-injection probe in the replay loops (this
 *  simulator and TraceStudy's offline pass): cheap enough to leave in
 *  every build, frequent enough that realistic fault rates hit
 *  mid-simulation. */
constexpr std::uint64_t kFaultProbeEveryRefs = 4096;

/** Hierarchy configuration for the trace study (paper defaults). */
struct TraceSimConfig
{
    /** Disable to expose every reference to the L2.  TraceStudy's
     *  offline oracles always run L2-only, whatever this says. */
    bool useL1 = true;
    std::uint64_t l1Bytes = 4 * 1024;
    std::uint64_t l2Bytes = 16 * 1024;
    std::uint32_t l2Assoc = 4;
    std::uint32_t blockBytes = 64;
    /** Record per-block L2 miss counts in the result (used by
     *  TraceStudy to re-weight an LRU run under many cost models). */
    bool collectMissProfile = false;
    /** Run CacheModel/policy invariant checks every N sampled refs
     *  (--validate); 0 disables them.  A violation raises
     *  InvariantError instead of silently corrupting results. */
    std::uint64_t validateEveryRefs = 0;
};

/** Counters and the aggregate cost of one simulation. */
struct TraceSimResult
{
    std::string policyName;
    std::uint64_t sampledRefs = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t highCostMisses = 0; ///< misses costing > the minimum seen
    std::uint64_t invalidationsReceived = 0;
    double aggregateCost = 0.0;
    PolicyCounters policyCounters;
    /** Per-block miss counts (only when collectMissProfile is set). */
    std::unordered_map<Addr, std::uint64_t> missProfile;

    /** Dump everything into the unified metric schema under
     *  "trace." (all policy counters, zeros included, under
     *  "trace.policy."). */
    void exportMetrics(MetricRegistry &registry) const;
};

/**
 * The simulator itself.  One instance per (policy, cost model) run;
 * run() may be called once per instance.
 */
class TraceSimulator
{
  public:
    TraceSimulator(const TraceSimConfig &config, PolicyPtr policy,
                   const CostModel &cost_model);

    /**
     * Replay a sampled trace.
     * @param records     interleaved records (sampled accesses +
     *                    remote writes)
     * @param sampled_proc processor whose accesses are simulated
     */
    TraceSimResult run(const std::vector<TraceRecord> &records,
                       ProcId sampled_proc);

  private:
    void handleRemoteWrite(Addr addr);
    void handleSampledAccess(Addr addr);
    /** --validate pass: throws InvariantError on corrupted state. */
    void checkInvariants() const;

    TraceSimConfig config_;
    CacheModel l1_; ///< direct-mapped filter, policy-less
    CacheModel l2_; ///< owns the replacement policy
    const CostModel &costModel_;
    TraceSimResult result_;
    Cost minCostSeen_;
};

/** Relative cost savings over LRU, in percent (the paper's metric). */
double relativeCostSavings(double lru_cost, double alg_cost);

} // namespace csr

#endif // CSR_SIM_TRACESIMULATOR_H
