/**
 * @file
 * Whole-system assembly of the CC-NUMA simulator (Section 4 setup):
 * nodes (processor + caches + directory slice + memory) on a mesh,
 * driven by a SyntheticWorkload, with first-touch block placement.
 */

#ifndef CSR_NUMA_NUMASYSTEM_H
#define CSR_NUMA_NUMASYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "numa/CacheController.h"
#include "numa/Directory.h"
#include "numa/Event.h"
#include "numa/LatencyCorrelator.h"
#include "numa/Network.h"
#include "numa/NumaConfig.h"
#include "numa/Processor.h"
#include "telemetry/MetricRegistry.h"
#include "trace/Workload.h"

namespace csr
{

/** Aggregate results of one NUMA run. */
struct NumaResult
{
    std::string policyName;
    Tick execTimeNs = 0;          ///< slowest processor's finish time
    std::uint64_t totalOps = 0;
    std::uint64_t totalMisses = 0;
    double avgMissLatencyNs = 0.0;
    double aggregateMissLatencyNs = 0.0;
    NumaCounters counters;        ///< every component's, summed
    PolicyCounters policyCounters; ///< every L2 policy's, summed
    /** Miss-latency accumulator merged across nodes (ns). */
    RunningStat missLatencyStat;
    /** Miss-latency distribution merged across nodes (ns). */
    Histogram missLatencyHist;

    /** Dump everything into the unified metric schema under
     *  "numa.": every counter (zeros included; the policy's under
     *  "numa.policy."), the miss-latency stat and its histogram. */
    void exportMetrics(MetricRegistry &registry) const;
};

/**
 * A 16-node (by default) CC-NUMA machine.
 *
 * Workload processors are mapped 1:1 onto nodes; if the workload has
 * fewer processors than the mesh has nodes, the extra nodes still
 * serve as homes/memory but run no program.
 */
class NumaSystem
{
  public:
    NumaSystem(const NumaConfig &config, const SyntheticWorkload &workload);

    /** Run to completion.  @return aggregate results. */
    NumaResult run();

    /** The Table 3 matrix accumulated during the run. */
    const LatencyCorrelator &correlator() const { return correlator_; }

    /** Component access for tests. */
    CacheController &cache(ProcId node) { return *caches_[node]; }
    DirectoryController &directory(ProcId node) { return *dirs_[node]; }
    MeshNetwork &network() { return *network_; }
    EventQueue &events() { return events_; }

    /** Verify the single-writer / multi-reader invariant across all
     *  caches for every block any directory knows about; throws
     *  InvariantError on violation.  Called by tests, at end of
     *  run(), and on the validateEveryEvents cadence. */
    void checkCoherenceInvariant() const;

    /**
     * Human-readable dump of the component state a hang post-mortem
     * needs: per-node processor progress, MSHR occupancy, directory
     * pending transactions, network link business and the event
     * queue depth.  This is what the stall watchdog attaches to
     * SimulationStallError.
     */
    std::string diagnosticSnapshot() const;

  private:
    /** Monotone progress measure: ops issued + misses completed.
     *  Frozen progress across a stall window means a hang. */
    std::uint64_t progressCount() const;

    NumaConfig config_;
    EventQueue events_;
    HomeMap homes_;
    std::unique_ptr<MeshNetwork> network_;
    std::vector<std::unique_ptr<CacheController>> caches_;
    std::vector<std::unique_ptr<DirectoryController>> dirs_;
    std::vector<std::unique_ptr<Processor>> procs_;
    LatencyCorrelator correlator_;
};

} // namespace csr

#endif // CSR_NUMA_NUMASYSTEM_H
