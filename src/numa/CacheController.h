/**
 * @file
 * Node-side cache hierarchy: direct-mapped L1 over a set-associative
 * L2 with MSHRs, a pluggable (cost-sensitive) replacement policy and
 * the Section 4.1 miss-latency measurement/prediction machinery.
 *
 * The L2 is the coherence point (MESI states live in its CacheModel's
 * aux words); the L1 is a strict-subset filter kept inclusive by
 * invalidating on L2 eviction/invalidation.  Misses are timestamped at
 * issue; when the data reply arrives, the measured latency becomes
 * both the predictor's new value for the block and the fill cost
 * handed to the replacement policy -- i.e. the predicted cost of the
 * block's *next* miss is the last measured latency, exactly the
 * paper's prediction scheme.
 */

#ifndef CSR_NUMA_CACHECONTROLLER_H
#define CSR_NUMA_CACHECONTROLLER_H

#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/CacheModel.h"
#include "cache/PolicyFactory.h"
#include "cost/LatencyPredictor.h"
#include "numa/Directory.h"
#include "numa/Event.h"
#include "numa/Network.h"
#include "numa/NumaConfig.h"
#include "util/Stats.h"

namespace csr
{

/** Synchronous outcome of a processor access. */
enum class AccessOutcome
{
    HitL1,
    HitL2,
    Miss, ///< an MSHR is (now) pending; completion arrives by callback
};

/** L2 MESI state kept in the cache model's aux word. */
enum class LineState : std::uint32_t
{
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
};

/** One node's L1 + L2 + MSHRs. */
class CacheController
{
  public:
    /** Miss-completion callback: fires at the tick the data became
     *  available. */
    using MissDone = std::function<void(Tick)>;

    CacheController(ProcId node, const NumaConfig &config,
                    EventQueue &events, MeshNetwork &network,
                    HomeMap &homes);

    /**
     * Processor-issued access at the current event time.
     * @return the outcome; on Miss, @p done fires at completion
     *         (possibly after a chained upgrade).
     */
    AccessOutcome access(Addr byte_addr, bool write, MissDone done);

    /** Handle a cache-bound protocol message. */
    void receive(const Message &msg);

    /** Outstanding MSHR count (processor back-pressure). */
    std::size_t outstandingMisses() const { return mshrs_.size(); }

    const StatGroup &stats() const { return stats_; }
    const LatencyPredictor &predictor() const { return predictor_; }
    ReplacementPolicy &policy() { return *l2_.policy(); }

    /** Introspection for protocol tests. */
    bool hasLine(Addr block) const;
    LineState lineState(Addr block) const;

  private:
    Addr blockOf(Addr byte_addr) const
    {
        return byte_addr >> l2Geom_.blockBits();
    }
    Addr byteOf(Addr block) const { return block << l2Geom_.blockBits(); }

    /** Start a GetS/GetX transaction for a block. */
    void issueRequest(Addr block, bool write, bool upgrade);

    /** Handle an arriving data reply. */
    void handleData(const Message &msg);

    /** Install a block into the L2 (evicting if needed) and the L1. */
    void installLine(Addr block, LineState state, Cost cost);

    /** Victim disposal on L2 eviction (writeback / hints / L1 scrub). */
    void disposeVictim(std::uint32_t set, Addr victim_tag,
                       std::uint32_t victim_aux);

    void invalidateL1(Addr block);
    void installL1(Addr block);

    void sendToHome(MsgType type, Addr block, Tick timestamp);

    struct Mshr
    {
        bool write = false;
        bool upgrade = false; ///< line held in S, waiting for DataM
        Tick issued = 0;
        std::vector<std::pair<bool, MissDone>> waiters; // (write, cb)
    };

    ProcId node_;
    NumaConfig config_;
    EventQueue &events_;
    MeshNetwork &network_;
    HomeMap &homes_;
    CacheGeometry l1Geom_;
    CacheGeometry l2Geom_;
    CacheModel l1_; ///< direct-mapped filter, policy-less
    CacheModel l2_; ///< owns the replacement policy; aux = MESI state
    LatencyPredictor predictor_;
    std::unordered_map<Addr, Mshr> mshrs_;
    StatGroup stats_;
    RunningStat missLatency_;
    Histogram missLatencyHist_;

  public:
    /** Measured miss latencies (ns). */
    const RunningStat &missLatencyStat() const { return missLatency_; }

    /** Measured miss-latency distribution (ns). */
    const Histogram &missLatencyHistogram() const
    {
        return missLatencyHist_;
    }
};

} // namespace csr

#endif // CSR_NUMA_CACHECONTROLLER_H
