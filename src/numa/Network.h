/**
 * @file
 * 4x4 mesh interconnection network (Table 4).
 *
 * Dimension-order (X then Y) routed mesh with 64-bit links and 6 ns
 * flit delay.  The timing model is virtual cut-through with per-link
 * serialization: a message occupies each link on its path for
 * flits * flitNs; contention is modelled by per-link busy-until
 * times, so congested links delay messages realistically without
 * simulating individual flits.  Every network crossing also pays the
 * NIC injection/ejection overhead.
 */

#ifndef CSR_NUMA_NETWORK_H
#define CSR_NUMA_NETWORK_H

#include <functional>
#include <vector>

#include "numa/Event.h"
#include "numa/NumaConfig.h"
#include "numa/NumaCounters.h"
#include "numa/Protocol.h"

namespace csr
{

/** Mesh network with dimension-order routing and link contention. */
class MeshNetwork
{
  public:
    using Deliver = std::function<void(const Message &)>;

    MeshNetwork(const NumaConfig &config, EventQueue &events);

    /** Register node @p id's message sink. */
    void attach(ProcId id, Deliver sink);

    /**
     * Send a message now.  Delivery is scheduled through the mesh
     * with contention; src == dst messages skip the network and pay
     * only the local bus delay.
     */
    void send(const Message &msg);

    /** Manhattan hop count between two nodes. */
    std::uint32_t hops(ProcId src, ProcId dst) const;

    /** Unloaded (zero-contention) one-way latency of a message. */
    Tick unloadedLatency(ProcId src, ProcId dst, bool data) const;

    /** Directed links still busy at @p now (stall diagnostics). */
    std::size_t
    busyLinks(Tick now) const
    {
        std::size_t n = 0;
        for (const Tick free : linkFree_)
            n += free > now ? 1 : 0;
        return n;
    }

    const NumaCounters &counters() const { return counters_; }

  private:
    std::uint32_t colOf(ProcId id) const { return id % config_.meshCols; }
    std::uint32_t rowOf(ProcId id) const { return id / config_.meshCols; }

    /** Link index for the hop from node a toward adjacent node b. */
    std::size_t linkIndex(ProcId a, ProcId b) const;

    /** Nodes along the dimension-order route (inclusive endpoints). */
    std::vector<ProcId> route(ProcId src, ProcId dst) const;

    NumaConfig config_;
    EventQueue &events_;
    std::vector<Deliver> sinks_;
    /** busy-until per directed link (4 directions per node). */
    std::vector<Tick> linkFree_;
    NumaCounters counters_;
};

} // namespace csr

#endif // CSR_NUMA_NETWORK_H
