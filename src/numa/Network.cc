#include "numa/Network.h"

#include <algorithm>

#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

MeshNetwork::MeshNetwork(const NumaConfig &config, EventQueue &events)
    : config_(config), events_(events), sinks_(config.numNodes()),
      linkFree_(static_cast<std::size_t>(config.numNodes()) * 4, 0)
{
}

void
MeshNetwork::attach(ProcId id, Deliver sink)
{
    csr_assert(id < sinks_.size(), "node id out of range");
    sinks_[id] = std::move(sink);
}

std::uint32_t
MeshNetwork::hops(ProcId src, ProcId dst) const
{
    const auto dx = static_cast<std::int32_t>(colOf(src)) -
                    static_cast<std::int32_t>(colOf(dst));
    const auto dy = static_cast<std::int32_t>(rowOf(src)) -
                    static_cast<std::int32_t>(rowOf(dst));
    return static_cast<std::uint32_t>(std::abs(dx) + std::abs(dy));
}

Tick
MeshNetwork::unloadedLatency(ProcId src, ProcId dst, bool data) const
{
    if (src == dst)
        return config_.localBusNs;
    const std::uint32_t flits =
        data ? config_.dataFlits : config_.ctrlFlits;
    const std::uint32_t h = hops(src, dst);
    // Cut-through: head flit pays router+flit per hop; the body
    // serializes behind it once (on the narrowest -- here every --
    // link).
    return 2 * config_.nicNs + h * (config_.routerNs + config_.flitNs) +
           Tick{flits - 1} * config_.flitNs;
}

std::size_t
MeshNetwork::linkIndex(ProcId a, ProcId b) const
{
    // Direction: 0=east, 1=west, 2=south, 3=north.
    std::size_t dir;
    if (rowOf(a) == rowOf(b))
        dir = colOf(b) == colOf(a) + 1 ? 0 : 1;
    else
        dir = rowOf(b) == rowOf(a) + 1 ? 2 : 3;
    return static_cast<std::size_t>(a) * 4 + dir;
}

std::vector<ProcId>
MeshNetwork::route(ProcId src, ProcId dst) const
{
    std::vector<ProcId> path;
    path.push_back(src);
    ProcId cur = src;
    // X first.
    while (colOf(cur) != colOf(dst)) {
        cur = colOf(cur) < colOf(dst) ? cur + 1 : cur - 1;
        path.push_back(cur);
    }
    // Then Y.
    while (rowOf(cur) != rowOf(dst)) {
        cur = rowOf(cur) < rowOf(dst) ? cur + config_.meshCols
                                      : cur - config_.meshCols;
        path.push_back(cur);
    }
    return path;
}

void
MeshNetwork::send(const Message &msg)
{
    csr_assert(msg.dst < sinks_.size() && sinks_[msg.dst],
               "send to unattached node");
    const Tick now = events_.now();
    ++counters_.netMessages;

    if (msg.src == msg.dst) {
        // Intra-node: local bus only.
        ++counters_.netLocal;
        events_.schedule(now + config_.localBusNs,
                         [this, msg] { sinks_[msg.dst](msg); });
        return;
    }

    const bool data = carriesData(msg.type);
    const std::uint32_t flits =
        data ? config_.dataFlits : config_.ctrlFlits;
    const Tick occupancy = Tick{flits} * config_.flitNs;
    counters_.netFlits += flits;

    // Head-flit progression with per-link availability.
    Tick head = now + config_.nicNs;
    const auto path = route(msg.src, msg.dst);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const std::size_t link = linkIndex(path[i], path[i + 1]);
        Tick &free_at = linkFree_[link];
        const Tick start = std::max(head, free_at);
        const Tick queued = start - head;
        if (queued > 0)
            counters_.netQueueNs += queued;
        free_at = start + occupancy;
        head = start + config_.routerNs + config_.flitNs;
    }
    // Tail serialization once (cut-through) plus ejection NIC.
    const Tick arrival =
        head + Tick{flits - 1} * config_.flitNs + config_.nicNs;

    counters_.netHopTotal += hops(msg.src, msg.dst);
    CSR_TRACE_INSTANT_V("numa", "net.msg_latency_ns", arrival - now);
    events_.schedule(arrival, [this, msg] { sinks_[msg.dst](msg); });
}

} // namespace csr
