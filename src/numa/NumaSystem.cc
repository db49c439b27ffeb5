#include "numa/NumaSystem.h"

#include <cinttypes>
#include <cstdio>

#include "robust/Errors.h"
#include "robust/FaultInjector.h"
#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

namespace
{

/** Watchdog cadence: budget/stall/validate checks every this many
 *  events.  Cheap relative to event dispatch, fine-grained enough
 *  that a stalled run is caught within the window. */
constexpr std::uint64_t kWatchdogEveryEvents = 4096;

/** Messages bound for the home-side controller. */
bool
isDirectoryBound(MsgType type)
{
    switch (type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::PutS:
      case MsgType::PutE:
      case MsgType::InvAck:
      case MsgType::FetchResp:
      case MsgType::FetchStale:
        return true;
      default:
        return false;
    }
}

} // namespace

NumaSystem::NumaSystem(const NumaConfig &config,
                       const SyntheticWorkload &workload)
    : config_(config), correlator_(config.cycleNs)
{
    const std::uint32_t nodes = config_.numNodes();
    csr_assert(workload.numProcs() <= nodes,
               "workload has more processors than mesh nodes");

    network_ = std::make_unique<MeshNetwork>(config_, events_);
    for (ProcId n = 0; n < nodes; ++n) {
        caches_.push_back(std::make_unique<CacheController>(
            n, config_, events_, *network_, homes_));
        dirs_.push_back(std::make_unique<DirectoryController>(
            n, config_, events_, *network_));
        dirs_.back()->setMissObserver(
            [this](const MissService &service) {
                correlator_.observe(service);
            });
        network_->attach(n, [this, n](const Message &msg) {
            if (isDirectoryBound(msg.type))
                dirs_[n]->receive(msg);
            else
                caches_[n]->receive(msg);
        });
    }
    for (ProcId p = 0; p < workload.numProcs(); ++p) {
        procs_.push_back(std::make_unique<Processor>(
            p, config_, events_, *caches_[p], workload.procStream(p)));
    }
}

std::uint64_t
NumaSystem::progressCount() const
{
    std::uint64_t progress = 0;
    for (const auto &proc : procs_)
        progress += proc->opsIssued();
    for (const auto &cache : caches_)
        progress += cache->missLatencyStat().count();
    return progress;
}

NumaResult
NumaSystem::run()
{
    CSR_TRACE_SPAN("numa", "NumaSystem::run");
    for (auto &proc : procs_)
        proc->start();

    // The guarded event loop: a plain events_.run() would simply hang
    // on a protocol livelock.  Every kWatchdogEveryEvents events the
    // loop checks the simulated-time budget, the forward-progress
    // watchdog, and (when configured) the coherence invariant, and
    // converts a hang into SimulationStallError carrying a snapshot.
    std::uint64_t events = 0;
    std::uint64_t last_progress = progressCount();
    Tick last_progress_seen = events_.now();
    while (events_.step()) {
        if (++events % kWatchdogEveryEvents != 0)
            continue;
        CSR_FAULT_POINT(FaultSite::NumaSim, "numa event loop");
        if (config_.maxSimNs != 0 && events_.now() > config_.maxSimNs) {
            throw SimulationStallError(
                "simulated time " + std::to_string(events_.now()) +
                    " ns exceeded the cycle budget of " +
                    std::to_string(config_.maxSimNs) + " ns",
                diagnosticSnapshot());
        }
        if (config_.stallWindowNs != 0) {
            const std::uint64_t progress = progressCount();
            if (progress != last_progress) {
                last_progress = progress;
                last_progress_seen = events_.now();
            } else if (events_.now() - last_progress_seen >=
                       config_.stallWindowNs) {
                CSR_TRACE_INSTANT("numa", "stall-detected");
                throw SimulationStallError(
                    "no op retired and no miss completed for " +
                        std::to_string(events_.now() -
                                       last_progress_seen) +
                        " simulated ns (stall window " +
                        std::to_string(config_.stallWindowNs) +
                        " ns)",
                    diagnosticSnapshot());
            }
        }
        if (config_.validateEveryEvents != 0 &&
            events % config_.validateEveryEvents == 0)
            checkCoherenceInvariant();
    }

    NumaResult result;
    result.policyName = caches_.front()->policy().name();
    const auto sum = [](const char *, std::uint64_t &total,
                        std::uint64_t part) { total += part; };
    for (auto &proc : procs_) {
        if (!proc->done()) {
            // The queue drained with work unfinished: a lost message
            // or dropped wakeup, the other face of a deadlock.
            throw SimulationStallError(
                "event queue drained but a processor has not finished",
                diagnosticSnapshot());
        }
        result.execTimeNs = std::max(result.execTimeNs,
                                     proc->finishTime());
        result.totalOps += proc->opsIssued();
        forEachNumaCounter(sum, result.counters, proc->counters());
    }
    for (auto &cache : caches_) {
        const RunningStat &lat = cache->missLatencyStat();
        result.totalMisses += lat.count();
        result.aggregateMissLatencyNs += lat.sum();
        result.missLatencyStat.merge(lat);
        result.missLatencyHist.merge(cache->missLatencyHistogram());
        forEachNumaCounter(sum, result.counters, cache->counters());
        forEachPolicyCounter(sum, result.policyCounters,
                             cache->policy().counters());
    }
    for (auto &dir : dirs_)
        forEachNumaCounter(sum, result.counters, dir->counters());
    forEachNumaCounter(sum, result.counters, network_->counters());
    result.avgMissLatencyNs =
        result.totalMisses
            ? result.aggregateMissLatencyNs /
                  static_cast<double>(result.totalMisses)
            : 0.0;

    checkCoherenceInvariant();
    return result;
}

void
NumaResult::exportMetrics(MetricRegistry &registry) const
{
    forEachNumaCounter(
        [&registry](const char *name, std::uint64_t value) {
            registry.setCounter(std::string("numa.") + name, value);
        },
        counters);
    forEachPolicyCounter(
        [&registry](const char *name, std::uint64_t value) {
            registry.setCounter(std::string("numa.policy.") + name, value);
        },
        policyCounters);
    registry.setCounter("numa.exec_time_ns", execTimeNs);
    registry.setCounter("numa.total_ops", totalOps);
    registry.setCounter("numa.total_misses", totalMisses);
    registry.mergeStat("numa.miss_latency_ns", missLatencyStat);
    registry.mergeHistogram("numa.miss_latency_ns", missLatencyHist);
}

void
NumaSystem::checkCoherenceInvariant() const
{
    for (const auto &dir : dirs_) {
        for (const auto &[block, entry] : dir->entries()) {
            if (dir->busy(block))
                continue;
            std::uint32_t exclusive = 0;
            std::uint32_t shared = 0;
            for (const auto &cache : caches_) {
                if (!cache->hasLine(block))
                    continue;
                if (cache->lineState(block) == LineState::Shared)
                    ++shared;
                else
                    ++exclusive;
            }
            if (exclusive > 1)
                throw InvariantError(
                    "coherence violation: two exclusive holders of "
                    "block " + std::to_string(block));
            if (exclusive != 0 && shared != 0)
                throw InvariantError(
                    "coherence violation: exclusive and shared "
                    "holders of block " + std::to_string(block) +
                    " coexist");
        }
    }
}

std::string
NumaSystem::diagnosticSnapshot() const
{
    char line[160];
    std::string out = "--- numa diagnostic snapshot ---\n";
    std::snprintf(line, sizeof(line),
                  "time=%" PRIu64 " ns, pending events=%zu\n",
                  static_cast<std::uint64_t>(events_.now()),
                  events_.pending());
    out += line;
    for (std::size_t n = 0; n < caches_.size(); ++n) {
        std::uint64_t pending_txns = dirs_[n]->pendingTransactions();
        std::snprintf(
            line, sizeof(line),
            "node %2zu: mshrs=%zu/%u misses=%" PRIu64
            " dir-txns=%" PRIu64,
            n, caches_[n]->outstandingMisses(), config_.mshrs,
            static_cast<std::uint64_t>(
                caches_[n]->missLatencyStat().count()),
            pending_txns);
        out += line;
        if (n < procs_.size()) {
            std::snprintf(line, sizeof(line),
                          " proc: ops=%" PRIu64 "%s",
                          procs_[n]->opsIssued(),
                          procs_[n]->done() ? " done" : "");
            out += line;
        }
        out += '\n';
    }
    std::snprintf(line, sizeof(line), "network: busy links=%zu\n",
                  network_->busyLinks(events_.now()));
    out += line;
    out += "--------------------------------";
    return out;
}

} // namespace csr
