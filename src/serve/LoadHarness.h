/**
 * @file
 * Closed-loop load harness for CacheService.
 *
 * Replays a deterministic op stream -- synthetic (KeyGenerator) or a
 * recorded .csrt trace (HarnessConfig::replayPath) -- against a
 * service from N worker threads and reports throughput, hit ratio and
 * end-to-end latency percentiles; net/ClientLoad.h sends the same
 * plan over RESP.  Reproducibility contract, same as the sweep
 * engine's: with shard affinity on (the default), the deterministic
 * outputs -- hit counts, miss counts, aggregate miss cost -- are
 * bit-identical for ANY worker count, because
 *
 *   1. the op stream is a pure function of (mix, seed), or of the
 *      trace file's bytes when replaying,
 *   2. ops are partitioned by owning shard, whole shards are assigned
 *      to workers round-robin, and each worker replays its share in
 *      global stream order -- so every shard sees the same op
 *      subsequence in the same order regardless of worker count, and
 *   3. the synthetic backend's latencies are pure functions of
 *      (seed, key, per-key ordinal).
 *
 * With --affinity free the partition is strided op-by-op instead:
 * workers then contend on shard locks (the realistic mode, and what
 * the TSan soak exercises), at the price of an interleaving- and
 * worker-count-dependent outcome.
 */

#ifndef CSR_SERVE_LOADHARNESS_H
#define CSR_SERVE_LOADHARNESS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/CacheService.h"
#include "serve/KeyGenerator.h"
#include "util/Stats.h"
#include "util/Table.h"

namespace csr
{
class MetricRegistry;
}

namespace csr::serve
{

/** Load-harness parameters. */
struct HarnessConfig
{
    std::uint64_t ops = 1'000'000;
    /** Non-empty: replay this .csrt trace (replay/TraceReader.h)
     *  instead of generating a synthetic stream -- Get/Set/Del
     *  records become get/put/del ops in trace order, and the mix
     *  flags are ignored.  ops then bounds the replay (0 = the whole
     *  trace, the --replay default). */
    std::string replayPath;
    /** Worker threads; 0 = one per hardware thread. */
    unsigned workers = 1;
    /** Aggregate target throughput; 0 = unpaced (closed loop at full
     *  speed). */
    double targetQps = 0.0;
    WorkloadMix mix;
    std::uint64_t seed = 1;
    /** Partition ops so each shard is driven by exactly one worker
     *  (deterministic); false = strided free-for-all. */
    bool shardAffinity = true;
    /** True when the backend burns real wall-clock time (spin mode):
     *  simulated latency is then already inside the measured op time
     *  and must not be added again. */
    bool backendIsReal = false;

    /**
     * Read --ops --workers --qps --affinity --spin --replay plus the
     * workload-mix flags (--workload --keys --zipf-theta --hot-frac
     * --hot-prob --write-frac --seed) out of @p args; the result is
     * validate()d.  With --replay, an omitted --ops means the whole
     * trace.  @throws ConfigError listing accepted values.
     */
    static HarnessConfig fromArgs(const CliArgs &args);

    /** @throws ConfigError on invalid pacing parameters. */
    void validate() const;
};

/** The deterministic payload a write op carries for @p key: a pure
 *  function of (seed, key), shared by the in-process workers and the
 *  network client so a wire run's server-side state is comparable to
 *  an in-process run's. */
std::uint64_t harnessPayload(std::uint64_t seed, Addr key);

/** Everything one harness run produced. */
struct HarnessResult
{
    ServeTotals totals;      ///< deterministic service counters
    std::uint64_t ops = 0;
    unsigned workers = 1;
    double wallSec = 0.0;    ///< serving phase only (not generation)
    double qps = 0.0;
    /** End-to-end per-op latency (lock wait + service + backend). */
    Histogram opLatencyNs;
    /** Backend fetch latency of read misses (the online miss cost). */
    Histogram missLatencyNs;

    /** The deterministic outputs only: byte-identical across worker
     *  counts under shard affinity (drivers print this to stdout). */
    TextTable summaryTable(const std::string &title) const;

    /** Wall-clock outputs: throughput and latency percentiles
     *  (drivers print this to stderr to keep stdout diffable). */
    TextTable timingTable() const;

    /** One JSON object with both halves (the per-policy row of
     *  bench_serve_policies and `csrserve --json`). */
    void writeJsonObject(std::ostream &os, const std::string &policy,
                        const std::string &workload,
                        int indent = 0) const;

    /** Export into @p registry under "serve." (counters, wall timer,
     *  latency histograms). */
    void exportMetrics(MetricRegistry &registry) const;
};

/** @p config's stream, generated or decoded, split into @p parts
 *  runs in stream order: by ShardMap(@p shards)(key) % @p parts under
 *  shard affinity, else op i to run i % @p parts. */
std::vector<std::vector<Op>> planOps(const HarnessConfig &config,
                                     unsigned shards, unsigned parts);

/** The latency samples one part records. */
struct PartLatency
{
    Histogram opLatencyNs;
    Histogram missLatencyNs;
};

/** Replays one part: (index, its ops, its samples). */
using PartRunner = std::function<void(
    std::size_t part, const std::vector<Op> &run, PartLatency &latency)>;

/** One load loop for both transports: hand each planOps run to
 *  @p drive on a ThreadPool (the first failure is rethrown) and fill
 *  everything in the result but totals. */
HarnessResult driveLoad(const HarnessConfig &config, unsigned shards,
                        unsigned parts, const PartRunner &drive);

/**
 * Run @p config's op stream against @p service.  The service's
 * counters are expected to start at zero (use a fresh service per
 * run).  @throws ConfigError on invalid parameters.
 */
HarnessResult runLoad(CacheService &service,
                      const HarnessConfig &config);

} // namespace csr::serve

#endif // CSR_SERVE_LOADHARNESS_H
