/**
 * @file
 * High-throughput .csrt replay straight through CacheModel.
 *
 * The replayer drives the paper's policies with a recorded KV trace:
 * every record's 64-bit key becomes a block-granular address (key ->
 * set/tag through CacheGeometry), GETs are lookups with a
 * fill-on-miss, SETs are write-allocates, DELs are invalidations, and
 * the per-record cost hint (falling back to --default-cost) is the
 * miss cost the cost-sensitive policies optimize.
 *
 * Determinism contract, same as the sweep engine's and the serve
 * harness's: the deterministic outputs are byte-identical for ANY
 * --jobs value.  The partition that makes that true is by cache SET,
 * not by trace segment -- job j owns every set s with s % jobs == j,
 * runs its own CacheModel + policy instance, and replays only the
 * owned subsequence, each set's records in global trace order.  Sets
 * are independent in CacheModel and in every policy (victim selection,
 * recency, ETDs, ACL counters and RandomPolicy's draws are all per
 * set), so order ACROSS sets is free, and the merged counters equal a
 * single-threaded run's exactly.  Cost totals accumulate in integer
 * nanoseconds, so the merge is associative -- no floating-point
 * reassociation across jobs.
 *
 * One decode stage feeds the jobs at every --jobs value, 1 included:
 * a decoder thread decodes each block exactly once (one TraceReader,
 * TraceReader::readBlock with Projection::Replay), applies --max-ops,
 * and writes each record as a precomputed (set, tag, op, cost) entry
 * into the run of the job that owns its set.  A job's run of a block
 * is grouped by set, in ascending set order, so the job walks its set
 * state in address order instead of one random set per record: one
 * stable counting sort on (owning job, set bucket).  A bucket is one
 * set until a job owns more sets than a block has records per job;
 * then it is 2^k consecutive sets, so the sort's counters and scratch
 * (a set, a bucket and a sorted index per record, 4 bytes each) stay
 * O(block) for any geometry.  The runs of one block share a slot of
 * a fixed ring of 8 blocks; job j replays its run of block b, in block
 * order, and the decoder refills b's slot with block b + 8 once every
 * job is done with it.  So replay runs --jobs threads plus the
 * decoder, every wait blocks in std::atomic::wait (no hand-written
 * spin), and the ring holds at most 8 x records per block x 24 bytes
 * of entries (768 KiB at the default 4096-record block).  A decode
 * error stops every thread and is rethrown as the same
 * TraceFormatError.
 */

#ifndef CSR_REPLAY_REPLAYER_H
#define CSR_REPLAY_REPLAYER_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "cache/PolicyFactory.h"
#include "replay/TraceReader.h"
#include "util/Table.h"

namespace csr
{
class CliArgs;
}

namespace csr::replay
{

/** Replay parameters (csrsim replay's flag surface). */
struct ReplayConfig
{
    std::string path;
    std::uint64_t cacheBytes = 1 << 20;
    std::uint32_t assoc = 8;
    std::uint32_t blockBytes = 64;
    PolicyKind policy = PolicyKind::Lru;
    PolicyParams policyParams;
    /** Replay threads (the decoder is one more); 0 = one per
     *  hardware thread. */
    unsigned jobs = 1;
    /** Replay only the first N records; 0 = the whole trace. */
    std::uint64_t maxOps = 0;
    /** Miss cost in ns for records whose cost hint is 0.  Integral on
     *  purpose: cost totals sum exactly, in any order. */
    std::uint64_t defaultCostNs = 1000;
    ReadMode readMode = ReadMode::Mmap;

    /**
     * Read --file --cache-bytes --assoc --block-bytes --policy
     * --alias-bits --depreciation --jobs --max-ops --default-cost
     * --read-mode --seed out of @p args; the result is validate()d.
     * @throws ConfigError listing accepted values.
     */
    static ReplayConfig fromArgs(const CliArgs &args);

    /** @throws ConfigError on invalid parameters (offline policies,
     *  zero default cost, missing file path). */
    void validate() const;
};

/** Deterministic replay counters: a pure function of (trace, config),
 *  byte-identical for any jobs count. */
struct ReplayTotals
{
    std::uint64_t ops = 0;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t dels = 0;
    std::uint64_t hits = 0;      ///< GET hits
    std::uint64_t misses = 0;    ///< GET misses
    std::uint64_t setHits = 0;   ///< SETs that found the key resident
    std::uint64_t evictions = 0;
    /** Sum of miss costs of GET misses, exact integer ns. */
    std::uint64_t missCostNs = 0;
    /** Sum of SET costs (write-through charge), exact integer ns. */
    std::uint64_t storeCostNs = 0;

    bool operator==(const ReplayTotals &) const = default;

    double
    hitRatio() const
    {
        return gets ? static_cast<double>(hits) /
                          static_cast<double>(gets)
                    : 0.0;
    }
};

/** The one list of ReplayTotals counters, in --json order: calls
 *  @p visit(key, metric, field...) per counter with its JSON name,
 *  its --metrics name (nullptr: not exported there) and that member
 *  of each object in @p o.  hitRatio does not sum, so only a
 *  one-object walk visits it (as a temporary). */
template <typename Visit, typename... T>
void
forEachReplayCounter(Visit &&visit, T &...o)
{
    visit("ops", "replay.ops", o.ops...);
    visit("gets", "replay.gets", o.gets...);
    visit("sets", "replay.sets", o.sets...);
    visit("dels", "replay.dels", o.dels...);
    visit("hits", "replay.hits", o.hits...);
    visit("misses", "replay.misses", o.misses...);
    if constexpr (sizeof...(T) == 1)
        visit("hitRatio", nullptr, o.hitRatio()...);
    visit("setHits", "replay.set_hits", o.setHits...);
    visit("evictions", "replay.evictions", o.evictions...);
    visit("missCostNs", "replay.miss_cost_ns", o.missCostNs...);
    visit("storeCostNs", "replay.store_cost_ns", o.storeCostNs...);
}

/** Everything one replay run produced. */
struct ReplayResult
{
    ReplayTotals totals;
    std::uint64_t traceRecords = 0; ///< records in the file
    unsigned jobs = 1;
    double wallSec = 0.0;
    /** Decode-stage busy time: readBlock plus partitioning. */
    double decodeSec = 0.0;
    /** Time the jobs spent blocked on the decode stage, summed. */
    double waitSec = 0.0;

    double
    opsPerSec() const
    {
        return wallSec > 0.0
                   ? static_cast<double>(totals.ops) / wallSec
                   : 0.0;
    }

    double opsPerMin() const { return opsPerSec() * 60.0; }

    /** Deterministic outputs only (drivers print this to stdout). */
    TextTable summaryTable(const std::string &title) const;

    /** Wall-clock outputs (stderr, keeps stdout diffable). */
    TextTable timingTable() const;

    /** One JSON object (the per-policy row of bench_replay). */
    void writeJsonObject(std::ostream &os, const std::string &policy,
                         int indent = 0) const;
};

/** Replay @p config's trace.  @throws ConfigError on bad parameters,
 *  TraceFormatError on a malformed trace. */
ReplayResult replayTrace(const ReplayConfig &config);

} // namespace csr::replay

#endif // CSR_REPLAY_REPLAYER_H
