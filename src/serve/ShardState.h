/**
 * @file
 * The striped state behind one CacheService shard.
 *
 * A shard no longer owns a single CacheModel behind a single mutex:
 * it owns S independently locked *stripes* (DESIGN.md section 3.6).
 * Each Stripe is a complete miniature of the PR-6 shard -- its own
 * CacheModel + policy, value and sample lanes, ghost ring, mutex,
 * seqlock, deferred access log, and in-flight fetch table -- over a
 * set-aligned slice of the shard's sets.  Keys are routed to stripes
 * by their low set-index bits, so no cache set ever spans a lock and
 * two fills on different stripes never contend.
 *
 * Concurrency model per stripe (DESIGN.md sections 3.5-3.6):
 *
 *  - Writers -- miss fills, write-allocates, cost refreshes -- hold
 *    `mutex` and wrap every mutation of seqlock-probed state (tag
 *    lane, valid words, value lane) in a SeqlockWriteGuard.
 *
 *  - Per-key state lives where the cache already keeps the key: a
 *    resident key's EWMA cost estimate is its line's CacheModel cost,
 *    its sample count and value sit in `samples` and `values`; a key
 *    that left the cache is in `ghosts` (serve/GhostRing.h) or
 *    nowhere.  Nothing per key outlives twice the stripe's lines.
 *
 *  - Optimistic readers (the seqlock hit path) hold nothing: they
 *    bracket probeConcurrent() + loadValue() in a seqlock read
 *    section, push the hit into `accessLog` for deferred recency
 *    promotion, and bump the relaxed atomic counters.
 *
 *  - The policy's own state (recency words, ETD, reservations) is
 *    only ever touched under `mutex`; drainAccessLog() replays the
 *    optimistic hits into it before any locked op proceeds.  Because
 *    each stripe drains only its own log, one hot stripe cannot
 *    starve another stripe's promotions.
 *
 * Aggregate doubles (missCostNs, storeCostNs) are only mutated under
 * `mutex`; the integer counters are relaxed atomics because the
 * optimistic hit path increments gets/hits without the lock.
 */

#ifndef CSR_SERVE_SHARDSTATE_H
#define CSR_SERVE_SHARDSTATE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "cache/CacheModel.h"
#include "serve/AccessLog.h"
#include "serve/CircuitBreaker.h"
#include "serve/GhostRing.h"
#include "serve/InflightTable.h"
#include "serve/Seqlock.h"
#include "util/Atomics.h"

namespace csr::serve
{

struct Stripe
{
    /**
     * @param geom the *stripe-local* geometry (the shard geometry
     *   with numSets divided by the stripe count).
     * @param stripe_bits log2 of the shard's stripe count; a key's
     *   low @p stripe_bits set-index bits select the stripe, the
     *   bits above them select the set within it.
     */
    Stripe(const CacheGeometry &geom, PolicyPtr policy,
           std::uint32_t stripe_bits, std::size_t access_log_capacity)
        : model(geom, std::move(policy)), stripeBits(stripe_bits),
          values(static_cast<std::size_t>(geom.numSets()) *
                     geom.assoc(),
                 0),
          samples(values.size(), 0),
          ghosts(static_cast<std::uint32_t>(geom.numSets()),
                 geom.assoc()),
          accessLog(access_log_capacity)
    {
    }

    std::size_t
    idx(std::uint32_t set, int way) const
    {
        return static_cast<std::size_t>(set) *
                   model.geometry().assoc() +
               static_cast<std::size_t>(way);
    }

    /** Value-lane accessors; atomic so optimistic readers pair with
     *  lock-holding writers race-free (ordering from the seqlock). */
    std::uint64_t
    loadValue(std::uint32_t set, int way) const
    {
        return loadRelaxed(values[idx(set, way)]);
    }

    void
    storeValue(std::uint32_t set, int way, std::uint64_t value)
    {
        storeRelaxed(values[idx(set, way)], value);
    }

    /** Stripe-local set index of @p key (bits above the stripe id). */
    std::uint32_t
    setOf(Addr key) const
    {
        return static_cast<std::uint32_t>(
            (key >> stripeBits) & (model.geometry().numSets() - 1));
    }

    /** Stripe-local tag of @p key; equals the whole-shard tag since
     *  the stripe id bits sit below the set bits. */
    Addr
    tagOf(Addr key) const
    {
        return key >> (model.geometry().setBits() + stripeBits);
    }

    /** The state of resident line (@p set, @p way). */
    KeyHistory
    lineState(std::uint32_t set, int way) const
    {
        return {model.costAt(set, way), samples[idx(set, way)],
                loadValue(set, way)};
    }

    /** The state of non-resident @p tag: its ghost's, or a fresh one.
     *  The ghost stays in the ring until the key is admitted. */
    KeyHistory
    ghostOf(std::uint32_t set, Addr tag) const
    {
        const int slot = ghosts.find(set, tag);
        return slot == GhostRing::kNone ? KeyHistory{}
                                        : ghosts.entry(set, slot);
    }

    /** Fold a measured latency into resident line (@p set, @p way)'s
     *  estimate and push the new prediction to the policy. */
    void
    observeLine(std::uint32_t set, int way, double latency_ns,
                double alpha)
    {
        KeyHistory state = lineState(set, way);
        state.observe(latency_ns, alpha);
        samples[idx(set, way)] = state.samples;
        model.updateCost(set, way, state.ewmaNs);
    }

    /** Move resident line (@p set, @p way)'s state into the ring,
     *  before an eviction or DEL drops the line. */
    void
    retire(std::uint32_t set, int way)
    {
        ghosts.push(set, model.tagAt(set, way), lineState(set, way));
    }

    /**
     * Replay deferred optimistic hits into the policy, in log order.
     * Must hold `mutex`.  Runs before every locked op so that, at one
     * worker, the policy sees exactly the access sequence the fully
     * locked path would have produced.  An entry whose key was
     * evicted between the optimistic hit and the drain is dropped --
     * a stale recency hint, not a correctness problem.
     */
    void
    drainAccessLog()
    {
        accessLog.drain([&](Addr key) {
            const std::uint32_t set = setOf(key);
            const Addr tag = tagOf(key);
            const int way = model.lookup(set, tag);
            if (way != kInvalidWay)
                model.noteAccess(set, tag, way);
        });
    }

    std::mutex mutex;
    Seqlock seqlock;
    CacheModel model;
    /** log2(stripes per shard); fixed at construction. */
    std::uint32_t stripeBits;
    /** Per-line value, read by optimistic hits (atomic access). */
    std::vector<std::uint64_t> values;
    /** Per-line EWMA sample count (the key's backend salt); under
     *  `mutex`.  A valid line always has at least one. */
    std::vector<std::uint64_t> samples;
    GhostRing ghosts;
    AccessLog accessLog;
    InflightTable inflight;

    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> storeHits{0};
    std::atomic<std::uint64_t> evictions{0};
    /** Misses and write-allocates that resumed a ghost's state. */
    std::atomic<std::uint64_t> ghostHits{0};
    /** Hits served entirely without the stripe mutex. */
    std::atomic<std::uint64_t> seqlockHits{0};
    /** Optimistic read sections discarded by validation. */
    std::atomic<std::uint64_t> seqlockRetries{0};
    /** Optimistic attempts beaten by writer contention (retry budget
     *  exhausted) that fell back to the mutex. */
    std::atomic<std::uint64_t> lockedFallbacks{0};
    /** Optimistic hits whose recency promotion was dropped because
     *  the access log was full; the op fell back to the mutex. */
    std::atomic<std::uint64_t> logFullFallbacks{0};
    /** Actual Backend::fetch calls (== misses unless coalesced). */
    std::atomic<std::uint64_t> backendFetches{0};
    /** Misses that joined another thread's in-flight fetch. */
    std::atomic<std::uint64_t> coalescedMisses{0};
    /** Misses served a stale resident value while the shard's
     *  circuit breaker was open (--stale-while-broken). */
    std::atomic<std::uint64_t> staleServes{0};

    double missCostNs = 0.0;  // under mutex
    double storeCostNs = 0.0; // under mutex
};

/** One CacheService shard: an array of independently locked stripes
 *  plus the circuit breaker guarding its backend fetches.  The shard
 *  itself holds no lock -- stripe state serializes per stripe, the
 *  breaker carries its own (miss-path-only) mutex. */
struct Shard
{
    std::vector<std::unique_ptr<Stripe>> stripes;
    std::unique_ptr<CircuitBreaker> breaker;
};

} // namespace csr::serve

#endif // CSR_SERVE_SHARDSTATE_H
