/**
 * @file
 * csr::serve::CacheService -- a thread-safe, sharded, in-process
 * key-value cache whose replacement decisions are driven by the
 * paper's cost-sensitive policies, with the *online* cost of a block
 * being its measured backend fetch latency.
 *
 * Architecture (DESIGN.md sections 3.4-3.6):
 *
 *  - The keyspace is hash-partitioned over N independent shards (high
 *    bits of hashMix64(key), so shard choice is uncorrelated with the
 *    set index bits).  Each shard is itself an array of S
 *    independently locked *stripes* (serve/ShardState.h): set-aligned
 *    sub-shards selected by the key's low set-index bits, each owning
 *    a CacheModel bound to its own ReplacementPolicy instance (built
 *    by the existing PolicyFactory -- LRU/GD/BCL/DCL/ACL all work),
 *    per-(set, way) value and sample lanes beside the model's cost
 *    lane (which holds each resident key's EWMA latency), and a
 *    fixed per-set ghost ring holding the state of recently evicted
 *    keys (serve/GhostRing.h).
 *    With S stripes, fills and write-allocates on different stripes
 *    of one shard proceed in parallel; `stripes = 1` reproduces the
 *    single-mutex shard bit for bit.
 *
 *  - One hit path, picked by what the stripe shows.  A get whose
 *    stripe mutex is free takes it (the deterministic reference: CI
 *    diffs its stdout across worker counts).  A get that finds the
 *    mutex busy first reads around it with NO lock: an optimistic SIMD
 *    tag probe validated by a per-stripe sequence lock
 *    (serve/Seqlock.h), with recency promotion deferred through a
 *    lock-free access log drained by the next lock holder
 *    (serve/AccessLog.h).  Only a miss or a failed read waits.
 *
 *  - Misses are single-flight (serve/InflightTable.h): concurrent
 *    misses on one key coalesce onto one backend fetch, performed
 *    OUTSIDE the stripe mutex, and the measured latency is folded
 *    into every waiter's EWMA so the paper's cost signal sees one
 *    sample per requester under stampede.  A leader whose fetch
 *    throws publishes the exception to every waiter before
 *    propagating it -- no thread is left parked on a dead flight.
 *
 *  - A write is write-through with write-allocate and always takes
 *    the stripe mutex: the store latency is also an observation of
 *    the key's backend cost, so a write to a *resident* key refreshes
 *    the line's cost prediction through CacheModel::updateCost -- the
 *    online closing of the paper's cost-feedback loop.
 */

#ifndef CSR_SERVE_CACHESERVICE_H
#define CSR_SERVE_CACHESERVICE_H

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/PolicyFactory.h"
#include "serve/Backend.h"
#include "serve/CircuitBreaker.h"

namespace csr
{
class CliArgs;
class MetricRegistry;
}

namespace csr::serve
{

struct InflightFetch;
struct Shard;
struct Stripe;

/**
 * Parse a stripe-count argument: "auto" (or "0") means
 * kStripesAuto, anything else must be a power-of-two count.
 * @throws ConfigError listing the accepted values otherwise.
 */
unsigned requireStripes(const std::string &text);

/** ServeConfig::stripes value meaning "size to the machine". */
inline constexpr unsigned kStripesAuto = 0;

/**
 * Construction parameters of a CacheService.
 *
 * The one place the service flags live: drivers parse them with
 * fromArgs() (the same spellings csrserve always accepted), library
 * callers fill the struct directly, and both funnel through
 * validate() -- every constraint throws ConfigError naming the field
 * and the accepted values, so a bad --stripes reads the same from the
 * CLI, a test, or the network driver.
 */
struct ServeConfig
{
    /** Shard count; must be a power of two. */
    unsigned shards = 8;
    /** Per-shard cache capacity in bytes. */
    std::uint64_t shardBytes = 256 * 1024;
    std::uint32_t assoc = 8;
    /** One cached object occupies one line. */
    std::uint32_t blockBytes = 64;
    PolicyKind policy = PolicyKind::Acl;
    PolicyParams policyParams;
    /** Weight of the newest latency sample in the per-key EWMA. */
    double ewmaAlpha = 0.25;
    /** Per-stripe deferred-recency ring size (power of two). */
    std::size_t accessLogCapacity = 1024;
    /** Independently locked sub-shards per shard; a power of two no
     *  larger than the sets per shard, or kStripesAuto to size to
     *  the machine.  1 (the default) is the PR-6 single-mutex shard,
     *  bit for bit. */
    unsigned stripes = 1;
    /** Bound on a coalesced miss's wait for its leader's fetch, in
     *  milliseconds; 0 = wait forever.  A waiter that times out sees
     *  a typed TimeoutError instead of parking a thread (or a network
     *  connection) on a wedged leader. */
    double inflightWaitMs = 10'000.0;
    /** Per-shard backend circuit breaker (serve/CircuitBreaker.h);
     *  the seed field is overwritten with the policy seed so jitter
     *  is a function of the one --seed flag. */
    BreakerConfig breaker;

    /**
     * Read the service flags out of @p args: --policy --shards
     * --shard-bytes --assoc --block-bytes --ewma-alpha --stripes
     * --inflight-wait-ms --breaker[-window/-rate/-timeouts/
     * -backoff-ms/-backoff-max-ms] --stale-while-broken (and --seed
     * for the policy RNG + breaker jitter).  The result is
     * validate()d.  @throws ConfigError with the accepted values on
     * any bad flag.
     */
    static ServeConfig fromArgs(const CliArgs &args);

    /** Every constraint the constructor enforces, as one callable
     *  check: pow2 shard/stripe counts, EWMA alpha in (0,1], a
     *  power-of-two access log, an online-capable policy, a
     *  non-negative wait bound.  @throws ConfigError. */
    void validate() const;

    /** Total lines across all shards. */
    std::uint64_t
    totalLines() const
    {
        return static_cast<std::uint64_t>(shards) * shardBytes /
               blockBytes;
    }
};

/** Outcome of one get()/put(). */
struct ServeOpResult
{
    bool hit = false;
    std::uint64_t value = 0;
    /** Measured backend latency of this op (0 on a read hit). */
    double backendNs = 0.0;
};

/**
 * Deterministic aggregate counters (everything above the concurrency
 * block is a pure function of the per-shard op sequences under shard
 * affinity -- no wall-clock).
 */
struct ServeTotals
{
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t storeHits = 0; ///< writes that found the key resident
    std::uint64_t evictions = 0;
    /** Misses and write-allocates that resumed an evicted key's
     *  estimate from its set's ghost ring. */
    std::uint64_t ghostHits = 0;
    /** Keys with an EWMA estimate: resident lines plus ghosts, so at
     *  most twice the line count. */
    std::uint64_t trackedKeys = 0;
    /** Sum of measured read-miss fetch latencies: the paper's
     *  aggregate miss cost, measured online.  A coalesced miss
     *  charges the leader's measured latency, the same nanoseconds
     *  the waiter spent parked. */
    double missCostNs = 0.0;
    /** Sum of measured write-through latencies (reported separately;
     *  stores pay the backend regardless of the policy). */
    double storeCostNs = 0.0;

    // -- concurrency counters (zero unless callers contend for a
    //    stripe, except backendFetches == misses) ---------------------
    std::uint64_t seqlockHits = 0;      ///< hits served without the mutex
    std::uint64_t seqlockRetries = 0;   ///< optimistic reads discarded
    std::uint64_t lockedFallbacks = 0;  ///< retry budgets exhausted by writers
    std::uint64_t logFullFallbacks = 0; ///< promotions dropped, log full
    std::uint64_t backendFetches = 0;   ///< actual Backend::fetch calls
    std::uint64_t coalescedMisses = 0;  ///< misses that joined a fetch

    // -- robustness counters (all zero on a healthy, unshed run) ------
    std::uint64_t shedOps = 0;          ///< commands refused with -BUSY
    std::uint64_t breakerOpens = 0;     ///< circuit trips (incl. reopens)
    std::uint64_t breakerFastFails = 0; ///< fetches refused while open
    std::uint64_t staleServes = 0;      ///< stale values served while open

    bool operator==(const ServeTotals &) const = default;

    double
    hitRatio() const
    {
        return gets ? static_cast<double>(hits) /
                          static_cast<double>(gets)
                    : 0.0;
    }
};

/** True when no Stripe rides along in a ServeTotals list walk. */
template <typename... T>
inline constexpr bool kAllServeTotals =
    (std::is_same_v<std::remove_const_t<T>, ServeTotals> && ...);

/** forEachServeCounter's first half: --json's "deterministic". */
template <typename Visit, typename... T>
void
forEachDeterministicCounter(Visit &&visit, T &...o)
{
    visit("gets", "serve.gets", o.gets...);
    visit("hits", "serve.hits", o.hits...);
    visit("misses", "serve.misses", o.misses...);
    if constexpr (kAllServeTotals<T...>)
        visit("hitRatio", nullptr, o.hitRatio()...);
    visit("stores", "serve.stores", o.stores...);
    visit("storeHits", "serve.store_hits", o.storeHits...);
    visit("evictions", "serve.evictions", o.evictions...);
    visit("ghostHits", "serve.ghost_hits", o.ghostHits...);
    if constexpr (kAllServeTotals<T...>) {
        visit("trackedKeys", "serve.tracked_keys", o.trackedKeys...);
        visit("missCostNs", "serve.miss_cost_ns", o.missCostNs...);
        visit("storeCostNs", "serve.store_cost_ns", o.storeCostNs...);
    }
}

/** forEachServeCounter's second half: --json's "concurrency". */
template <typename Visit, typename... T>
void
forEachConcurrencyCounter(Visit &&visit, T &...o)
{
    visit("seqlockHits", "serve.seqlock_hits", o.seqlockHits...);
    visit("seqlockRetries", "serve.seqlock_retries",
          o.seqlockRetries...);
    visit("lockedFallbacks", "serve.locked_fallbacks",
          o.lockedFallbacks...);
    visit("logFullFallbacks", "serve.log_full_fallbacks",
          o.logFullFallbacks...);
    visit("backendFetches", "serve.backend_fetches",
          o.backendFetches...);
    visit("coalescedMisses", "serve.coalesced_misses",
          o.coalescedMisses...);
    if constexpr (kAllServeTotals<T...>) {
        // The net tier's count, exported there as net.sheds.
        visit("shedOps", nullptr, o.shedOps...);
        visit("breakerOpens", "serve.breaker_opens", o.breakerOpens...);
        visit("breakerFastFails", "serve.breaker_fast_fails",
              o.breakerFastFails...);
    }
    visit("staleServes", "serve.stale_serves", o.staleServes...);
}

/**
 * The one list of ServeTotals counters, in INFO and --json order:
 * calls @p visit(key, metric, field...) per counter with its
 * INFO/--json name, its --metrics name (nullptr: not exported as
 * "serve.") and that member of each object in @p o.  A new counter
 * is one row here.  A Stripe may follow a ServeTotals (its atomics
 * carry the same names); rows no stripe atomic backs are then
 * skipped.  hitRatio is derived, so its field is a temporary.
 */
template <typename Visit, typename... T>
void
forEachServeCounter(Visit &&visit, T &...o)
{
    forEachDeterministicCounter(visit, o...);
    forEachConcurrencyCounter(visit, o...);
}

class CacheService
{
  public:
    /**
     * @p backend must outlive the service and be safe for concurrent
     * calls.  @throws ConfigError / CacheGeometryError on a bad
     * configuration.
     */
    CacheService(const ServeConfig &config, Backend &backend);
    ~CacheService();

    CacheService(const CacheService &) = delete;
    CacheService &operator=(const CacheService &) = delete;

    /** Read @p key: cache hit, or backend fetch + admission.  A
     *  coalesced miss waits at most inflightWaitMs for its leader,
     *  then throws TimeoutError. */
    ServeOpResult get(Addr key);

    /**
     * Completion of getAsync(): on success @p error is null; on a
     * failed or timed-out backend fetch the result is meaningless and
     * @p error carries what get() would have thrown.  May run inline
     * on the calling thread (hits, sync backends) or on whichever
     * thread completes the fetch -- callers that care (the network
     * event loop) marshal themselves back.
     */
    using GetCallback = std::function<void(const ServeOpResult &result,
                                           std::exception_ptr error)>;

    /**
     * get(), minus the blocking: hits and coalesced misses never park
     * the calling thread, and a leader miss rides
     * Backend::fetchAsync.  Counters move exactly as get()'s do.
     * This is the surface the RESP server drives -- a net worker
     * thread is never parked inside someone else's backend round
     * trip.
     */
    void getAsync(Addr key, GetCallback done);

    /** Write-through @p value under @p key (write-allocate). */
    ServeOpResult put(Addr key, std::uint64_t value);

    /** Drop @p key from the cache (the wire protocol's DEL): the line
     *  is invalidated, the policy told, and the key's state moved to
     *  its set's ghost ring.  @return true when the key was resident. */
    bool del(Addr key);

    /** Shard that owns @p key (stable; the harness partitions ops by
     *  this to keep runs deterministic for any worker count). */
    unsigned shardOf(Addr key) const;

    /**
     * Live-capture hook: called at the top of every get()/getAsync()
     * (op 0), put() (op 1) and del() (op 2) with the key, BEFORE the
     * op executes, in per-thread arrival order.  The callable must be
     * thread-safe (csrserve --record wraps a TraceWriter in a mutex).
     * Capture order across threads is the lock-acquisition order of
     * that mutex, so a recorded stream is deterministic only for
     * single-threaded drivers (--workers 1 / --net-workers 1).  Pass
     * an empty function to detach.  Not safe to change while ops are
     * in flight.
     */
    using OpRecorder = std::function<void(Addr key, unsigned op)>;
    void setRecorder(OpRecorder recorder);

    unsigned numShards() const { return config_.shards; }
    /** Resolved stripes per shard (auto is resolved at
     *  construction, so this is never kStripesAuto). */
    unsigned numStripes() const { return config_.stripes; }
    const ServeConfig &config() const { return config_; }
    std::string policyName() const;

    /** EWMA sample count of @p key, from its line or its ghost; 0 for
     *  a key with neither (tests: stampede coalescing). */
    std::uint64_t keySamples(Addr key) const;

    /** Aggregate the per-stripe counters (locks stripe by stripe).
     *  shedOps stays zero here -- shedding happens in the network
     *  tier, which folds its count in before reporting. */
    ServeTotals totals() const;

    /** The circuit breaker guarding @p shard's backend fetches. */
    CircuitBreaker &breakerOf(unsigned shard);

    /**
     * Drain-path: fail every in-flight fetch across all stripes with
     * a TimeoutError naming @p why, unparking every waiter and firing
     * every subscriber.  Late leader completions find their entry
     * gone and complete a dead flight harmlessly.  @return the number
     * of flights failed.
     */
    std::size_t failInflight(const std::string &why);

    /** Export totals + per-key cost-estimate stats into @p registry
     *  under "serve.". */
    void exportMetrics(MetricRegistry &registry) const;

    /** Structural checks of every stripe's cache model and value
     *  store; throws InvariantError on corruption. */
    void checkInvariants() const;

  private:
    Stripe &stripeFor(Addr key);

    /** A get's answer: @p result, unless @p error is set -- what
     *  get() throws and getAsync() hands its callback. */
    struct GetOutcome
    {
        ServeOpResult result;
        std::exception_ptr error;
    };

    /** What a get found under the stripe mutex, and what is left to
     *  do once the mutex is released. */
    struct GetStart
    {
        enum Kind
        {
            Hit,      ///< served; outcome is final
            FailFast, ///< breaker open: outcome is stale or an error
            Join,     ///< another get's fetch is in flight: wait on it
            Lead,     ///< fetch with salt, then finishLead()
        };
        Kind kind = Hit;
        Stripe *stripe = nullptr;
        std::uint32_t set = 0;
        Addr tag = 0;
        Addr key = 0;
        GetOutcome outcome;                    ///< Hit and FailFast
        std::shared_ptr<InflightFetch> flight; ///< Join and Lead
        std::uint64_t salt = 0;                ///< Lead
    };

    /** Optimistic seqlock read; nullopt means take the locked path. */
    std::optional<ServeOpResult> tryOptimisticGet(Stripe &stripe,
                                                  std::uint32_t set,
                                                  Addr tag, Addr key);

    /** The whole get protocol up to the backend: capture hook, hit
     *  path, miss accounting, single-flight claim, breaker fail-fast
     *  and stale serve.  Returns with the stripe mutex released. */
    GetStart beginGet(Addr key);

    /** Leader side, with the fetch done (@p error set if it failed):
     *  report to the breaker, then either install the block -- observe
     *  the latency, fill or cost-refresh the line -- and publish it,
     *  or retire the flight and publish the failure. */
    GetOutcome finishLead(const GetStart &start,
                          const BackendResult &fetched,
                          std::exception_ptr error);

    /** Waiter side, with the leader's result published: pass on its
     *  error, or fold its measured latency into this requester's EWMA
     *  and the aggregate miss cost. */
    GetOutcome finishJoin(const GetStart &start);

    ServeConfig config_;
    Backend &backend_;
    OpRecorder recorder_; ///< optional live-capture hook (see above)
    std::uint64_t inflightWaitNs_; ///< resolved from inflightWaitMs
    unsigned shardShift_;  ///< hash bits above this select the shard
    unsigned stripeMask_;  ///< stripes - 1; low key bits pick the stripe
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace csr::serve

#endif // CSR_SERVE_CACHESERVICE_H
