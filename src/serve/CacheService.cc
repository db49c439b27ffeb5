#include "serve/CacheService.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "robust/Errors.h"
#include "serve/ShardState.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/MathUtil.h"
#include "util/Random.h"

namespace csr::serve
{

namespace
{

/** Optimistic read attempts before falling back to the mutex. */
constexpr int kOptimisticRetries = 4;

/** Auto-striping never exceeds this many stripes per shard. */
constexpr unsigned kMaxAutoStripes = 8;

/** Largest power of two <= min(hardware threads, kMaxAutoStripes);
 *  more stripes than runnable threads only buys allocator overhead. */
unsigned
autoStripes()
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    unsigned stripes = 1;
    while (stripes * 2 <= std::min(hw, kMaxAutoStripes))
        stripes *= 2;
    return stripes;
}

/** Monotonic clock feeding the circuit breakers' state machines. */
std::uint64_t
breakerNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Did a backend fetch fail by *timing out* (vs erroring)?  Feeds
 *  the breaker's consecutive-timeout trip condition. */
bool
isTimeoutFailure(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const TimeoutError &) {
        return true;
    } catch (...) {
        return false;
    }
}

/**
 * Install non-resident @p tag in @p set with @p state and @p value.
 * The key leaves the ghost ring as it enters the line -- a key is
 * resident, ghosted, or nowhere, never two of these -- and the line it
 * evicts, if any, moves into the ring.  Must hold the stripe mutex
 * inside a seqlock write section.
 */
void
admit(Stripe &stripe, std::uint32_t set, Addr tag, const KeyHistory &state,
      std::uint64_t value)
{
    const int ghost = stripe.ghosts.find(set, tag);
    if (ghost != GhostRing::kNone) {
        stripe.ghosts.erase(set, ghost);
        stripe.ghostHits.fetch_add(1, std::memory_order_relaxed);
    }
    const int way = stripe.model.fillVictimOrFree(
        set, tag, state.ewmaNs, 0, [&](int victim, Addr, std::uint32_t) {
            stripe.retire(set, victim);
            stripe.evictions.fetch_add(1, std::memory_order_relaxed);
            CSR_TRACE_INSTANT("serve", "evict");
        });
    stripe.samples[stripe.idx(set, way)] = state.samples;
    stripe.storeValue(set, way, value);
}

} // namespace

unsigned
requireStripes(const std::string &text)
{
    if (text == "auto")
        return kStripesAuto;
    std::size_t consumed = 0;
    unsigned long value = 0;
    try {
        value = std::stoul(text, &consumed);
    } catch (const std::exception &) {
        consumed = 0;
    }
    if (consumed == text.size() && !text.empty() &&
        value <= 1u << 30 &&
        (value == 0 || isPow2(static_cast<std::uint64_t>(value))))
        return static_cast<unsigned>(value);
    throw ConfigError("invalid stripe count '" + text +
                      "' (valid: auto, or a power of two: 1 2 4 "
                      "8 ...; 0 means auto)");
}

ServeConfig
ServeConfig::fromArgs(const CliArgs &args)
{
    ServeConfig config;
    const std::string policy_name = args.get("policy", "acl");
    if (auto kind = parsePolicyKind(policy_name))
        config.policy = *kind;
    else
        throw ConfigError("unknown policy '" + policy_name +
                          "' (valid: " + policyNamesJoined(" ") + ")");
    config.shards =
        static_cast<unsigned>(args.getUInt("shards", config.shards));
    config.shardBytes = args.getUInt("shard-bytes", config.shardBytes);
    config.assoc = static_cast<std::uint32_t>(
        args.getUInt("assoc", config.assoc));
    config.blockBytes = static_cast<std::uint32_t>(
        args.getUInt("block-bytes", config.blockBytes));
    config.ewmaAlpha = args.getDouble("ewma-alpha", config.ewmaAlpha);
    config.policyParams.seed = args.seed(1);
    config.stripes = requireStripes(args.get("stripes", "auto"));
    config.inflightWaitMs =
        args.getDouble("inflight-wait-ms", config.inflightWaitMs);
    config.breaker = BreakerConfig::fromArgs(args);
    config.breaker.seed = config.policyParams.seed;
    config.validate();
    return config;
}

void
ServeConfig::validate() const
{
    if (shards == 0 || !isPow2(shards))
        throw ConfigError("shard count (" + std::to_string(shards) +
                          ") must be a power of two");
    if (ewmaAlpha <= 0.0 || ewmaAlpha > 1.0)
        throw ConfigError("EWMA alpha must be in (0,1], got " +
                          std::to_string(ewmaAlpha));
    if (accessLogCapacity < 2 || !isPow2(accessLogCapacity))
        throw ConfigError("access log capacity (" +
                          std::to_string(accessLogCapacity) +
                          ") must be a power of two >= 2");
    if (policy == PolicyKind::Opt || policy == PolicyKind::CostOpt)
        throw ConfigError("offline oracle policies cannot drive an "
                          "online service (pick one of lru random lfu "
                          "gd bcl dcl acl)");
    if (stripes != kStripesAuto && !isPow2(stripes))
        throw ConfigError("stripe count (" + std::to_string(stripes) +
                          ") must be a power of two, or 0 for auto");
    if (inflightWaitMs < 0.0)
        throw ConfigError(
            "in-flight wait bound must be >= 0 ms (0 = unbounded), "
            "got " +
            std::to_string(inflightWaitMs));
    breaker.validate();
}

CacheService::CacheService(const ServeConfig &config, Backend &backend)
    : config_(config), backend_(backend),
      inflightWaitNs_(static_cast<std::uint64_t>(
          config.inflightWaitMs * 1e6))
{
    config_.validate();

    // Throws CacheGeometryError naming the bad parameter.  Validate
    // the whole-shard geometry first so a bad shard size is reported
    // as such, not as a confusing stripe-sized failure.
    const CacheGeometry shard_geom(config_.shardBytes, config_.assoc,
                                   config_.blockBytes);
    if (config_.stripes == kStripesAuto)
        config_.stripes = std::min<unsigned>(
            autoStripes(),
            static_cast<unsigned>(shard_geom.numSets()));
    if (config_.stripes > shard_geom.numSets())
        throw ConfigError(
            "stripe count (" + std::to_string(config_.stripes) +
            ") exceeds the sets per shard (" +
            std::to_string(shard_geom.numSets()) +
            "); shrink --stripes or grow --shard-bytes");

    const CacheGeometry stripe_geom(
        config_.shardBytes / config_.stripes, config_.assoc,
        config_.blockBytes);
    const auto stripe_bits = static_cast<std::uint32_t>(
        floorLog2(config_.stripes));
    shardShift_ =
        64u - static_cast<unsigned>(floorLog2(config_.shards));
    stripeMask_ = config_.stripes - 1;

    shards_.reserve(config_.shards);
    for (unsigned s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->breaker =
            std::make_unique<CircuitBreaker>(config_.breaker, s);
        shard->stripes.reserve(config_.stripes);
        for (unsigned t = 0; t < config_.stripes; ++t) {
            // Decorrelate any stochastic policy state across stripes
            // while keeping it a pure function of the configured
            // seed; at stripes == 1 this is the PR-6 per-shard seed.
            PolicyParams params = config_.policyParams;
            params.seed = hashMix64(params.seed +
                                    static_cast<std::uint64_t>(s) *
                                        config_.stripes +
                                    t + 1);
            shard->stripes.push_back(std::make_unique<Stripe>(
                stripe_geom,
                makePolicy(config_.policy, stripe_geom, params),
                stripe_bits, config_.accessLogCapacity));
        }
        shards_.push_back(std::move(shard));
    }
}

CacheService::~CacheService() = default;

unsigned
CacheService::shardOf(Addr key) const
{
    if (config_.shards == 1)
        return 0;
    return static_cast<unsigned>(hashMix64(key) >> shardShift_);
}

void
CacheService::setRecorder(OpRecorder recorder)
{
    recorder_ = std::move(recorder);
}

Stripe &
CacheService::stripeFor(Addr key)
{
    // Stripe choice is the key's low set-index bits: every key of a
    // set routes to the same stripe, so no set ever spans a lock.
    return *shards_[shardOf(key)]
                ->stripes[static_cast<unsigned>(key) & stripeMask_];
}

std::string
CacheService::policyName() const
{
    return shards_[0]->stripes[0]->model.policy()->name();
}

std::uint64_t
CacheService::keySamples(Addr key) const
{
    Stripe &stripe =
        *shards_[shardOf(key)]
             ->stripes[static_cast<unsigned>(key) & stripeMask_];
    const std::uint32_t set = stripe.setOf(key);
    const Addr tag = stripe.tagOf(key);
    std::lock_guard<std::mutex> lock(stripe.mutex);
    const int way = stripe.model.lookup(set, tag);
    return way != kInvalidWay ? stripe.samples[stripe.idx(set, way)]
                              : stripe.ghostOf(set, tag).samples;
}

/**
 * The lock-free hit path.  A stable seqlock read section around the
 * SIMD tag probe and the value load serves a hit without ever
 * touching the stripe mutex; recency promotion is deferred through
 * the access log.  Returns nullopt when the op must take the locked
 * path: a validated miss, a full access log, or retry exhaustion.
 */
std::optional<ServeOpResult>
CacheService::tryOptimisticGet(Stripe &stripe, std::uint32_t set,
                               Addr tag, Addr key)
{
    for (int attempt = 0; attempt < kOptimisticRetries; ++attempt) {
        // A writer inside a write section (odd sequence) or one that
        // entered since (failed validation) voids the read: retry.
        const std::uint64_t begin = stripe.seqlock.readBegin();
        const int way =
            begin & 1 ? kInvalidWay : stripe.model.probeConcurrent(set, tag);
        const std::uint64_t value =
            way == kInvalidWay ? 0 : stripe.loadValue(set, way);
        if ((begin & 1) || !stripe.seqlock.readValidate(begin)) {
            stripe.seqlockRetries.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (way == kInvalidWay)
            return std::nullopt; // genuine miss
        // Hit committed.  Defer the recency promotion; a full log
        // means the locked path must drain first, so re-serve the op
        // there (it will count as an ordinary locked hit).  Counted
        // apart from contention fallbacks: a saturated log is a
        // sizing problem, a beaten retry budget a contention one.
        if (!stripe.accessLog.push(key)) {
            stripe.logFullFallbacks.fetch_add(
                1, std::memory_order_relaxed);
            return std::nullopt;
        }
        stripe.gets.fetch_add(1, std::memory_order_relaxed);
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        stripe.seqlockHits.fetch_add(1, std::memory_order_relaxed);
        ServeOpResult result;
        result.hit = true;
        result.value = value;
        return result;
    }
    stripe.lockedFallbacks.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

ServeOpResult
CacheService::get(Addr key)
{
    GetStart start = beginGet(key);
    if (start.kind == GetStart::Join) {
        {
            CSR_TRACE_SPAN("serve", "inflight.wait");
            // Bounded: a wedged leader must not park this thread (or
            // the network connection behind it) forever.
            if (!awaitFetchFor(*start.flight, inflightWaitNs_))
                throw TimeoutError(
                    "coalesced miss on key " + std::to_string(key) +
                    " waited " +
                    std::to_string(config_.inflightWaitMs) +
                    " ms for its single-flight leader's backend "
                    "fetch (raise --inflight-wait-ms, or find the "
                    "wedged backend)");
        }
        start.outcome = finishJoin(start);
    } else if (start.kind == GetStart::Lead) {
        // Fetch with the stripe UNLOCKED: other keys keep being
        // served while this one pays the backend round trip.
        BackendResult fetched;
        std::exception_ptr error;
        try {
            CSR_TRACE_SPAN("serve", "backend.fetch");
            fetched = backend_.fetch(key, start.salt);
        } catch (...) {
            error = std::current_exception();
        }
        start.outcome = finishLead(start, fetched, std::move(error));
    }
    if (start.outcome.error)
        std::rethrow_exception(start.outcome.error);
    return start.outcome.result;
}

void
CacheService::getAsync(Addr key, GetCallback done)
{
    GetStart start = beginGet(key);
    if (start.kind == GetStart::Join) {
        // Join the flight without parking: the completion runs on
        // whichever thread publishes the leader's result (or inline
        // when it already has).
        InflightFetch &flight = *start.flight;
        subscribeFetch(flight, [this, start = std::move(start),
                                done = std::move(done)] {
            const GetOutcome outcome = finishJoin(start);
            done(outcome.result, outcome.error);
        });
    } else if (start.kind == GetStart::Lead) {
        // Hand the fetch to the backend and finish whenever and
        // wherever it completes: the calling thread never blocks.
        const std::uint64_t salt = start.salt;
        backend_.fetchAsync(
            key, salt,
            [this, start = std::move(start), done = std::move(done)](
                const BackendResult &fetched, std::exception_ptr error) {
                const GetOutcome outcome =
                    finishLead(start, fetched, std::move(error));
                done(outcome.result, outcome.error);
            });
    } else {
        done(start.outcome.result, start.outcome.error);
    }
}

CacheService::GetStart
CacheService::beginGet(Addr key)
{
    if (recorder_)
        recorder_(key, 0);
    GetStart start;
    start.stripe = &stripeFor(key);
    Stripe &stripe = *start.stripe;
    const std::uint32_t set = start.set = stripe.setOf(key);
    const Addr tag = start.tag = stripe.tagOf(key);
    start.key = key;

    // The hit path follows from what the stripe shows, not from a
    // knob.  A free mutex is taken: it costs what a lock-free read
    // does, and an uncontended run stays the deterministic reference.
    // A busy one is read around first, and waited on only when that
    // read cannot serve the op.
    std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
    if (!lock.owns_lock()) {
        if (auto result = tryOptimisticGet(stripe, set, tag, key)) {
            start.outcome.result = *result;
            return start;
        }
        CSR_TRACE_SPAN("serve", "stripe.lock_wait");
        lock.lock();
    }
    stripe.drainAccessLog();
    stripe.gets.fetch_add(1, std::memory_order_relaxed);

    const int way = stripe.model.access(set, tag);
    if (way != kInvalidWay) {
        stripe.hits.fetch_add(1, std::memory_order_relaxed);
        start.outcome.result.hit = true;
        start.outcome.result.value = stripe.loadValue(set, way);
        return start;
    }

    stripe.misses.fetch_add(1, std::memory_order_relaxed);
    bool leader = false;
    std::tie(start.flight, leader) = stripe.inflight.claim(key);
    if (!leader) {
        // Another get's fetch for this key is in flight: wait on it
        // instead of hammering the backend (single-flight), then fold
        // ITS measured latency into this requester's view of the key
        // -- the cost signal sees one observation per miss, the
        // backend one call per stampede.
        stripe.coalescedMisses.fetch_add(1,
                                         std::memory_order_relaxed);
        CSR_TRACE_INSTANT("serve", "coalesced_miss");
        start.kind = GetStart::Join;
        return start;
    }

    if (shards_[shardOf(key)]->breaker->admit(breakerNowNs()) ==
        CircuitBreaker::Admit::FailFast) {
        // The shard's breaker is open and this miss would have
        // started a fresh fetch: fail fast (the whole point -- no
        // thread parks on a backend that keeps failing).  A ghost's
        // value may be served stale instead.  The just-claimed flight
        // has no waiters yet (we still hold the stripe mutex), so
        // erasing it is enough.
        stripe.inflight.erase(key);
        start.flight.reset();
        start.kind = GetStart::FailFast;
        const int ghost = stripe.ghosts.find(set, tag);
        if (config_.breaker.staleWhileBroken &&
            ghost != GhostRing::kNone) {
            stripe.staleServes.fetch_add(1, std::memory_order_relaxed);
            start.outcome.result.value =
                stripe.ghosts.entry(set, ghost).value;
        } else {
            start.outcome.error =
                std::make_exception_ptr(CircuitOpenError(
                    "circuit open on serve shard " +
                    std::to_string(shardOf(key)) +
                    ": backend fetches keep failing, refusing key " +
                    std::to_string(key) + " without a fetch"));
        }
        return start;
    }

    // Leader: read the fetch salt under the lock; the caller fetches
    // with the stripe unlocked, then finishLead re-acquires it.  Only
    // a successful fetch writes any per-key state.
    start.kind = GetStart::Lead;
    start.salt = stripe.ghostOf(set, tag).samples;
    return start;
}

CacheService::GetOutcome
CacheService::finishLead(const GetStart &start, const BackendResult &fetched,
                         std::exception_ptr error)
{
    Stripe &stripe = *start.stripe;
    CircuitBreaker &breaker = *shards_[shardOf(start.key)]->breaker;
    if (error)
        breaker.onFailure(isTimeoutFailure(error), breakerNowNs());
    else
        breaker.onSuccess(breakerNowNs());
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        if (!error) {
            stripe.backendFetches.fetch_add(1, std::memory_order_relaxed);
            stripe.drainAccessLog();
            stripe.missCostNs += fetched.latencyNs;

            SeqlockWriteGuard guard(stripe.seqlock);
            const int resident = stripe.model.lookup(start.set, start.tag);
            if (resident != kInvalidWay) {
                // A concurrent put write-allocated the key while we
                // fetched; its value is newer than our read, so only
                // refresh the cost.
                stripe.observeLine(start.set, resident, fetched.latencyNs,
                                   config_.ewmaAlpha);
            } else {
                KeyHistory state = stripe.ghostOf(start.set, start.tag);
                state.observe(fetched.latencyNs, config_.ewmaAlpha);
                admit(stripe, start.set, start.tag, state, fetched.value);
            }
        }
        // Retire the flight BEFORE publishing, so after a leader crash
        // a retrying waiter elects a fresh leader instead of rejoining
        // the dead entry; the publish wakes every waiter either way.
        stripe.inflight.erase(start.key);
    }
    publishFetch(*start.flight, fetched.value, fetched.latencyNs, error);
    GetOutcome outcome;
    if (error) {
        outcome.error = std::move(error);
    } else {
        outcome.result.value = fetched.value;
        outcome.result.backendNs = fetched.latencyNs;
    }
    return outcome;
}

CacheService::GetOutcome
CacheService::finishJoin(const GetStart &start)
{
    const InflightFetch &flight = *start.flight;
    GetOutcome outcome;
    if (flight.error) {
        outcome.error = flight.error;
        return outcome;
    }
    Stripe &stripe = *start.stripe;
    {
        std::lock_guard<std::mutex> lock(stripe.mutex);
        stripe.drainAccessLog();
        stripe.missCostNs += flight.latencyNs;
        // The observation goes wherever the key's state is now: its
        // line, its ghost, or -- evicted out of the ring meanwhile --
        // nowhere.
        const int resident = stripe.model.lookup(start.set, start.tag);
        if (resident != kInvalidWay) {
            SeqlockWriteGuard guard(stripe.seqlock);
            stripe.observeLine(start.set, resident, flight.latencyNs,
                               config_.ewmaAlpha);
        } else if (const int ghost = stripe.ghosts.find(start.set, start.tag);
                   ghost != GhostRing::kNone) {
            stripe.ghosts.entry(start.set, ghost)
                .observe(flight.latencyNs, config_.ewmaAlpha);
        }
    }
    outcome.result.value = flight.value;
    outcome.result.backendNs = flight.latencyNs;
    return outcome;
}

bool
CacheService::del(Addr key)
{
    if (recorder_)
        recorder_(key, 2);
    Stripe &stripe = stripeFor(key);
    const std::uint32_t set = stripe.setOf(key);
    const Addr tag = stripe.tagOf(key);

    std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.drainAccessLog();
    // The line's state moves to the ring, where a later miss resumes
    // it and --stale-while-broken can still serve its value.
    const int way = stripe.model.lookup(set, tag);
    if (way != kInvalidWay)
        stripe.retire(set, way);
    // Under the seqlock guard so a concurrent optimistic reader
    // re-validates instead of serving the dying line.
    SeqlockWriteGuard guard(stripe.seqlock);
    stripe.model.invalidateTag(set, tag);
    return way != kInvalidWay;
}

ServeOpResult
CacheService::put(Addr key, std::uint64_t value)
{
    if (recorder_)
        recorder_(key, 1);
    Stripe &stripe = stripeFor(key);
    const std::uint32_t set = stripe.setOf(key);
    const Addr tag = stripe.tagOf(key);

    std::unique_lock<std::mutex> lock(stripe.mutex, std::defer_lock);
    {
        CSR_TRACE_SPAN("serve", "stripe.lock_wait");
        lock.lock();
    }
    stripe.drainAccessLog();
    stripe.stores.fetch_add(1, std::memory_order_relaxed);

    // One probe serves the salt, the policy notification and the
    // update: the mutex is held throughout, so the way stays put.
    const int way = stripe.model.lookup(set, tag);
    KeyHistory state = way != kInvalidWay ? stripe.lineState(set, way)
                                          : stripe.ghostOf(set, tag);
    BackendResult stored;
    {
        CSR_TRACE_SPAN("serve", "backend.store");
        stored = backend_.store(key, value, state.samples);
    }
    // A write-through round trip is a fresh observation of this key's
    // backend latency, so it refreshes the cost estimate too.
    state.observe(stored.latencyNs, config_.ewmaAlpha);
    stripe.storeCostNs += stored.latencyNs;

    ServeOpResult result;
    result.value = value;
    result.backendNs = stored.latencyNs;

    stripe.model.noteAccess(set, tag, way);
    SeqlockWriteGuard guard(stripe.seqlock);
    if (way != kInvalidWay) {
        // Resident: refresh the value and push the new prediction to
        // the policy -- the online analogue of the paper's dynamic
        // cost updates (CacheModel::updateCost).
        stripe.storeHits.fetch_add(1, std::memory_order_relaxed);
        stripe.storeValue(set, way, value);
        stripe.samples[stripe.idx(set, way)] = state.samples;
        stripe.model.updateCost(set, way, state.ewmaNs);
        result.hit = true;
        return result;
    }

    // Write-allocate, so subsequent reads of a written key hit.
    admit(stripe, set, tag, state, value);
    return result;
}

ServeTotals
CacheService::totals() const
{
    ServeTotals totals;
    for (const auto &shard_ptr : shards_) {
        for (const auto &stripe_ptr : shard_ptr->stripes) {
            Stripe &stripe = *stripe_ptr;
            std::lock_guard<std::mutex> lock(stripe.mutex);
            forEachServeCounter(
                [](const char *, const char *, std::uint64_t &sum,
                   const std::atomic<std::uint64_t> &count) {
                    sum += count.load(std::memory_order_relaxed);
                },
                totals, stripe);
            totals.trackedKeys +=
                stripe.model.countValid() + stripe.ghosts.size();
            totals.missCostNs += stripe.missCostNs;
            totals.storeCostNs += stripe.storeCostNs;
        }
        totals.breakerOpens += shard_ptr->breaker->opens();
        totals.breakerFastFails += shard_ptr->breaker->fastFails();
    }
    return totals;
}

CircuitBreaker &
CacheService::breakerOf(unsigned shard)
{
    return *shards_[shard]->breaker;
}

std::size_t
CacheService::failInflight(const std::string &why)
{
    std::size_t failed = 0;
    const auto error =
        std::make_exception_ptr(TimeoutError(why));
    for (const auto &shard_ptr : shards_) {
        for (const auto &stripe_ptr : shard_ptr->stripes) {
            Stripe &stripe = *stripe_ptr;
            std::vector<std::shared_ptr<InflightFetch>> flights;
            {
                std::lock_guard<std::mutex> lock(stripe.mutex);
                flights = stripe.inflight.takeAll();
            }
            // Publish with the stripe mutex released (publishFetch's
            // contract); a late leader completion finds its entry
            // gone and completes the dead flight harmlessly.
            for (const auto &flight : flights) {
                publishFetch(*flight, 0, 0.0, error);
                ++failed;
            }
        }
    }
    return failed;
}

void
CacheService::exportMetrics(MetricRegistry &registry) const
{
    const ServeTotals totals = this->totals();
    forEachServeCounter(
        [&registry](const char *, const char *metric, const auto &value) {
            if (metric)
                registry.setCounter(metric,
                                    static_cast<std::uint64_t>(value));
        },
        totals);
    registry.setCounter("serve.shards", config_.shards);
    registry.setCounter("serve.stripes", config_.stripes);

    RunningStat ewma;
    for (const auto &shard_ptr : shards_) {
        for (const auto &stripe_ptr : shard_ptr->stripes) {
            Stripe &stripe = *stripe_ptr;
            std::lock_guard<std::mutex> lock(stripe.mutex);
            const CacheGeometry &geom = stripe.model.geometry();
            for (std::uint32_t set = 0; set < geom.numSets(); ++set) {
                for (int way = 0; way < static_cast<int>(geom.assoc());
                     ++way) {
                    if (stripe.model.isValid(set, way))
                        ewma.add(stripe.model.costAt(set, way));
                    if (stripe.ghosts.isValid(set, way))
                        ewma.add(stripe.ghosts.entry(set, way).ewmaNs);
                }
            }
        }
    }
    registry.mergeStat("serve.key_ewma_ns", ewma);
}

void
CacheService::checkInvariants() const
{
    const auto where = [](std::size_t s, std::size_t t) {
        return "serve shard " + std::to_string(s) + " stripe " +
               std::to_string(t) + ": ";
    };
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const auto &stripes = shards_[s]->stripes;
        for (std::size_t t = 0; t < stripes.size(); ++t) {
            Stripe &stripe = *stripes[t];
            std::lock_guard<std::mutex> lock(stripe.mutex);
            stripe.model.checkInvariants();
            if (stripe.inflight.size() != 0)
                throw InvariantError(
                    where(s, t) +
                    std::to_string(stripe.inflight.size()) +
                    " in-flight fetches in a quiescent service");
            const CacheGeometry &geom = stripe.model.geometry();
            for (std::uint32_t set = 0; set < geom.numSets(); ++set) {
                for (int way = 0; way < static_cast<int>(geom.assoc());
                     ++way) {
                    if (stripe.ghosts.isValid(set, way) &&
                        stripe.ghosts.find(set, stripe.ghosts.tagAt(
                                                    set, way)) != way)
                        throw InvariantError(
                            where(s, t) + "set " + std::to_string(set) +
                            " ghosts one tag twice");
                    if (!stripe.model.isValid(set, way))
                        continue;
                    const Addr tag = stripe.model.tagAt(set, way);
                    // Reassemble the key the routing decomposed:
                    // tag | local set | stripe id, low bits last.
                    const Addr key =
                        (((tag << geom.setBits()) | set)
                         << stripe.stripeBits) |
                        t;
                    if (stripe.samples[stripe.idx(set, way)] == 0)
                        throw InvariantError(
                            where(s, t) + "resident key " +
                            std::to_string(key) +
                            " has no latency sample");
                    if (stripe.ghosts.find(set, tag) != GhostRing::kNone)
                        throw InvariantError(
                            where(s, t) + "key " + std::to_string(key) +
                            " is both resident and ghosted");
                }
            }
        }
    }
}

} // namespace csr::serve
