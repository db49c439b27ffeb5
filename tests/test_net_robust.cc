/**
 * @file
 * Robust-serving tests: graceful drain under pipelined load, the
 * overload shed path, the per-shard circuit breaker state machine
 * (unit-level with a caller-supplied clock, and wired through
 * CacheService), slow-loris / idle connection eviction, --max-conns
 * admission, stale-while-broken serving, and the determinism of the
 * network chaos layer.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "robust/Errors.h"
#include "robust/NetChaos.h"
#include "serve/CacheService.h"
#include "serve/ChaosBackend.h"
#include "serve/CircuitBreaker.h"
#include "serve/SyntheticBackend.h"
#include "serve/net/EventLoop.h"
#include "serve/net/RespClient.h"
#include "serve/net/Server.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;
using namespace csr::serve::net;

namespace
{

ServeConfig
tinyServeConfig()
{
    ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.policy = PolicyKind::Acl;
    return config;
}

/** A breaker config that trips after two failures and (by default)
 *  stays open far longer than any test runs. */
BreakerConfig
twitchyBreaker()
{
    BreakerConfig cfg;
    cfg.windowOps = 4;
    cfg.minSamples = 2;
    cfg.failureRateThreshold = 0.5;
    cfg.consecutiveTimeouts = 1000; // rate trips first
    cfg.backoffInitialMs = 60'000.0;
    cfg.backoffMaxMs = 60'000.0;
    cfg.jitterFraction = 0.0; // deterministic backoff
    return cfg;
}

/** Always-broken backend: every fetch throws, stores succeed. */
class FailingBackend : public Backend
{
  public:
    BackendResult
    fetch(Addr, std::uint64_t) override
    {
        fetches.fetch_add(1, std::memory_order_relaxed);
        throw NetError("backend down");
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 1000.0;
        return result;
    }

    std::string describe() const override { return "failing"; }

    std::atomic<std::uint64_t> fetches{0};
};

/** Fails the first @p failFirst fetches, then recovers. */
class FlakyBackend : public Backend
{
  public:
    explicit FlakyBackend(std::uint64_t fail_first)
        : failFirst_(fail_first)
    {
    }

    BackendResult
    fetch(Addr key, std::uint64_t) override
    {
        if (fetches.fetch_add(1, std::memory_order_relaxed) <
            failFirst_)
            throw NetError("backend still down");
        BackendResult result;
        result.value = hashMix64(key);
        result.latencyNs = 5000.0;
        return result;
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 1000.0;
        return result;
    }

    std::string describe() const override { return "flaky"; }

    std::atomic<std::uint64_t> fetches{0};

  private:
    const std::uint64_t failFirst_;
};

/**
 * Truly asynchronous gate: fetchAsync parks the completion instead
 * of the calling thread, so an event-loop worker that starts a fetch
 * keeps running -- pending ops pile up, which is exactly what the
 * drain and shed tests need.  release() completes everything parked
 * so far, on the caller's thread.
 */
class AsyncGateBackend : public Backend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t) override
    {
        BackendResult result;
        result.value = hashMix64(key);
        result.latencyNs = 5000.0;
        return result;
    }

    void
    fetchAsync(Addr key, std::uint64_t,
               FetchCallback done) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.emplace_back(key, std::move(done));
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 1000.0;
        return result;
    }

    std::string describe() const override { return "async-gate"; }

    std::size_t
    pendingCount() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return pending_.size();
    }

    void
    release()
    {
        std::vector<std::pair<Addr, FetchCallback>> take;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            take.swap(pending_);
        }
        for (auto &[key, done] : take) {
            BackendResult result;
            result.value = hashMix64(key);
            result.latencyNs = 5000.0;
            done(result, nullptr);
        }
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::pair<Addr, FetchCallback>> pending_;
};

/** Spin until @p pred holds or ~2 s elapse. */
template <typename Pred>
bool
eventually(Pred pred)
{
    for (int i = 0; i < 2000; ++i) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
}

/** Raw client socket (bypasses RespClient to send partial frames). */
int
rawConnect(std::uint16_t port, double timeout_sec)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_sec);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

} // namespace

// ---------------------------------------------------------------------------
// Circuit breaker -- unit-level, caller-supplied clock
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, RateTripOpensFastFailsAndProbeRecovers)
{
    BreakerConfig cfg = twitchyBreaker();
    cfg.backoffInitialMs = 10.0;
    cfg.backoffMaxMs = 40.0;
    CircuitBreaker breaker(cfg, /*id=*/0);
    std::uint64_t now = 1;
    const std::uint64_t ms = 1'000'000;

    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.admit(now), CircuitBreaker::Admit::Proceed);

    // Two failures over a two-sample window: 100% >= 50% -> trip.
    breaker.onFailure(false, now);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.onFailure(false, now);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 1u);

    // Open: everything fails fast until the backoff elapses.
    EXPECT_EQ(breaker.admit(now + 1),
              CircuitBreaker::Admit::FailFast);
    EXPECT_EQ(breaker.admit(now + 9 * ms),
              CircuitBreaker::Admit::FailFast);
    EXPECT_EQ(breaker.fastFails(), 2u);

    // Backoff elapsed: exactly one probe goes through, the rest
    // still fail fast while it is in flight.
    now += 11 * ms;
    EXPECT_EQ(breaker.admit(now), CircuitBreaker::Admit::Probe);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_EQ(breaker.admit(now), CircuitBreaker::Admit::FailFast);

    // Probe failure: reopen, with the backoff doubled (20 ms).
    breaker.onFailure(false, now);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_EQ(breaker.admit(now + 19 * ms),
              CircuitBreaker::Admit::FailFast);
    now += 21 * ms;
    EXPECT_EQ(breaker.admit(now), CircuitBreaker::Admit::Probe);

    // Probe success: closed, trip count reset -- the next trip
    // starts over at the initial backoff.
    breaker.onSuccess(now);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.admit(now), CircuitBreaker::Admit::Proceed);
    breaker.onFailure(false, now);
    breaker.onFailure(false, now);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.admit(now + 11 * ms),
              CircuitBreaker::Admit::Probe);
}

TEST(CircuitBreaker, ConsecutiveTimeoutsTripWithoutFillingTheWindow)
{
    BreakerConfig cfg = twitchyBreaker();
    cfg.minSamples = 1000; // the rate path cannot trip
    cfg.windowOps = 1000;
    cfg.consecutiveTimeouts = 3;
    CircuitBreaker breaker(cfg, 1);

    breaker.onFailure(true, 1);
    breaker.onFailure(true, 1);
    // A non-timeout success in between resets the streak.
    breaker.onSuccess(1);
    breaker.onFailure(true, 1);
    breaker.onFailure(true, 1);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.onFailure(true, 1);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
}

TEST(CircuitBreaker, BackoffDoublesCapsAndJittersDeterministically)
{
    BreakerConfig cfg = twitchyBreaker();
    cfg.backoffInitialMs = 10.0;
    cfg.backoffMaxMs = 35.0;
    CircuitBreaker plain(cfg, 0);
    EXPECT_EQ(plain.backoffNs(1), 10'000'000u);
    EXPECT_EQ(plain.backoffNs(2), 20'000'000u);
    EXPECT_EQ(plain.backoffNs(3), 35'000'000u); // capped

    cfg.jitterFraction = 0.2;
    cfg.seed = 7;
    CircuitBreaker jittered(cfg, 0);
    CircuitBreaker again(cfg, 0);
    for (unsigned trips = 1; trips <= 4; ++trips) {
        const std::uint64_t a = jittered.backoffNs(trips);
        // Pure function of (seed, id, trips): replays identically.
        EXPECT_EQ(a, again.backoffNs(trips));
        const double base = static_cast<double>(
            plain.backoffNs(trips));
        EXPECT_GE(static_cast<double>(a), base * 0.8 - 1.0);
        EXPECT_LE(static_cast<double>(a), base * 1.2 + 1.0);
    }
}

TEST(CircuitBreaker, ConfigValidates)
{
    BreakerConfig cfg = twitchyBreaker();
    EXPECT_NO_THROW(cfg.validate());
    cfg.failureRateThreshold = 1.5;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = twitchyBreaker();
    cfg.windowOps = 0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = twitchyBreaker();
    cfg.backoffInitialMs = -1.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
    cfg = twitchyBreaker();
    cfg.jitterFraction = 2.0;
    EXPECT_THROW(cfg.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// Circuit breaker -- wired through CacheService
// ---------------------------------------------------------------------------

TEST(ServeBreaker, OpensOnFailuresThenFailsFastWithTypedError)
{
    FailingBackend backend;
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.breaker = twitchyBreaker();
    CacheService service(config, backend);

    // The first two misses reach the backend and fail honestly.
    EXPECT_THROW(service.get(7), NetError);
    EXPECT_THROW(service.get(7), NetError);
    EXPECT_EQ(backend.fetches.load(), 2u);
    EXPECT_EQ(service.breakerOf(0).state(),
              CircuitBreaker::State::Open);

    // Open: the service refuses without a fetch, with the breaker's
    // own error type (exit code 12), not the backend's.
    EXPECT_THROW(service.get(7), CircuitOpenError);
    EXPECT_THROW(service.get(8), CircuitOpenError);
    EXPECT_EQ(backend.fetches.load(), 2u); // fetch count unchanged

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.breakerOpens, 1u);
    EXPECT_EQ(totals.breakerFastFails, 2u);
}

TEST(ServeBreaker, StaleWhileBrokenServesLastKnownValue)
{
    FailingBackend backend;
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.breaker = twitchyBreaker();
    config.breaker.staleWhileBroken = true;
    CacheService service(config, backend);

    // Install a value, then drop it: its ghost keeps the value.
    service.put(5, 42);
    EXPECT_TRUE(service.del(5));

    // Trip the breaker on an unrelated key.
    EXPECT_THROW(service.get(7), NetError);
    EXPECT_THROW(service.get(7), NetError);
    ASSERT_EQ(service.breakerOf(0).state(),
              CircuitBreaker::State::Open);

    // The evicted-but-known key comes back stale instead of failing;
    // a key this cache never held still fails fast.
    const ServeOpResult stale = service.get(5);
    EXPECT_FALSE(stale.hit);
    EXPECT_EQ(stale.value, 42u);
    EXPECT_THROW(service.get(9), CircuitOpenError);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.staleServes, 1u);
    EXPECT_EQ(backend.fetches.load(), 2u);
}

TEST(ServeBreaker, StaleWhileBrokenForgetsKeysPastTheGhostRing)
{
    FailingBackend backend;
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.breaker = twitchyBreaker();
    config.breaker.staleWhileBroken = true;
    CacheService service(config, backend);
    // One shard, one stripe: the set is the key's low bits, so keys
    // kKey + k * kSets share kKey's set.
    const Addr kSets = config.shardBytes / config.blockBytes / config.assoc;
    constexpr Addr kKey = 5;
    Addr next = kKey;
    const auto evictOne = [&] {
        const std::uint64_t before = service.totals().evictions;
        service.put(next += kSets, 1);
        ASSERT_EQ(service.totals().evictions, before + 1);
    };

    // Fill kKey's set, then evict kKey (the LRU line: uniform store
    // latencies never enable ACL's cost bias).
    service.put(kKey, 42);
    for (std::uint32_t way = 1; way < config.assoc; ++way)
        service.put(next += kSets, 1);
    evictOne();

    // Trip the breaker on a key of another set.
    EXPECT_THROW(service.get(7), NetError);
    EXPECT_THROW(service.get(7), NetError);
    ASSERT_EQ(service.breakerOf(0).state(),
              CircuitBreaker::State::Open);

    // Still in its set's ring after assoc - 1 more evictions there...
    for (std::uint32_t n = 1; n < config.assoc; ++n)
        evictOne();
    EXPECT_EQ(service.get(kKey).value, 42u);
    // ...and forgotten after the assoc-th: the key is now unknown.
    evictOne();
    EXPECT_THROW(service.get(kKey), CircuitOpenError);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.staleServes, 1u);
    EXPECT_EQ(backend.fetches.load(), 2u);
    service.checkInvariants();
}

TEST(ServeBreaker, HalfOpenProbeRecoversAutomatically)
{
    FlakyBackend backend(/*fail_first=*/2);
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.breaker = twitchyBreaker();
    config.breaker.backoffInitialMs = 1.0; // reopen almost at once
    config.breaker.backoffMaxMs = 1.0;
    CacheService service(config, backend);

    EXPECT_THROW(service.get(7), NetError);
    EXPECT_THROW(service.get(7), NetError);
    ASSERT_EQ(service.breakerOf(0).state(),
              CircuitBreaker::State::Open);

    // Past the backoff the next miss is the probe; the backend has
    // recovered, so it closes the breaker and installs the value.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ServeOpResult probed = service.get(9);
    EXPECT_EQ(probed.value, hashMix64(9));
    EXPECT_EQ(service.breakerOf(0).state(),
              CircuitBreaker::State::Closed);
    EXPECT_TRUE(service.get(9).hit); // resident now
}

// ---------------------------------------------------------------------------
// Chaos layer -- pure-function determinism
// ---------------------------------------------------------------------------

TEST(NetChaos, DecisionsArePureSeedSensitiveAndGated)
{
    ChaosConfig cfg;
    cfg.rate = 0.5;
    cfg.seed = 1;

    // Pure: the same (site, a, b) always answers the same.
    int fires = 0;
    for (std::uint64_t a = 0; a < 200; ++a) {
        const bool first =
            chaosDecide(cfg, ChaosSite::BackendError, a, 3);
        EXPECT_EQ(first,
                  chaosDecide(cfg, ChaosSite::BackendError, a, 3));
        fires += first ? 1 : 0;
    }
    // Roughly half fire at rate 0.5 (wide tolerance: determinism is
    // the contract, the rate is only approximate).
    EXPECT_GT(fires, 50);
    EXPECT_LT(fires, 150);

    // Seed-sensitive: a different seed flips some decisions.
    ChaosConfig other = cfg;
    other.seed = 2;
    int differs = 0;
    for (std::uint64_t a = 0; a < 200; ++a)
        differs +=
            chaosDecide(cfg, ChaosSite::BackendError, a, 3) !=
                    chaosDecide(other, ChaosSite::BackendError, a, 3)
                ? 1
                : 0;
    EXPECT_GT(differs, 0);

    // Gates: rate 0 is off everywhere; ConnReset additionally needs
    // the opt-in even at rate 1.
    ChaosConfig off;
    EXPECT_FALSE(chaosDecide(off, ChaosSite::ShortWrite, 1, 1));
    ChaosConfig certain;
    certain.rate = 1.0;
    certain.seed = 3;
    EXPECT_TRUE(chaosDecide(certain, ChaosSite::ShortWrite, 1, 1));
    EXPECT_FALSE(chaosDecide(certain, ChaosSite::ConnReset, 1, 1));
    certain.resets = true;
    EXPECT_TRUE(chaosDecide(certain, ChaosSite::ConnReset, 1, 1));

    ChaosConfig bad;
    bad.rate = 1.5;
    EXPECT_THROW(bad.validate(), ConfigError);
    bad.rate = 0.0;
    bad.resets = true;
    EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(NetChaos, ChaosBackendInjectsTheSameFaultsEveryRun)
{
    ChaosConfig chaos;
    chaos.rate = 0.3;
    chaos.seed = 9;

    const auto faultPattern = [&chaos] {
        SyntheticBackendConfig backend_config;
        SyntheticBackend inner(backend_config);
        ChaosBackend wrapped(inner, chaos);
        std::vector<bool> threw;
        for (Addr key = 0; key < 100; ++key) {
            // Two attempts per key: the ordinal is part of the draw,
            // so a retry may fault differently than the first try.
            for (int attempt = 0; attempt < 2; ++attempt) {
                bool failed = false;
                try {
                    (void)wrapped.fetch(key, 0);
                } catch (const InjectedFaultError &) {
                    failed = true;
                }
                threw.push_back(failed);
            }
            // Stores never fault: SET cost is part of the
            // deterministic summary.
            EXPECT_EQ(wrapped.store(key, 1, 0).value, 1u);
        }
        return threw;
    };

    const std::vector<bool> first = faultPattern();
    const std::vector<bool> second = faultPattern();
    EXPECT_EQ(first, second);
    const std::size_t faults = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), true));
    EXPECT_GT(faults, 0u);
    EXPECT_LT(faults, first.size());
}

// ---------------------------------------------------------------------------
// Event-loop timers
// ---------------------------------------------------------------------------

TEST(EventLoopTimers, FireInDeadlineOrderAndCancelWorks)
{
    EventLoop loop;
    std::thread runner([&loop] { loop.run(); });

    std::mutex mutex;
    std::vector<int> order;
    std::atomic<bool> done{false};
    loop.post([&] {
        // Timers are loop-thread-only; arm them from a posted task.
        loop.addTimer(5'000'000, [&] {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(1);
        });
        const EventLoop::TimerId doomed =
            loop.addTimer(30'000'000, [&] {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(99);
            });
        loop.addTimer(15'000'000, [&] {
            {
                std::lock_guard<std::mutex> lock(mutex);
                order.push_back(2);
            }
            done.store(true);
        });
        loop.cancelTimer(doomed);
    });

    EXPECT_TRUE(eventually([&] { return done.load(); }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.stop();
    runner.join();

    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(loop.pendingTimers(), 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST(NetDrain, FlushesEveryAcceptedCommandUnderPipelinedLoad)
{
    AsyncGateBackend backend;
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    NetServer server(service, net_config);
    server.start();

    // Pipeline 20 distinct-key GETs; every one parks on the gate.
    constexpr std::size_t kOps = 20;
    RespClient client("127.0.0.1", server.port(), 10.0);
    for (std::size_t i = 0; i < kOps; ++i)
        client.send({"GET", std::to_string(1000 + i)});
    client.flush();
    ASSERT_TRUE(eventually(
        [&backend] { return backend.pendingCount() == kOps; }));

    // Drain while all 20 are in flight, releasing the backend once
    // the drain has begun: the contract is one reply per accepted
    // command, then close -- nothing lost, nothing extra.
    DrainReport report;
    std::thread drainer(
        [&] { report = server.drain(/*deadline_ms=*/5000.0); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    backend.release();
    drainer.join();

    EXPECT_EQ(report.drainedConns, 1u);
    EXPECT_EQ(report.forcedCloses, 0u);
    EXPECT_FALSE(report.deadlineExpired);

    for (std::size_t i = 0; i < kOps; ++i) {
        const RespClient::Reply reply = client.readReply();
        EXPECT_EQ(reply.type, '$');
        EXPECT_EQ(reply.text,
                  std::to_string(hashMix64(1000 + i)));
    }
    // ...and not one byte more: the server closed after the flush.
    EXPECT_THROW(client.readReply(), NetError);

    server.stop();
    EXPECT_EQ(service.totals().gets, kOps);
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.cmdGet, kOps);
    EXPECT_EQ(stats.errorReplies, 0u);
}

TEST(NetDrain, DeadlineExpiryFailsInflightFetchesAndForcesClose)
{
    AsyncGateBackend backend;
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    NetServer server(service, net_config);
    server.start();

    RespClient client("127.0.0.1", server.port(), 10.0);
    for (std::size_t i = 0; i < 5; ++i)
        client.send({"GET", std::to_string(2000 + i)});
    client.flush();
    ASSERT_TRUE(eventually(
        [&backend] { return backend.pendingCount() == 5; }));

    // Never release: the drain must not hang on the wedged backend.
    const DrainReport report = server.drain(/*deadline_ms=*/100.0);
    EXPECT_TRUE(report.deadlineExpired);
    EXPECT_EQ(report.failedFetches, 5u);
    EXPECT_EQ(report.forcedCloses, 1u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Overload shedding
// ---------------------------------------------------------------------------

TEST(NetShed, DataCommandsPastTheWatermarkGetBusyInOrder)
{
    AsyncGateBackend backend;
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    net_config.tuning.shedPendingOps = 4;
    NetServer server(service, net_config);
    server.start();

    // 10 pipelined GETs against a wedged backend: the first 4 claim
    // pending slots, 5..10 cross the watermark and shed.  The -BUSY
    // replies still honour pipeline order (they queue behind the
    // pending slots), so the shed pattern is deterministic.
    RespClient client("127.0.0.1", server.port(), 10.0);
    for (std::size_t i = 0; i < 10; ++i)
        client.send({"GET", std::to_string(3000 + i)});
    client.flush();
    ASSERT_TRUE(eventually(
        [&backend] { return backend.pendingCount() == 4; }));

    // PING is exempt: a shedding server still answers health checks.
    client.send({"PING"});
    client.flush();

    backend.release();
    for (std::size_t i = 0; i < 10; ++i) {
        const RespClient::Reply reply = client.readReply();
        if (i < 4) {
            EXPECT_EQ(reply.type, '$') << "op " << i;
        } else {
            ASSERT_TRUE(reply.isError()) << "op " << i;
            EXPECT_EQ(reply.text.rfind("BUSY", 0), 0u)
                << reply.text;
        }
    }
    EXPECT_EQ(client.readReply().text, "PONG");

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.shedOps, 6u);
    EXPECT_EQ(service.totals().gets, 4u); // shed ops never got in
}

// ---------------------------------------------------------------------------
// Connection lifecycle: deadlines and admission
// ---------------------------------------------------------------------------

TEST(NetLifecycle, SlowLorisPartialFrameIsEvicted)
{
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    net_config.tuning.readDeadlineMs = 50.0;
    net_config.tuning.idleTimeoutMs = 0.0; // isolate the deadline
    NetServer server(service, net_config);
    server.start();

    // Open a frame and never finish it: the read deadline must boot
    // us (recv sees a clean FIN well before the 2 s socket timeout).
    const int fd = rawConnect(server.port(), 2.0);
    const char partial[] = "*2\r\n$3\r\nGET";
    ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(partial) - 1));
    char buf[64];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);

    server.stop();
    EXPECT_EQ(server.stats().deadlineClosed, 1u);
}

TEST(NetLifecycle, IdleConnectionIsEvicted)
{
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    net_config.tuning.idleTimeoutMs = 50.0;
    net_config.tuning.readDeadlineMs = 0.0;
    NetServer server(service, net_config);
    server.start();

    const int fd = rawConnect(server.port(), 2.0);
    char buf[64];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);

    server.stop();
    EXPECT_EQ(server.stats().idleClosed, 1u);
}

TEST(NetLifecycle, MaxConnsRejectsAtCapacityWithAnError)
{
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.workers = 1;
    net_config.maxConns = 1;
    NetServer server(service, net_config);
    server.start();

    RespClient first("127.0.0.1", server.port(), 10.0);
    EXPECT_EQ(first.roundTrip({"PING"}).text, "PONG"); // occupied

    // The second connection is told why, then closed -- without ever
    // sending a command.
    const int fd = rawConnect(server.port(), 2.0);
    std::string refusal;
    char buf[64];
    while (true) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        refusal.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(refusal, "-ERR server at capacity\r\n");

    // The occupant still works, and closing it frees the seat.
    EXPECT_EQ(first.roundTrip({"PING"}).text, "PONG");

    server.stop();
    EXPECT_EQ(server.stats().capacityRejections, 1u);
    EXPECT_EQ(server.stats().connectionsAccepted, 1u);
}
