/**
 * @file
 * Tests of the serving layer's concurrency machinery: the lock-free
 * read of a busy stripe never serves a torn read, the deferred access
 * log makes a contended run end in the same state as an uncontended
 * one, and a miss stampede on one key coalesces onto a single backend
 * fetch while every requester's EWMA still sees a sample.
 *
 * Suite names contain "Serve" so the CI TSan job's ctest regex picks
 * every one of these up; the torn-read and stampede tests are the
 * ones TSan is pointed at.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ServeTestBackend.h"
#include "cache/SimdScan.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "telemetry/Telemetry.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;

namespace
{

/** One-shard service with far fewer lines than the keyspace, so gets
 *  churn the tag/value lanes while readers probe them. */
ServeConfig
churnConfig(PolicyKind policy)
{
    ServeConfig config;
    config.shards = 1;
    config.shardBytes = 4 * 1024; // 64 lines
    config.assoc = 8;
    config.policy = policy;
    return config;
}

/** The deterministic payload a put() writes in these tests. */
std::uint64_t
putPayload(Addr key)
{
    return hashMix64(key ^ 0xC0FFEEull);
}

/** Run put(@p key) on a helper thread held inside its store() -- so it
 *  holds its stripe's mutex -- call @p during, then let it finish.
 *  @return the put's result. */
template <typename Fn>
ServeOpResult
whileStripeHeld(CacheService &service, ScriptedBackend &backend, Addr key,
                Fn during)
{
    const std::uint64_t calls = backend.calls();
    backend.hold();
    ServeOpResult put;
    std::thread holder([&] { put = service.put(key, putPayload(key)); });
    backend.awaitCalls(calls + 1);
    during();
    backend.release();
    holder.join();
    return put;
}

/**
 * Replay @p ops through @p service from this thread.  With a
 * @p reference (the per-op results of an uncontended replay of the
 * same ops), each write that was a store hit there -- it changes no
 * residency -- holds its stripe while this thread serves the gets
 * after it that hit in the reference (up to one that reads the written
 * key): those gets meet a busy stripe.
 */
std::vector<ServeOpResult>
replayOps(CacheService &service, ScriptedBackend &backend,
          const std::vector<Op> &ops,
          const std::vector<ServeOpResult> *reference = nullptr)
{
    constexpr std::size_t kMaxWindow = 64; // well inside the access log
    std::vector<ServeOpResult> results(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        if (!op.write) {
            results[i] = service.get(op.key);
        } else if (reference == nullptr || !(*reference)[i].hit) {
            results[i] = service.put(op.key, putPayload(op.key));
        } else {
            std::size_t j = i + 1;
            results[i] = whileStripeHeld(service, backend, op.key, [&] {
                for (; j < ops.size() && j - i <= kMaxWindow &&
                       !ops[j].write && (*reference)[j].hit &&
                       ops[j].key != op.key;
                     ++j)
                    results[j] = service.get(ops[j].key);
            });
            // A window get that missed had to wait out the hold: the
            // runs diverged, so stop and let the caller report where.
            for (std::size_t k = i + 1; k < j; ++k)
                if (!results[k].hit)
                    return results;
            i = j - 1;
        }
    }
    return results;
}

/**
 * The same op stream twice -- once uncontended, once with a stripe
 * held busy around the gets that follow each resident write -- must
 * give the same per-op results and the same end state: the deferred
 * recency promotions of the lock-free hits, drained by the next lock
 * holder, replay exactly what the locked hits would have done.
 */
void
expectContendedRunMatchesUncontended(PolicyKind policy, unsigned stripes)
{
    ServeConfig config = churnConfig(policy);
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.stripes = stripes;

    WorkloadMix mix;
    mix.numKeys = 8192;
    mix.writeFraction = 0.1;
    KeyGenerator generator(mix, 99);
    std::vector<Op> ops(30000);
    for (Op &op : ops)
        op = generator.next();

    ScriptedBackend plain_backend, busy_backend;
    CacheService plain(config, plain_backend);
    CacheService busy(config, busy_backend);
    const std::vector<ServeOpResult> want =
        replayOps(plain, plain_backend, ops);
    const std::vector<ServeOpResult> got =
        replayOps(busy, busy_backend, ops, &want);
    plain.checkInvariants();
    busy.checkInvariants();

    for (std::size_t i = 0; i < ops.size(); ++i)
        ASSERT_EQ(std::tie(got[i].hit, got[i].value, got[i].backendNs),
                  std::tie(want[i].hit, want[i].value, want[i].backendNs))
            << "op " << i;
    const auto end_state = [](const ServeTotals &t) {
        return std::make_tuple(t.gets, t.hits, t.misses, t.storeHits,
                               t.evictions, t.trackedKeys, t.missCostNs,
                               t.storeCostNs);
    };
    const ServeTotals a = plain.totals();
    const ServeTotals b = busy.totals();
    EXPECT_EQ(end_state(a), end_state(b));
    // Only the contended run read around the lock -- and it did.
    EXPECT_EQ(a.seqlockHits, 0u);
    EXPECT_GT(b.seqlockHits, 100u);
    EXPECT_EQ(b.lockedFallbacks, 0u);
    EXPECT_EQ(b.logFullFallbacks, 0u);
}

} // namespace

// ---------------------------------------------------------------------------
// SIMD tag scan
// ---------------------------------------------------------------------------

TEST(ServeSimdScan, MatchesScalarOnEveryMaskShape)
{
    // The dispatched kernel (AVX2 where the CPU has it) must agree
    // with the scalar reference bit for bit, including the unaligned
    // tail beyond a multiple of four ways.
    std::vector<std::uint64_t> tags;
    for (std::uint32_t count = 0; count <= 19; ++count) {
        tags.assign(count, 0);
        for (std::uint32_t i = 0; i < count; ++i)
            tags[i] = hashMix64(i) & 3; // force collisions
        for (std::uint64_t needle = 0; needle < 4; ++needle) {
            const std::uint64_t want =
                simd::tagEqMaskScalar(tags.data(), count, needle);
            const std::uint64_t got =
                simd::kTagEqMask(tags.data(), count, needle);
            EXPECT_EQ(want, got)
                << "count=" << count << " needle=" << needle
                << " isa=" << simd::tagScanIsa();
        }
    }
}

// ---------------------------------------------------------------------------
// Seqlock hit path
// ---------------------------------------------------------------------------

TEST(ServeSeqlock, RejectsBadAccessLogCapacity)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = churnConfig(PolicyKind::Lru);
    config.accessLogCapacity = 48; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config.accessLogCapacity = 1;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
}

/**
 * The torn-read detector.  The synthetic backend's value is a pure
 * function of the key, so if an optimistic reader ever pairs key A's
 * tag with key B's value -- a fill racing the probe -- the returned
 * value is provably wrong.  Keyspace >> capacity keeps the tag and
 * value lanes churning under the readers the whole time.
 */
TEST(ServeSeqlock, NeverServesATornReadUnderFillChurn)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 17;
    SyntheticBackend backend(backend_config);
    CacheService service(churnConfig(PolicyKind::Lru),
                         backend);

    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 20000;
    constexpr Addr kKeys = 512; // 8x the line count
    std::atomic<std::uint64_t> wrong{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::uint64_t rng = hashMix64(t + 1);
            for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
                rng = hashMix64(rng);
                const Addr key = rng % kKeys;
                const ServeOpResult result = service.get(key);
                if (result.value != backend.valueOf(key))
                    wrong.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrong.load(), 0u);
    service.checkInvariants();

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, kThreads * kOpsPerThread);
    EXPECT_EQ(totals.gets, totals.hits + totals.misses);
    EXPECT_LE(totals.seqlockHits, totals.hits);
    EXPECT_EQ(totals.backendFetches + totals.coalescedMisses,
              totals.misses);
}

/**
 * Same detector with a writer in the mix: every observed value must
 * be either the backend's or the put payload -- never a mix of two
 * cache lines.
 */
TEST(ServeSeqlock, ValuesStayLegalUnderConcurrentPuts)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 23;
    SyntheticBackend backend(backend_config);
    CacheService service(churnConfig(PolicyKind::Acl),
                         backend);

    constexpr Addr kKeys = 256;
    constexpr std::uint64_t kOpsPerThread = 15000;
    std::atomic<std::uint64_t> illegal{0};

    std::thread writer([&] {
        std::uint64_t rng = 0x5EEDull;
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
            rng = hashMix64(rng);
            const Addr key = rng % kKeys;
            service.put(key, putPayload(key));
        }
    });
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            std::uint64_t rng = hashMix64(t + 100);
            for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
                rng = hashMix64(rng);
                const Addr key = rng % kKeys;
                const std::uint64_t value = service.get(key).value;
                if (value != backend.valueOf(key) &&
                    value != putPayload(key))
                    illegal.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    writer.join();
    for (auto &thread : readers)
        thread.join();

    EXPECT_EQ(illegal.load(), 0u);
    service.checkInvariants();
}

TEST(ServeSeqlock, EndStateMatchesLockedPathAtOneWorker)
{
    for (const PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
          PolicyKind::Dcl, PolicyKind::Acl}) {
        SCOPED_TRACE(policyKindName(policy));
        expectContendedRunMatchesUncontended(policy, 1);
    }
}

/**
 * The same equality inside a striped shard: a held stripe sends only
 * its own keys' gets around the lock, while gets on its sibling
 * stripes still find their mutexes free.
 */
TEST(ServeSeqlock, EndStateMatchesLockedPathAtOneWorkerWhenStriped)
{
    for (const PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::Dcl, PolicyKind::Acl}) {
        SCOPED_TRACE(policyKindName(policy));
        expectContendedRunMatchesUncontended(policy, 4);
    }
}

/**
 * A saturated access log is counted apart from contention fallbacks.
 * With the stripe held and a capacity-2 log, two hits are served
 * lock-free; the third finds the log full, waits for the mutex, and
 * is re-served on the locked path (draining the log) -- bumping
 * logFullFallbacks while lockedFallbacks (a beaten retry budget)
 * stays zero, since the holder never opens a write section.
 */
TEST(ServeSeqlock, FullAccessLogIsCountedApartFromContention)
{
    ScriptedBackend backend;
    ServeConfig config = churnConfig(PolicyKind::Lru);
    config.accessLogCapacity = 2;
    CacheService service(config, backend);
    service.get(7); // install

    telemetry::Tracer &tracer = telemetry::Tracer::instance();
    std::atomic<bool> third_done{false};
    std::thread third;
    whileStripeHeld(service, backend, 8, [&] {
        EXPECT_TRUE(service.get(7).hit);
        EXPECT_TRUE(service.get(7).hit);
        // The third get has to wait for the holder.  Its lock-wait
        // span opens only after the full log sent it there, so seeing
        // the span is what makes releasing the holder safe.
        tracer.clear();
        telemetry::setTracingEnabled(true);
        third = std::thread([&] {
            EXPECT_TRUE(service.get(7).hit);
            third_done = true;
        });
        const auto waiting = [&] {
            for (const telemetry::TraceEvent &ev : tracer.snapshot())
                if (ev.phase == 'B' &&
                    std::string(ev.name) == "stripe.lock_wait")
                    return true;
            return false;
        };
        while (!waiting() && !third_done)
            std::this_thread::yield();
    });
    third.join();
    telemetry::setTracingEnabled(false);
    tracer.clear();

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, 4u);
    EXPECT_EQ(totals.hits, 3u);
    EXPECT_EQ(totals.seqlockHits, 2u);
    EXPECT_EQ(totals.logFullFallbacks, 1u);
    EXPECT_EQ(totals.lockedFallbacks, 0u);
    service.checkInvariants();
}

TEST(ServeSeqlock, FreeAffinityHarnessRunValidatesClean)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = churnConfig(PolicyKind::Acl);
    config.shards = 4;
    CacheService service(config, backend);

    HarnessConfig harness;
    harness.ops = 40000;
    harness.workers = 4;
    harness.seed = 5;
    harness.shardAffinity = false; // real contention
    harness.mix.numKeys = 4096;

    const HarnessResult result = runLoad(service, harness);
    service.checkInvariants();
    EXPECT_EQ(result.totals.gets,
              result.totals.hits + result.totals.misses);
    EXPECT_EQ(result.totals.backendFetches +
                  result.totals.coalescedMisses,
              result.totals.misses);
}

// ---------------------------------------------------------------------------
// Single-flight miss coalescing
// ---------------------------------------------------------------------------

/**
 * The stampede test: N threads miss on one cold key while the
 * backend's gate is shut.  Exactly one fetch may run; everyone gets
 * the value; every requester's EWMA records a sample.
 */
TEST(ServeSingleFlight, StampedeOnOneKeyCoalescesToOneFetch)
{
    ScriptedBackend backend;
    backend.hold();
    CacheService service(churnConfig(PolicyKind::Lru),
                         backend);

    constexpr unsigned kThreads = 8;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> wrongValues{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const ServeOpResult result = service.get(kKey);
            if (result.hit ||
                result.value != backend.valueOf(kKey))
                wrongValues.fetch_add(1, std::memory_order_relaxed);
        });
    }

    // Wait until the other N-1 threads have parked on the leader's
    // in-flight entry, then open the gate.
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrongValues.load(), 0u);
    EXPECT_EQ(backend.calls(), 1u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads);
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1);
    // One observation per requester: the cost signal is not starved
    // by the coalescing.
    EXPECT_EQ(service.keySamples(kKey), kThreads);
    // The key is now resident: a subsequent get is a pure hit.
    const ServeOpResult again = service.get(kKey);
    EXPECT_TRUE(again.hit);
    // Each requester was charged the leader's measured latency.
    EXPECT_DOUBLE_EQ(totals.missCostNs,
                     backend.SyntheticBackend::fetch(kKey, 0).latencyNs *
                         kThreads);
    EXPECT_EQ(again.value, backend.valueOf(kKey));
    service.checkInvariants();
}

/**
 * Leader crash path: the backend throws out of the single-flight
 * leader's fetch.  Every parked waiter must be woken with that error
 * -- not left on the condition variable forever -- and the in-flight
 * entry must be retired first, so the next get() elects a fresh
 * leader and the service keeps working.
 */
TEST(ServeSingleFlight, LeaderCrashWakesWaitersWithTheError)
{
    ScriptedBackend backend;
    backend.hold();
    backend.failNext = true;
    CacheService service(churnConfig(PolicyKind::Lru),
                         backend);

    constexpr unsigned kThreads = 6;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> failed{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            try {
                service.get(kKey);
            } catch (const InjectedFaultError &) {
                failed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // Park the other N-1 threads on the leader's in-flight entry,
    // then open the gate and let the leader's fetch throw.
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    // The leader rethrows its own error; every waiter gets the same
    // one from the published flight.  Nobody deadlocks, nobody
    // fabricates a value.
    EXPECT_EQ(failed.load(), kThreads);
    EXPECT_EQ(backend.calls(), 1u);

    // The crashed flight was erased: the retry elects a fresh leader
    // and the (now recovered) backend serves it.
    const ServeOpResult retry = service.get(kKey);
    EXPECT_FALSE(retry.hit);
    EXPECT_EQ(retry.value, backend.valueOf(kKey));
    EXPECT_EQ(backend.calls(), 2u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads + 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1u);
    // Only the successful fetch is counted (and only it feeds the
    // cost signal): the crashed one produced no sample.
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(service.keySamples(kKey), 1u);
    EXPECT_TRUE(service.get(kKey).hit);
    service.checkInvariants();
}

/**
 * Striping must not break single-flight: the stampede test again,
 * with the shard split into 4 stripes (the cold key lives in exactly
 * one of them, whose in-flight table does the coalescing).
 */
TEST(ServeSingleFlight, StripedStampedeStillCoalescesToOneFetch)
{
    ScriptedBackend backend;
    backend.hold();
    ServeConfig config = churnConfig(PolicyKind::Acl);
    config.stripes = 4;
    CacheService service(config, backend);

    constexpr unsigned kThreads = 8;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> wrongValues{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const ServeOpResult result = service.get(kKey);
            if (result.hit ||
                result.value != backend.valueOf(kKey))
                wrongValues.fetch_add(1, std::memory_order_relaxed);
        });
    }
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrongValues.load(), 0u);
    EXPECT_EQ(backend.calls(), 1u);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads);
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1);
    EXPECT_EQ(service.keySamples(kKey), kThreads);
    service.checkInvariants();
}

TEST(ServeSingleFlight, LockedPathCountsOneFetchPerMiss)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(churnConfig(PolicyKind::Lru),
                         backend);
    for (Addr key = 0; key < 200; ++key)
        service.get(key);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.backendFetches, totals.misses);
    EXPECT_EQ(totals.coalescedMisses, 0u);
    EXPECT_EQ(totals.seqlockHits, 0u);
    EXPECT_EQ(totals.lockedFallbacks, 0u);
}
