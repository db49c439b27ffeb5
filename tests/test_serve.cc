/**
 * @file
 * Tests of the serving layer (src/serve): backend and key-generator
 * determinism, CacheService semantics, the load harness's
 * worker-count-invariance contract, and concurrent telemetry use from
 * serve worker threads.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ServeTestBackend.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/KeyGenerator.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"

using namespace csr;
using namespace csr::serve;

namespace
{

/** Minimal recursive-descent JSON validator (same contract as
 *  test_telemetry's: "consumers can parse this" checked for real). */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    std::string text_;
    std::size_t pos_ = 0;
};

ServeConfig
smallServeConfig(PolicyKind policy)
{
    ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.assoc = 4;
    config.policy = policy;
    return config;
}

HarnessConfig
smallHarnessConfig(std::uint64_t ops, unsigned workers)
{
    HarnessConfig config;
    config.ops = ops;
    config.workers = workers;
    config.seed = 99;
    config.mix.numKeys = 8192;
    return config;
}

bool
totalsEqual(const ServeTotals &a, const ServeTotals &b)
{
    return a.gets == b.gets && a.hits == b.hits &&
           a.misses == b.misses && a.stores == b.stores &&
           a.storeHits == b.storeHits && a.evictions == b.evictions &&
           a.trackedKeys == b.trackedKeys &&
           a.missCostNs == b.missCostNs && // bit-equal, by contract
           a.storeCostNs == b.storeCostNs;
}

} // namespace

// ---------------------------------------------------------------------------
// SyntheticBackend
// ---------------------------------------------------------------------------

TEST(SyntheticBackend, IsAPureFunctionOfSeedKeySalt)
{
    SyntheticBackendConfig config;
    config.seed = 5;
    SyntheticBackend a(config), b(config);
    for (Addr key = 0; key < 64; ++key) {
        for (std::uint64_t salt = 0; salt < 3; ++salt) {
            const BackendResult ra = a.fetch(key, salt);
            const BackendResult rb = b.fetch(key, salt);
            EXPECT_EQ(ra.value, rb.value);
            EXPECT_EQ(ra.latencyNs, rb.latencyNs);
            EXPECT_EQ(ra.value, a.valueOf(key));
        }
    }
}

TEST(SyntheticBackend, TiersSplitTheKeyspace)
{
    SyntheticBackendConfig config;
    config.slowFraction = 0.25;
    config.jitterFraction = 0.0;
    SyntheticBackend backend(config);
    std::uint64_t slow = 0;
    const int n = 4096;
    for (Addr key = 0; key < n; ++key) {
        const double ns = backend.fetch(key, 0).latencyNs;
        EXPECT_EQ(ns, backend.isSlowKey(key) ? config.slowNs
                                             : config.fastNs);
        slow += backend.isSlowKey(key);
    }
    EXPECT_NEAR(static_cast<double>(slow) / n, 0.25, 0.05);
}

TEST(SyntheticBackend, JitterIsBoundedAndSaltDependent)
{
    SyntheticBackendConfig config;
    config.jitterFraction = 0.1;
    SyntheticBackend backend(config);
    const Addr key = 17;
    const double base = backend.baseLatencyNs(key);
    std::set<double> seen;
    for (std::uint64_t salt = 0; salt < 16; ++salt) {
        const double ns = backend.fetch(key, salt).latencyNs;
        EXPECT_GE(ns, base * 0.9 - 1e-9);
        EXPECT_LE(ns, base * 1.1 + 1e-9);
        seen.insert(ns);
    }
    EXPECT_GT(seen.size(), 1u); // salt actually varies the draw
}

TEST(SyntheticBackend, RejectsBadConfig)
{
    SyntheticBackendConfig bad;
    bad.slowFraction = 1.5;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
    bad = SyntheticBackendConfig{};
    bad.fastNs = -1.0;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
    bad = SyntheticBackendConfig{};
    bad.jitterFraction = 2.0;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
}

// ---------------------------------------------------------------------------
// KeyGenerator
// ---------------------------------------------------------------------------

TEST(KeyGenerator, StreamIsDeterministic)
{
    WorkloadMix mix;
    mix.numKeys = 1024;
    KeyGenerator a(mix, 7), b(mix, 7);
    for (int i = 0; i < 1000; ++i) {
        const Op oa = a.next();
        const Op ob = b.next();
        EXPECT_EQ(oa.key, ob.key);
        EXPECT_EQ(oa.write, ob.write);
        EXPECT_LT(oa.key, mix.numKeys);
    }
}

TEST(KeyGenerator, KeySequenceInvariantAcrossWriteFractions)
{
    WorkloadMix reads;
    reads.numKeys = 1024;
    reads.writeFraction = 0.0;
    WorkloadMix writes = reads;
    writes.writeFraction = 0.5;
    KeyGenerator a(reads, 7), b(writes, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next().key, b.next().key);
}

TEST(KeyGenerator, ZipfianIsSkewed)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Zipfian;
    mix.numKeys = 10000;
    KeyGenerator gen(mix, 3);
    std::map<Addr, int> counts;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().key];
    int top = 0;
    for (const auto &[key, count] : counts)
        top = std::max(top, count);
    // The hottest key draws far more than the uniform share (2 of
    // 20000); theta=0.99 gives it roughly 1/zeta(n) ~ 10%.
    EXPECT_GT(top, n / 100);
}

TEST(KeyGenerator, HotspotConcentratesAccesses)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Hotspot;
    mix.numKeys = 10000;
    mix.hotFraction = 0.1;
    mix.hotProbability = 0.9;
    KeyGenerator gen(mix, 3);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hot += gen.next().key < 1000;
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.9, 0.02);
}

TEST(KeyGenerator, ScanSweepsAndWraps)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Scan;
    mix.numKeys = 100;
    KeyGenerator gen(mix, 3);
    for (int round = 0; round < 3; ++round)
        for (Addr expect = 0; expect < 100; ++expect)
            EXPECT_EQ(gen.next().key, expect);
}

TEST(KeyGenerator, RejectsBadMix)
{
    WorkloadMix mix;
    mix.numKeys = 0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.zipfTheta = 1.0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.writeFraction = -0.5;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.dist = KeyDist::Hotspot;
    mix.hotFraction = 0.0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    EXPECT_THROW(parseKeyDist("pareto"), ConfigError);
    EXPECT_EQ(parseKeyDist("ZIPFIAN"), KeyDist::Zipfian);
}

// ---------------------------------------------------------------------------
// CacheService
// ---------------------------------------------------------------------------

TEST(CacheService, RejectsBadConfig)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.shards = 3; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Opt);
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Lru);
    config.ewmaAlpha = 0.0;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Lru);
    config.assoc = 3; // CacheGeometry rejects non-pow2 assoc
    EXPECT_THROW(CacheService(config, backend), CacheGeometryError);
}

TEST(CacheService, RejectsBadStripeCounts)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 3; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    // smallServeConfig has 64 sets per shard; more stripes than sets
    // would leave stripes without a single set.
    config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 128;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    // The boundary case -- one set per stripe -- is legal.
    config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 64;
    CacheService service(config, backend);
    EXPECT_EQ(service.numStripes(), 64u);
    service.checkInvariants();
}

TEST(CacheService, AutoStripesResolveToAPowerOfTwo)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.stripes = kStripesAuto;
    CacheService service(config, backend);
    const unsigned stripes = service.numStripes();
    EXPECT_GE(stripes, 1u);
    EXPECT_EQ(stripes & (stripes - 1), 0u);
}

TEST(CacheService, RequireStripesValidatesWithAcceptedValues)
{
    EXPECT_EQ(requireStripes("auto"), kStripesAuto);
    EXPECT_EQ(requireStripes("0"), kStripesAuto);
    EXPECT_EQ(requireStripes("1"), 1u);
    EXPECT_EQ(requireStripes("8"), 8u);
    for (const char *bad : {"3", "4x", "", "-4", "99999999999999"}) {
        try {
            requireStripes(bad);
            FAIL() << "expected ConfigError for '" << bad << "'";
        } catch (const ConfigError &err) {
            EXPECT_NE(std::string(err.what()).find("power of two"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(CacheService, ReadAfterWriteHitsAndReturnsTheValue)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Acl), backend);

    const ServeOpResult put = service.put(42, 1234);
    EXPECT_FALSE(put.hit); // write-allocate of a cold key
    EXPECT_GT(put.backendNs, 0.0);

    const ServeOpResult get = service.get(42);
    EXPECT_TRUE(get.hit);
    EXPECT_EQ(get.value, 1234u);

    const ServeOpResult put2 = service.put(42, 5678);
    EXPECT_TRUE(put2.hit); // resident now
    EXPECT_EQ(service.get(42).value, 5678u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, 2u);
    EXPECT_EQ(totals.hits, 2u);
    EXPECT_EQ(totals.stores, 2u);
    EXPECT_EQ(totals.storeHits, 1u);
    service.checkInvariants();
}

TEST(CacheService, MissFetchesTheBackendValue)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    const ServeOpResult get = service.get(7);
    EXPECT_FALSE(get.hit);
    EXPECT_EQ(get.value, backend.valueOf(7));
    EXPECT_GT(get.backendNs, 0.0);
    EXPECT_TRUE(service.get(7).hit);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, 1u);
    EXPECT_EQ(totals.missCostNs, get.backendNs);
}

TEST(CacheService, FailedFetchLeavesNoKeyState)
{
    ScriptedBackend backend;
    CacheService service(smallServeConfig(PolicyKind::Acl), backend);
    const ServeOpResult put = service.put(5, 42);
    backend.failNext = true;
    EXPECT_THROW(service.get(7), InjectedFaultError);

    // Only the stored key has a cost estimate: the failed fetch wrote
    // no line and no ghost, so the key's next fetch starts fresh.
    EXPECT_EQ(service.totals().trackedKeys, 1u);
    EXPECT_EQ(service.keySamples(5), 1u);
    EXPECT_EQ(service.keySamples(7), 0u);
    MetricRegistry registry;
    service.exportMetrics(registry);
    const RunningStat ewma = registry.statOf("serve.key_ewma_ns");
    EXPECT_EQ(ewma.count(), 1u);
    EXPECT_EQ(ewma.mean(), put.backendNs);
    EXPECT_EQ(ewma.min(), put.backendNs);
    service.checkInvariants();
}

TEST(CacheService, TrackedKeysStayBoundedUnderChurn)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    const ServeConfig config = smallServeConfig(PolicyKind::Acl);
    CacheService service(config, backend);
    const std::uint64_t lines = config.totalLines();
    WorkloadMix mix;
    mix.numKeys = 8 * lines;
    mix.zipfTheta = 0.9;
    mix.writeFraction = 0.3;
    KeyGenerator gen(mix, 11);
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < mix.numKeys; ++i) {
            const Op op = gen.next();
            if (i % 97 == 0)
                service.del(op.key);
            else if (op.write)
                service.put(op.key, i);
            else
                service.get(op.key);
        }
        const ServeTotals totals = service.totals();
        EXPECT_LE(totals.trackedKeys, 2 * lines) << "pass " << pass;
        EXPECT_GT(totals.trackedKeys, lines) << "pass " << pass;
        service.checkInvariants();
    }
    // Evicted keys came back while their ghosts were still in the ring.
    EXPECT_GT(service.totals().ghostHits, 0u);
}

TEST(CacheService, ShardOfIsStableAndInRange)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    for (Addr key = 0; key < 1000; ++key) {
        const unsigned shard = service.shardOf(key);
        EXPECT_LT(shard, service.numShards());
        EXPECT_EQ(shard, service.shardOf(key));
    }
}

// ---------------------------------------------------------------------------
// Load harness: the determinism contract
// ---------------------------------------------------------------------------

TEST(LoadHarness, TotalsAreWorkerCountInvariantUnderShardAffinity)
{
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Acl}) {
        std::vector<ServeTotals> totals;
        for (unsigned workers : {1u, 8u}) {
            SyntheticBackend backend(SyntheticBackendConfig{});
            CacheService service(smallServeConfig(kind), backend);
            const HarnessResult result = runLoad(
                service, smallHarnessConfig(50'000, workers));
            EXPECT_EQ(result.totals.gets + result.totals.stores,
                      50'000u);
            service.checkInvariants();
            totals.push_back(result.totals);
        }
        EXPECT_TRUE(totalsEqual(totals[0], totals[1]))
            << "policy #" << static_cast<int>(kind)
            << ": workers=1 vs workers=8 diverged";
    }
}

TEST(LoadHarness, TotalsAreWorkerCountInvariantUnderStriping)
{
    // The striping determinism contract: under shard affinity a
    // shard's stripes are only ever touched by its owning worker, so
    // the totals cannot depend on how many workers exist -- at any
    // stripe count.
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Acl}) {
        std::vector<ServeTotals> totals;
        for (unsigned workers : {1u, 8u}) {
            SyntheticBackend backend(SyntheticBackendConfig{});
            ServeConfig config = smallServeConfig(kind);
            config.stripes = 4;
            CacheService service(config, backend);
            const HarnessResult result = runLoad(
                service, smallHarnessConfig(50'000, workers));
            service.checkInvariants();
            totals.push_back(result.totals);
        }
        EXPECT_TRUE(totalsEqual(totals[0], totals[1]))
            << "policy #" << static_cast<int>(kind)
            << ": workers=1 vs workers=8 diverged at stripes=4";
    }
}

TEST(LoadHarness, SeedChangesTheRun)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService a(smallServeConfig(PolicyKind::Lru), backend);
    HarnessConfig config = smallHarnessConfig(20'000, 2);
    const HarnessResult ra = runLoad(a, config);

    SyntheticBackend backend2(SyntheticBackendConfig{});
    CacheService b(smallServeConfig(PolicyKind::Lru), backend2);
    config.seed = 100;
    const HarnessResult rb = runLoad(b, config);
    EXPECT_FALSE(totalsEqual(ra.totals, rb.totals));
}

TEST(LoadHarness, FreeAffinityStillServesEveryOp)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Dcl), backend);
    HarnessConfig config = smallHarnessConfig(20'000, 4);
    config.shardAffinity = false;
    const HarnessResult result = runLoad(service, config);
    EXPECT_EQ(result.totals.gets + result.totals.stores, 20'000u);
    EXPECT_EQ(result.opLatencyNs.totalCount(), 20'000u);
    service.checkInvariants();
}

TEST(LoadHarness, JsonOutputIsValid)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Bcl), backend);
    const HarnessResult result =
        runLoad(service, smallHarnessConfig(5'000, 2));
    std::ostringstream os;
    result.writeJsonObject(os, service.policyName(), "zipf-test");
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid()) << os.str();
    EXPECT_NE(os.str().find("\"missCostNs\""), std::string::npos);
}

TEST(LoadHarness, RejectsBadConfig)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    HarnessConfig config = smallHarnessConfig(100, 1);
    config.targetQps = -1.0;
    EXPECT_THROW(runLoad(service, config), ConfigError);
}

TEST(LoadHarness, SlowTierMissCostP99IsNotClamped)
{
    SyntheticBackendConfig backend_config;
    backend_config.slowNs = 400'000.0;
    backend_config.slowFraction = 0.3;
    SyntheticBackend backend(backend_config);
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    const HarnessResult result =
        runLoad(service, smallHarnessConfig(20'000, 1));
    // Under LRU about 30% of misses hit the slow tier (400 us +- 10%
    // jitter), so the p99 miss cost sits near its top.
    EXPECT_GE(result.missLatencyNs.percentile(0.99), 350'000.0);
}

// ---------------------------------------------------------------------------
// Telemetry from serve worker threads
// ---------------------------------------------------------------------------

#if !defined(CSR_TELEMETRY_DISABLED)

TEST(ServeTelemetry, ConcurrentWorkersProduceBalancedValidTrace)
{
    telemetry::Tracer::instance().clear();
    telemetry::setTracingEnabled(true);
    {
        SyntheticBackend backend(SyntheticBackendConfig{});
        CacheService service(smallServeConfig(PolicyKind::Acl),
                             backend);
        runLoad(service, smallHarnessConfig(20'000, 8));
    }
    telemetry::setTracingEnabled(false);

    std::size_t begins = 0, ends = 0;
    for (const telemetry::TraceEvent &ev :
         telemetry::Tracer::instance().snapshot()) {
        begins += ev.phase == 'B';
        ends += ev.phase == 'E';
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends); // every span closed, on every thread

    std::ostringstream os;
    telemetry::Tracer::instance().writeChromeTrace(os);
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid());
    telemetry::Tracer::instance().clear();
}

#endif // !CSR_TELEMETRY_DISABLED

TEST(ServeTelemetry, ConcurrentMetricExportIsValidJson)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Dcl), backend);
    const HarnessResult result =
        runLoad(service, smallHarnessConfig(20'000, 8));

    MetricRegistry registry;
    service.exportMetrics(registry);
    result.exportMetrics(registry);
    EXPECT_EQ(registry.counter("serve.gets") +
                  registry.counter("serve.stores"),
              20'000u);

    std::ostringstream os;
    registry.writeJson(os);
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid()) << os.str();
    EXPECT_NE(os.str().find("serve.op_latency_ns"), std::string::npos);
    // The two fallback flavors are reported apart: a saturated access
    // log is a sizing signal, a beaten retry budget a contention one.
    EXPECT_NE(os.str().find("serve.locked_fallbacks"),
              std::string::npos);
    EXPECT_NE(os.str().find("serve.log_full_fallbacks"),
              std::string::npos);
    EXPECT_NE(os.str().find("serve.stripes"), std::string::npos);
}
