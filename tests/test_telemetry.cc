/**
 * @file
 * Telemetry subsystem tests: Chrome trace export validity, balanced
 * spans, the zero-call disabled path, MetricRegistry schema and
 * merging, CliArgs, and the PolicyFactory / WorkloadConfig API
 * satellites that ride on the same PR.
 */

#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/PolicyFactory.h"
#include "cost/StaticCostModels.h"
#include "sim/TraceSimulator.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "robust/Errors.h"
#include "util/CliArgs.h"

using namespace csr;

namespace
{

/**
 * Minimal recursive-descent JSON validator -- no third-party JSON
 * dependency in the repo, but "the exported file is valid JSON" is
 * exactly what the Perfetto loader needs, so parse it for real.
 */
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
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const std::string &word)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            return false;
        pos_ += word.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

/** RAII guard: enable tracing on a clean buffer, disable + clear on
 *  exit so tests cannot leak enabled state into each other. */
class TracingScope
{
  public:
    TracingScope()
    {
        telemetry::Tracer::instance().clear();
        telemetry::setTracingEnabled(true);
    }

    ~TracingScope()
    {
        telemetry::setTracingEnabled(false);
        telemetry::Tracer::instance().clear();
    }
};

} // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, ExportsValidChromeTraceJson)
{
    TracingScope scope;
    {
        CSR_TRACE_SPAN("test", "outer");
        CSR_TRACE_SPAN_DYN("test", std::string("cell/") + "a");
        CSR_TRACE_INSTANT("test", "tick");
        CSR_TRACE_INSTANT_V("test", "tick_v", 42.5);
        CSR_TRACE_COUNTER("test", "gauge", 7);
    }
    std::ostringstream os;
    telemetry::Tracer::instance().writeChromeTrace(os);
    const std::string json = os.str();

    JsonValidator validator(json);
    EXPECT_TRUE(validator.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("cell/a"), std::string::npos);
}

TEST(Tracer, SpansBalanceAcrossThreads)
{
    TracingScope scope;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 50; ++i) {
                CSR_TRACE_SPAN("test", "worker");
                CSR_TRACE_INSTANT("test", "step");
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::size_t begins = 0, ends = 0, instants = 0;
    for (const telemetry::TraceEvent &ev :
         telemetry::Tracer::instance().snapshot()) {
        if (ev.phase == 'B')
            ++begins;
        else if (ev.phase == 'E')
            ++ends;
        else if (ev.phase == 'i')
            ++instants;
    }
    EXPECT_EQ(begins, 4u * 50u);
    EXPECT_EQ(begins, ends);
    EXPECT_EQ(instants, 4u * 50u);
}

TEST(Tracer, SpanLatchesEnabledStateForBalance)
{
    TracingScope scope;
    {
        CSR_TRACE_SPAN("test", "latched");
        // Disabling mid-span must not orphan the 'B' event.
        telemetry::setTracingEnabled(false);
    }
    std::size_t begins = 0, ends = 0;
    for (const telemetry::TraceEvent &ev :
         telemetry::Tracer::instance().snapshot()) {
        if (ev.phase == 'B')
            ++begins;
        if (ev.phase == 'E')
            ++ends;
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
}

TEST(Tracer, DisabledHotPathsMakeZeroRecordCalls)
{
    telemetry::setTracingEnabled(false);
    const std::uint64_t before =
        telemetry::Tracer::instance().recordCalls();

    // Exercise the instrumented hot paths: a full DCL trace-study run
    // (reservations, ETD, policy counters) with tracing disabled.
    auto workload =
        makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    TraceSimConfig config;
    const CacheGeometry l2(config.l2Bytes, config.l2Assoc,
                           config.blockBytes);
    const UniformCost cost;
    TraceSimulator sim(config, makePolicy(PolicyKind::Dcl, l2), cost);
    const TraceSimResult res = sim.run(trace.records, trace.sampledProc);
    EXPECT_GT(res.sampledRefs, 0u);
    EXPECT_GT(res.l2Misses, 0u);

    EXPECT_EQ(telemetry::Tracer::instance().recordCalls(), before);
}

TEST(Tracer, ClearRestartsTheEpoch)
{
    TracingScope scope;
    CSR_TRACE_INSTANT("test", "before_clear");
    EXPECT_GT(telemetry::Tracer::instance().eventCount(), 0u);
    telemetry::Tracer::instance().clear();
    EXPECT_EQ(telemetry::Tracer::instance().eventCount(), 0u);
}

/** Past its cap a thread's ring overwrites its oldest events, keeps
 *  the newest window in order, and counts what it dropped. */
TEST(Tracer, FullRingKeepsTheNewestEventsAndCountsTheDropped)
{
    TracingScope scope;
    telemetry::Tracer &tracer = telemetry::Tracer::instance();
    constexpr std::size_t kCap = telemetry::Tracer::kMaxEventsPerThread;
    constexpr std::size_t kOver = 1000;
    for (std::size_t i = 0; i < kCap + kOver; ++i)
        CSR_TRACE_INSTANT_V("test", "fill", static_cast<double>(i));

    const std::vector<telemetry::TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), kCap);
    EXPECT_EQ(events.front().value, static_cast<double>(kOver));
    for (std::size_t i = 1; i < events.size(); ++i)
        ASSERT_EQ(events[i].value, events[i - 1].value + 1.0) << i;

    MetricRegistry registry;
    tracer.exportMetrics(registry);
    EXPECT_EQ(registry.counter("trace.events"), kCap);
    EXPECT_EQ(registry.counter("trace.dropped_events"), kOver);
    tracer.clear();
    tracer.exportMetrics(registry);
    EXPECT_EQ(registry.counter("trace.dropped_events"), 0u);
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

TEST(MetricRegistry, CountersStatsTimersHistograms)
{
    MetricRegistry registry;
    registry.incCounter("a.count", 2);
    registry.incCounter("a.count", 3);
    registry.setCounter("a.fixed", 7);
    registry.stat("a.stat").add(1.0);
    registry.stat("a.stat").add(3.0);
    registry.recordTimerSec("a.timer", 0.25);
    Histogram hist;
    hist.add(4.0);
    registry.mergeHistogram("a.hist", hist);

    EXPECT_EQ(registry.counter("a.count"), 5u);
    EXPECT_EQ(registry.counter("a.fixed"), 7u);
    EXPECT_EQ(registry.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(registry.statOf("a.stat").mean(), 2.0);
    EXPECT_EQ(registry.histogramOf("a.hist")->totalCount(), 1u);
    EXPECT_EQ(registry.histogramOf("absent"), nullptr);
    EXPECT_FALSE(registry.empty());
}

TEST(MetricRegistry, WritesValidJsonSchema)
{
    MetricRegistry registry;
    registry.incCounter("counter.one", 11);
    registry.stat("stat.one").add(2.5);
    registry.recordTimerSec("timer.one", 1.5);
    Histogram hist;
    hist.add(3.0);
    hist.add(40.0);
    registry.mergeHistogram("hist.one", hist);

    std::ostringstream os;
    registry.writeJson(os);
    const std::string json = os.str();

    JsonValidator validator(json);
    EXPECT_TRUE(validator.valid()) << json;
    for (const char *section :
         {"\"counters\"", "\"stats\"", "\"timersSec\"", "\"histograms\""})
        EXPECT_NE(json.find(section), std::string::npos) << section;
    EXPECT_NE(json.find("\"counter.one\": 11"), std::string::npos);
    // A histogram is its sample count and percentiles, not buckets.
    EXPECT_NE(json.find("\"hist.one\": {\"count\": 2, \"p50\": 3, "
                        "\"p90\": 40, \"p99\": 40}"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"counts\""), std::string::npos);
}

TEST(MetricRegistry, FailedWriteIsConfigError)
{
    MetricRegistry registry;
    registry.incCounter("x", 1);
    // A full disk fails the final flush: an error, not a truncated file.
    EXPECT_THROW(registry.writeJson("/dev/full"), ConfigError);
    EXPECT_THROW(registry.writeJson("/nonexistent-dir/m.json"),
                 ConfigError);
}

TEST(MetricRegistry, MergeCombinesEveryKind)
{
    MetricRegistry a, b;
    a.incCounter("c", 1);
    b.incCounter("c", 2);
    a.stat("s").add(1.0);
    b.stat("s").add(3.0);
    Histogram ha, hb;
    ha.add(1.0);
    hb.add(9.0);
    a.mergeHistogram("h", ha);
    b.mergeHistogram("h", hb);

    a.merge(b);
    EXPECT_EQ(a.counter("c"), 3u);
    EXPECT_EQ(a.statOf("s").count(), 2u);
    EXPECT_DOUBLE_EQ(a.statOf("s").mean(), 2.0);
    EXPECT_EQ(a.histogramOf("h")->totalCount(), 2u);
    EXPECT_EQ(a.histogramOf("h")->percentile(1.0), 9.0);
}

TEST(MetricRegistry, LruTraceResultExportsEveryPolicyCounter)
{
    auto workload =
        makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    TraceSimConfig config;
    const CacheGeometry l2(config.l2Bytes, config.l2Assoc,
                           config.blockBytes);
    const UniformCost cost;
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), cost);
    const TraceSimResult res = sim.run(trace.records, trace.sampledProc);
    EXPECT_EQ(res.policyCounters, PolicyCounters{});

    MetricRegistry registry;
    res.exportMetrics(registry);
    std::ostringstream os;
    registry.writeJson(os);
    const std::string json = os.str();
    int exported = 0;
    forEachPolicyCounter(
        [&](const char *name, std::uint64_t) {
            const std::string row =
                std::string("\"trace.policy.") + name + "\": 0";
            EXPECT_NE(json.find(row), std::string::npos) << row;
            ++exported;
        },
        res.policyCounters);
    EXPECT_EQ(exported, 11);
}

TEST(MetricRegistry, JsonNamesUseTheShortEscapes)
{
    MetricRegistry registry;
    registry.incCounter("a\tb\rc\"d\x01");
    std::ostringstream os;
    registry.writeJson(os);
    EXPECT_NE(os.str().find("\"a\\tb\\rc\\\"d\\u0001\": 1"),
              std::string::npos)
        << os.str();
}

TEST(MetricRegistry, ResetEmptiesTheRegistry)
{
    MetricRegistry registry;
    registry.incCounter("c");
    registry.reset();
    EXPECT_TRUE(registry.empty());
}

// ---------------------------------------------------------------------------
// CliArgs
// ---------------------------------------------------------------------------

TEST(CliArgs, ParsesKeyValuePairsAndCommonFlags)
{
    const char *argv[] = {"prog",   "--json", "out.json", "--jobs",
                          "4",      "--seed", "99",       "--trace",
                          "t.json", "--metrics", "m.json"};
    CliArgs args(static_cast<int>(std::size(argv)),
                 const_cast<char **>(argv));
    EXPECT_EQ(args.jsonPath(), "out.json");
    EXPECT_EQ(args.jobs(), 4u);
    EXPECT_EQ(args.seed(0), 99u);
    EXPECT_EQ(args.tracePath(), "t.json");
    EXPECT_EQ(args.metricsPath(), "m.json");
    EXPECT_FALSE(args.helpRequested());
    EXPECT_EQ(args.get("absent", "dflt"), "dflt");
}

TEST(CliArgs, HelpFlagSetsHelpRequested)
{
    const char *argv[] = {"prog", "--help"};
    CliArgs args(2, const_cast<char **>(argv));
    EXPECT_TRUE(args.helpRequested());
}

TEST(CliArgs, RejectsMalformedFlags)
{
    const char *bare[] = {"prog", "value-without-flag"};
    EXPECT_THROW(CliArgs(2, const_cast<char **>(bare)), ConfigError);

    const char *dangling[] = {"prog", "--jobs"};
    EXPECT_THROW(CliArgs(2, const_cast<char **>(dangling)),
                 ConfigError);
}

TEST(CliArgs, ValidatesNumbersAndKnownFlags)
{
    const char *bad_jobs[] = {"prog", "--jobs", "many"};
    EXPECT_THROW(CliArgs(3, const_cast<char **>(bad_jobs)).jobs(),
                 ConfigError);

    const char *unknown[] = {"prog", "--bogus", "1"};
    CliArgs args(3, const_cast<char **>(unknown));
    EXPECT_THROW(args.requireKnown({"real"}), ConfigError);
}

TEST(CliArgs, ValuelessFlagsConsumeNoValue)
{
    const char *argv[] = {"prog", "--resume", "--jobs", "3",
                          "--validate"};
    CliArgs args(5, const_cast<char **>(argv), 1,
                 {"resume", "validate"});
    EXPECT_TRUE(args.has("resume"));
    EXPECT_TRUE(args.has("validate"));
    EXPECT_EQ(args.get("resume", ""), "1");
    EXPECT_EQ(args.jobs(), 3u);
}

TEST(CliArgs, StrictModeSplitsInlineValues)
{
    const char *argv[] = {"prog", "--jobs=6", "--grid=a=1,2;b=3"};
    CliArgs args(3, const_cast<char **>(argv));
    EXPECT_EQ(args.jobs(), 6u);
    // Only the first '=' splits: grid specs keep theirs.
    EXPECT_EQ(args.get("grid", ""), "a=1,2;b=3");
}

TEST(CliArgs, LenientModePreservesForeignTokensInOrder)
{
    const char *argv[] = {"prog",
                          "--benchmark_filter=BM_Lru",
                          "--json",
                          "out.json",
                          "bare",
                          "--benchmark_min_time=0.1",
                          "--declared",
                          "7"};
    const CliArgs args =
        CliArgs::lenient(static_cast<int>(std::size(argv)),
                         const_cast<char **>(argv),
                         /*valued=*/{"declared"});
    EXPECT_EQ(args.jsonPath(), "out.json"); // common flag consumed
    EXPECT_EQ(args.getUInt("declared", 0), 7u);
    const std::vector<std::string> expect = {
        "--benchmark_filter=BM_Lru", "bare",
        "--benchmark_min_time=0.1"};
    EXPECT_EQ(args.positionals(), expect);
}

TEST(CliArgs, LenientModeStillRejectsDanglingDeclaredFlag)
{
    const char *argv[] = {"prog", "--declared"};
    EXPECT_THROW(CliArgs::lenient(2, const_cast<char **>(argv),
                                  {"declared"}),
                 ConfigError);
}

TEST(CliArgs, LenientModeValuelessAndInlineSpellings)
{
    const char *argv[] = {"prog", "--spin", "--seed=5",
                          "--foreign"};
    const CliArgs args = CliArgs::lenient(
        4, const_cast<char **>(argv), /*valued=*/{},
        /*valueless=*/{"spin"});
    EXPECT_TRUE(args.has("spin"));
    EXPECT_EQ(args.seed(0), 5u);
    EXPECT_EQ(args.positionals(),
              std::vector<std::string>{"--foreign"});
}

// ---------------------------------------------------------------------------
// PolicyFactory satellite
// ---------------------------------------------------------------------------

TEST(PolicyFactoryApi, ParseReturnsNulloptOnUnknown)
{
    EXPECT_FALSE(parsePolicyKind("bogus").has_value());
    EXPECT_FALSE(parsePolicyKind("").has_value());
    EXPECT_EQ(parsePolicyKind("dcl"), PolicyKind::Dcl);
}

TEST(PolicyFactoryApi, ListedNamesAllParse)
{
    EXPECT_FALSE(listPolicyNames().empty());
    for (const std::string &name : listPolicyNames())
        EXPECT_TRUE(parsePolicyKind(name).has_value()) << name;
    EXPECT_NE(policyNamesJoined().find("dcl"), std::string::npos);
}

TEST(PolicyFactoryApi, RequireThrowsConfigErrorWithValidList)
{
    try {
        requirePolicyKind("bogus");
        FAIL() << "unknown policy accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bogus"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("valid"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// WorkloadConfig satellite
// ---------------------------------------------------------------------------

TEST(WorkloadConfig, FactoryHonoursOverrides)
{
    WorkloadConfig config;
    config.name = "lu";
    config.scale = WorkloadScale::Test;
    config.numProcs = 4;
    config.seed = 1234;
    config.targetRefsPerProc = 5000;

    auto workload = makeWorkload(config);
    EXPECT_EQ(workload->name(), "lu");
    EXPECT_EQ(workload->numProcs(), 4u);
}

TEST(WorkloadConfig, ScaleNamesRoundTripAndUnknownThrows)
{
    for (const WorkloadScale scale :
         {WorkloadScale::Test, WorkloadScale::Small, WorkloadScale::Full})
        EXPECT_EQ(parseWorkloadScale(workloadScaleName(scale)), scale);
    EXPECT_EQ(parseWorkloadScale("TEST"), WorkloadScale::Test);
    EXPECT_THROW(parseWorkloadScale("huge"), ConfigError);
}

TEST(WorkloadConfig, ZeroMeansBenchmarkDefault)
{
    WorkloadConfig config;
    config.name = "Barnes"; // parse is case-insensitive
    config.scale = WorkloadScale::Test;

    auto byConfig = makeWorkload(config);
    auto byEnum = makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    EXPECT_EQ(byConfig->numProcs(), byEnum->numProcs());
    EXPECT_EQ(byConfig->memoryBytes(), byEnum->memoryBytes());
}

TEST(WorkloadConfig, SeedChangesTheStream)
{
    WorkloadConfig config;
    config.name = "raytrace";
    config.scale = WorkloadScale::Test;
    auto a = makeWorkload(config);
    config.seed = 77;
    auto b = makeWorkload(config);

    MemAccess accessA{}, accessB{};
    auto streamA = a->procStream(0);
    auto streamB = b->procStream(0);
    bool differs = false;
    for (int i = 0; i < 200 && !differs; ++i) {
        if (!streamA->next(accessA) || !streamB->next(accessB))
            break;
        differs = accessA.addr != accessB.addr;
    }
    EXPECT_TRUE(differs);
}
