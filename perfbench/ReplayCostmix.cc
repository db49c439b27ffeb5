/**
 * @file
 * replay_costmix: set-up records a seeded Zipf .csrt trace (2^20 keys,
 * 20% SET, 15% of keys carrying a 16x cost hint, the bench_replay
 * shape), which the timed phase replays again and again with
 * replayTrace: ACL, a 1 MiB 8-way cache, 1 job.  All the time goes to
 * csrt decode and the CacheModel + policy loop; none to serve or net.
 * Every replay starts from an empty cache.
 */

#include <unistd.h>

#include <array>
#include <cstdio>
#include <exception>
#include <thread>

#include "Common.h"
#include "cache/PolicyFactory.h"
#include "replay/TraceWriter.h"
#include "util/Random.h"

namespace perfbench
{

namespace
{

using csr::replay::ReplayConfig;
using csr::replay::ReplayRecord;
using csr::replay::ReplayTotals;
using csr::replay::TraceOp;

constexpr std::uint64_t kRecords = 1u << 19;
constexpr std::uint64_t kSignatureRecords = 1u << 16;
/** replayTrace jobs.  With 2, where every job decodes every block,
 *  throughput spread 7-24% from run to run on a shared 4-vCPU
 *  machine, against 3% with 1. */
constexpr unsigned kJobs = 1;

csr::serve::WorkloadMix
replayMix()
{
    csr::serve::WorkloadMix mix;
    mix.dist = csr::serve::KeyDist::Zipfian;
    mix.numKeys = 1u << 20;
    mix.zipfTheta = 0.99;
    mix.writeFraction = 0.2;
    return mix;
}

std::vector<ReplayRecord>
generateRecords(std::uint64_t seed, std::uint64_t n)
{
    const std::vector<csr::serve::Op> ops = generateOps(replayMix(), seed, n);
    std::vector<ReplayRecord> records(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ReplayRecord &rec = records[i];
        rec.tsNs = i * 1000;
        rec.key = ops[i].key;
        rec.op = ops[i].write ? TraceOp::Set : TraceOp::Get;
        rec.valueSize = 8;
        const bool slow = csr::hashMix64(rec.key ^ seed) % 100 < 15;
        rec.costHint = slow ? 32'000 : 2'000;
    }
    return records;
}

/** Write @p records to @p path, then read the file back once through
 *  the checksum so its pages are resident before any timing. */
void
recordTrace(const std::string &path, const std::vector<ReplayRecord> &records)
{
    csr::replay::TraceWriter writer(path);
    for (const ReplayRecord &rec : records)
        writer.append(rec);
    writer.finish();
    csr::replay::TraceReader(path).verifyChecksum();
}

ReplayConfig
replayConfig(const std::string &path, std::uint64_t seed)
{
    ReplayConfig config;
    config.path = path;
    config.cacheBytes = 1u << 20;
    config.assoc = 8;
    config.blockBytes = 64;
    config.policy = csr::PolicyKind::Acl;
    config.policyParams.seed = seed;
    config.jobs = kJobs;
    config.validate();
    return config;
}

void
addTotals(ReplayTotals &sum, const ReplayTotals &t)
{
    sum.ops += t.ops;
    sum.gets += t.gets;
    sum.sets += t.sets;
    sum.dels += t.dels;
    sum.hits += t.hits;
    sum.misses += t.misses;
    sum.setHits += t.setHits;
    sum.evictions += t.evictions;
    sum.missCostNs += t.missCostNs;
    sum.storeCostNs += t.storeCostNs;
}

/** Removes a generated file when the run ends, however it ends. */
class RemoveOnExit
{
  public:
    explicit RemoveOnExit(std::string path) : path_(std::move(path)) {}
    ~RemoveOnExit() { std::remove(path_.c_str()); }

    RemoveOnExit(const RemoveOnExit &) = delete;
    RemoveOnExit &operator=(const RemoveOnExit &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** What the traced replay loop measured, summed over its jobs. */
struct TracedReplay
{
    std::uint64_t ops = 0;
    std::uint64_t decodedRecords = 0;
    std::uint64_t decodeNs = 0;
    CacheTiming cache;
    std::uint64_t mismatches = 0;
    /** Median over the loop's windows. */
    double opsPerSec = 0.0;
};

/**
 * replayTrace's job loop, re-run by the benchmark with a span around
 * each TraceReader::readBlock and each block's cache loop, for
 * @p seconds of whole replays.  Each replay's merged totals must equal
 * @p ref, so the traced loop measures the same program.
 */
TracedReplay
tracedReplays(HostProbe &probe, const ReplayConfig &config,
              const ReplayTotals &ref, double seconds, SpanLog &log)
{
    const csr::CacheGeometry geom(config.cacheBytes, config.assoc,
                                  config.blockBytes);
    TracedReplay out;
    std::array<std::uint64_t, kJobs> decode_ns{};
    std::array<std::uint64_t, kJobs> decoded{};
    std::array<CacheTiming, kJobs> timing{};
    Windows windows(probe, processCpuSec);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
        std::array<ReplayTotals, kJobs> totals{};
        std::array<std::exception_ptr, kJobs> errors{};
        const auto job = [&](unsigned j) {
            SpanBuffer &spans = log.thread(j);
            csr::replay::TraceReader reader(config.path, config.readMode);
            csr::CacheModel model(
                geom, csr::makePolicy(config.policy, geom,
                                      config.policyParams));
            csr::replay::ReplayBlock block;
            for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
                const std::uint64_t d0 = nowNs();
                reader.readBlock(b, block);
                const std::uint64_t d1 = nowNs();
                spans.record("replay", "replay.decode", d0, d1, b);
                decode_ns[j] += d1 - d0;
                decoded[j] += block.size();
                replayBlockTimed(model, block, j, kJobs,
                                 config.defaultCostNs, totals[j],
                                 timing[j], &spans, b);
            }
        };
        {
            std::vector<std::thread> threads;
            for (unsigned j = 0; j < kJobs; ++j)
                threads.emplace_back([&, j] {
                    try {
                        job(j);
                    } catch (...) {
                        errors[j] = std::current_exception();
                    }
                });
            for (std::thread &thread : threads)
                thread.join();
        }
        for (const std::exception_ptr &error : errors)
            if (error)
                std::rethrow_exception(error);
        ReplayTotals merged;
        for (const ReplayTotals &t : totals)
            addTotals(merged, t);
        out.ops += merged.ops;
        if (!(merged == ref))
            ++out.mismatches;
        if (windows.probeDue(nowNs()))
            windows.probe(out.ops);
    } while (nowNs() < deadline);
    out.opsPerSec = windows.summary().opsPerSec;
    for (unsigned j = 0; j < kJobs; ++j) {
        out.decodeNs += decode_ns[j];
        out.decodedRecords += decoded[j];
        out.cache.cacheNs += timing[j].cacheNs;
        out.cache.fillNs += timing[j].fillNs;
    }
    return out;
}

} // namespace

void
runReplayCostmix(const Options &options, Report &report, SpanLog &log)
{
    const std::string base = options.workDir + "/replay_costmix-" +
                             std::to_string(options.seed) + "-" +
                             std::to_string(::getpid());
    const RemoveOnExit trace(base + ".csrt");
    const RemoveOnExit sig_trace(base + ".sig.csrt");

    HostProbe probe;
    std::vector<double> setup_s;
    std::vector<double> generate_s;
    std::vector<double> record_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        setup_s.push_back(probe.scaledSeconds([&] {
            const std::uint64_t t0 = nowNs();
            const std::vector<ReplayRecord> records =
                generateRecords(options.seed, kRecords);
            const std::uint64_t t1 = nowNs();
            recordTrace(trace.path(), records);
            const std::uint64_t t2 = nowNs();
            generate_s.push_back(secondsBetween(t0, t1));
            record_s.push_back(secondsBetween(t1, t2));
        }));
    }

    const ReplayConfig config = replayConfig(trace.path(), options.seed);
    // Warm-up replay, untimed; its totals are the reference every
    // timed replay must reproduce.
    const ReplayTotals ref = csr::replay::replayTrace(config).totals;

    std::uint64_t ops = 0;
    std::uint64_t mismatched = 0;
    Windows windows(probe, processCpuSec);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(
                      (options.trace ? options.seconds / 2 : options.seconds) *
                      1e9);
    std::uint64_t now = 0;
    do {
        const std::uint64_t start = nowNs();
        const csr::replay::ReplayResult result =
            csr::replay::replayTrace(config);
        now = nowNs();
        windows.latency().add(now - start);
        ops += result.totals.ops;
        if (!(result.totals == ref))
            mismatched += result.totals.ops;
        if (windows.probeDue(now))
            windows.probe(ops);
    } while (now < deadline);
    const double rss_mb = peakRssMb();
    const Windows::Summary plain = windows.summary();

    report.attempted = ops;
    report.failed += mismatched;
    report.check(mismatched == 0,
                 "a timed replay's totals differ from the warm-up replay's");
    checkDeterminism(report, options.seed, [&](std::uint64_t seed) {
        recordTrace(sig_trace.path(),
                    generateRecords(seed, kSignatureRecords));
        const ReplayTotals t =
            csr::replay::replayTrace(replayConfig(sig_trace.path(), seed))
                .totals;
        return Signature{t.hits, t.gets, static_cast<double>(t.missCostNs)};
    });

    if (!options.trace) {
        report.set("setup_s", median(setup_s));
        // The latency of this workload is that of one replay of the
        // whole trace.
        reportTimings(report, plain);
        report.set("rss_mb", rss_mb);
        report.set("hit_ratio", ref.hitRatio());
        report.set("miss_cost_ns_per_get",
                   static_cast<double>(ref.missCostNs) /
                       static_cast<double>(ref.gets));
        return;
    }

    const TracedReplay traced =
        tracedReplays(probe, config, ref, options.seconds / 2, log);
    report.attempted += traced.ops;
    report.failed += traced.mismatches * kRecords;
    report.check(traced.mismatches == 0,
                 "the traced replay loop's totals differ from replayTrace's");

    const double decode_ns = static_cast<double>(traced.decodeNs);
    const double cache_ns = static_cast<double>(traced.cache.cacheNs);
    report.set("replay.decode_ns_per_rec",
               decode_ns / static_cast<double>(traced.decodedRecords));
    report.set("replay.decode_share", decode_ns / (decode_ns + cache_ns));
    report.set("replay.bytes_per_rec",
               static_cast<double>(
                   csr::replay::TraceReader(trace.path()).fileBytes()) /
                   static_cast<double>(kRecords));
    report.set("cache.ns_per_op", cache_ns / static_cast<double>(traced.ops));
    report.set("cache.fill_share",
               static_cast<double>(traced.cache.fillNs) / cache_ns);
    report.set("cache.evictions_per_op",
               static_cast<double>(ref.evictions) /
                   static_cast<double>(ref.ops));
    report.set("setup.generate_s", median(generate_s));
    report.set("setup.record_s", median(record_s));
    report.set("trace.overhead_frac",
               1.0 - traced.opsPerSec / plain.opsPerSec);
}

} // namespace perfbench
