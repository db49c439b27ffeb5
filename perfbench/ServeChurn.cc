/**
 * @file
 * serve_churn: CacheService::get/put called directly, with no net
 * layer, by one closed-loop caller.  Zipf 0.9 over 8x the service's
 * 32 Ki lines with 30% SET and the default bimodal SyntheticBackend
 * (modelled, not spun): the serve layer under misses, write-allocates,
 * victim scans, per-key EWMA growth and backend calls, where wire_hot
 * exercises its hit path.
 *
 * One caller rather than two shard-affine threads: with two, the
 * timings spread 12-21% from run to run on a shared 4-vCPU machine,
 * against 5-7% with one.
 */

#include <memory>

#include "Common.h"
#include "serve/LoadHarness.h"

namespace perfbench
{

namespace
{

using csr::serve::Op;

constexpr std::size_t kStreamOps = 1u << 20;
/** Ops between two looks at the clock's window and deadline. */
constexpr std::uint64_t kCheckEvery = 64;

// Span buffers (Chrome "tid"s) of the traced run.
constexpr unsigned kTidServe = 0;
constexpr unsigned kTidCache = 1;

csr::serve::WorkloadMix
churnMix()
{
    csr::serve::WorkloadMix mix;
    mix.dist = csr::serve::KeyDist::Zipfian;
    mix.numKeys = 8 * serveConfig(0).totalLines();
    mix.zipfTheta = 0.9;
    mix.writeFraction = 0.3;
    return mix;
}

struct ChurnSetup
{
    std::vector<Op> ops;
    std::unique_ptr<csr::serve::SyntheticBackend> backend;
    std::unique_ptr<csr::serve::CacheService> service;
    double generateSec = 0.0;
    double startSec = 0.0;
};

std::unique_ptr<ChurnSetup>
setUp(std::uint64_t seed)
{
    auto s = std::make_unique<ChurnSetup>();
    const std::uint64_t t0 = nowNs();
    s->backend =
        std::make_unique<csr::serve::SyntheticBackend>(backendConfig(seed));
    s->service = std::make_unique<csr::serve::CacheService>(
        serveConfig(seed), *s->backend);
    const std::uint64_t t1 = nowNs();
    s->ops = generateOps(churnMix(), seed, kStreamOps);
    const std::uint64_t t2 = nowNs();
    s->startSec = secondsBetween(t0, t1);
    s->generateSec = secondsBetween(t1, t2);
    return s;
}

struct ChurnPhase
{
    /** Totals after the first pass over the stream (deterministic). */
    csr::serve::ServeTotals firstPass;
    std::uint64_t ops = 0;
    Windows::Summary summary;
    // Traced phase only.
    LogHistogram getNs;
    LogHistogram putNs;
    std::uint64_t callNs = 0;
};

/**
 * Call the service with the stream, wrapping, for @p seconds and at
 * least one pass.  Latency is call to return.  With @p spans the
 * phase is traced: a span per call, and @p timed (the service's
 * backend) tags its spans with the call's request id.
 */
ChurnPhase
runPhase(HostProbe &probe, csr::serve::CacheService &service,
         const std::vector<Op> &ops, std::uint64_t seed, double seconds,
         TimedBackend *timed, SpanBuffer *spans)
{
    ChurnPhase phase;
    Windows windows(probe, processCpuSec);
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::size_t i = 0;
    bool first = true;
    for (;;) {
        const Op &op = ops[i];
        if (timed)
            timed->req = phase.ops;
        const std::uint64_t t0 = nowNs();
        if (op.write)
            service.put(op.key, csr::serve::harnessPayload(seed, op.key));
        else
            service.get(op.key);
        const std::uint64_t t1 = nowNs();
        windows.latency().add(t1 - t0);
        if (spans) {
            spans->record("serve", op.write ? "serve.put" : "serve.get", t0,
                          t1, phase.ops);
            (op.write ? phase.putNs : phase.getNs).add(t1 - t0);
            phase.callNs += t1 - t0;
        }
        ++phase.ops;
        if (++i == ops.size()) {
            if (first)
                phase.firstPass = service.totals();
            i = 0;
            first = false;
        }
        if (phase.ops % kCheckEvery != 0)
            continue;
        if (windows.probeDue(t1))
            windows.probe(phase.ops);
        if (!first && t1 >= deadline)
            break;
    }
    phase.summary = windows.summary();
    return phase;
}

} // namespace

void
runServeChurn(const Options &options, Report &report, SpanLog &log)
{
    HostProbe probe;
    std::vector<double> setup_s;
    std::vector<double> generate_s;
    std::vector<double> start_s;
    std::unique_ptr<ChurnSetup> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        s.reset();
        setup_s.push_back(
            probe.scaledSeconds([&] { s = setUp(options.seed); }));
        generate_s.push_back(s->generateSec);
        start_s.push_back(s->startSec);
    }

    const ChurnPhase plain =
        runPhase(probe, *s->service, s->ops, options.seed,
                 options.trace ? options.seconds / 2 : options.seconds,
                 nullptr, nullptr);
    const double rss_mb = peakRssMb();
    report.attempted = plain.ops;
    checkDeterminism(report, options.seed, [](std::uint64_t seed) {
        return serveSignature(churnMix(), seed);
    });

    // Deterministic outputs: the first pass of the stream from empty
    // caches.
    const csr::serve::ServeTotals &det = plain.firstPass;
    if (!options.trace) {
        report.set("setup_s", median(setup_s));
        reportTimings(report, plain.summary);
        report.set("rss_mb", rss_mb);
        report.set("hit_ratio", det.hitRatio());
        report.set("miss_cost_ns_per_get",
                   det.missCostNs / static_cast<double>(det.gets));
        return;
    }

    // The traced phase starts from empty caches too, like the
    // untraced one it is compared with, and must repeat its counters.
    csr::serve::SyntheticBackend backend(backendConfig(options.seed));
    TimedBackend timed(backend);
    SpanBuffer &spans = log.thread(kTidServe);
    timed.spans = &spans;
    csr::serve::CacheService service(serveConfig(options.seed), timed);
    const ChurnPhase traced =
        runPhase(probe, service, s->ops, options.seed, options.seconds / 2,
                 &timed, &spans);
    report.attempted += traced.ops;
    report.check(sameTotals(traced.firstPass, det),
                 "the traced phase's first pass differs from the untraced "
                 "phase's");

    report.set("serve.get_ns_p50", traced.getNs.percentile(0.50));
    report.set("serve.get_ns_p99", traced.getNs.percentile(0.99));
    report.set("serve.put_ns_p50", traced.putNs.percentile(0.50));
    report.set("serve.put_ns_p99", traced.putNs.percentile(0.99));
    report.set("serve.self_ns_per_op",
               static_cast<double>(traced.callNs - timed.fetchHostNs -
                                   timed.storeHostNs) /
                   static_cast<double>(traced.ops));
    report.set("serve.misses", static_cast<double>(det.misses));
    report.set("serve.evictions", static_cast<double>(det.evictions));
    report.set("serve.backend_fetches",
               static_cast<double>(det.backendFetches));
    report.set("serve.coalesced_misses",
               static_cast<double>(det.coalescedMisses));
    report.set("serve.seqlock_retries",
               static_cast<double>(det.seqlockRetries));
    report.set("serve.locked_fallbacks",
               static_cast<double>(det.lockedFallbacks));
    report.set("serve.tracked_keys", static_cast<double>(det.trackedKeys));

    report.set("backend.fetch_ns_p50", timed.fetchHostHist.percentile(0.50));
    report.set("backend.calls_per_op",
               static_cast<double>(det.backendFetches) /
                   static_cast<double>(s->ops.size()));
    report.set("backend.modelled_ns_per_fetch",
               det.missCostNs / static_cast<double>(det.backendFetches));

    reportCacheLayer(s->ops, *s->backend, options.seed,
                     &log.thread(kTidCache), report);

    report.set("setup.generate_s", median(generate_s));
    report.set("setup.server_start_s", median(start_s));
    report.set("trace.overhead_frac",
               1.0 - traced.summary.opsPerSec / plain.summary.opsPerSec);
}

} // namespace perfbench
