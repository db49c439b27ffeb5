#include "Common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "serve/LoadHarness.h"

namespace perfbench
{

using csr::Addr;
using csr::CacheGeometry;
using csr::CacheModel;
using csr::Cost;
using csr::kInvalidWay;
using csr::replay::ReplayBlock;
using csr::replay::ReplayTotals;
using csr::replay::TraceOp;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// -- HostProbe ------------------------------------------------------------

namespace
{

// The lookup kernel: 16 Ki sets x 8 ways, 64 Ki keys, 16 Ki lookups.
constexpr std::size_t kLookupSets = 1u << 14;
constexpr std::size_t kLookupWays = 8;
constexpr std::size_t kLookupKeys = 1u << 16;
constexpr std::uint32_t kLookupSteps = 1u << 14;
/** Steps of the hash kernel, each advancing its four chains. */
constexpr std::uint32_t kHashSteps = 1u << 16;

/** splitmix64's finaliser; the probe's own, so that no change to the
 *  program's hashing can change the probe. */
inline std::uint64_t
probeMix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
HostProbe::Sample::add(const Sample &o)
{
    runs += o.runs;
    lookupWallNs += o.lookupWallNs;
    hashWallNs += o.hashWallNs;
    lookupCpuNs += o.lookupCpuNs;
    hashCpuNs += o.hashCpuNs;
}

namespace
{

/** Geometric mean of the reference-to-measured ratios of the kernels
 *  that ran (a lookup time of 0: only the hash kernel ran). */
double
scaleOf(double runs, double lookup_ns, double hash_ns)
{
    if (hash_ns <= 0)
        return 1.0;
    const double hash = HostProbe::kReferenceHashNs * runs / hash_ns;
    if (lookup_ns <= 0)
        return hash;
    return std::sqrt(HostProbe::kReferenceLookupNs * runs / lookup_ns *
                     hash);
}

} // namespace

double
HostProbe::Sample::wallScale() const
{
    return scaleOf(runs, lookupWallNs, hashWallNs);
}

double
HostProbe::Sample::cpuScale() const
{
    return scaleOf(runs, lookupCpuNs, hashCpuNs);
}

HostProbe::HostProbe(bool lookup)
{
    if (lookup) {
        tags_.assign(kLookupSets * kLookupWays, ~0ULL);
        stamps_.assign(kLookupSets * kLookupWays, 0);
        keys_.resize(kLookupKeys);
        // Key k has weight roughly 1/k (a fixed seed, whatever the
        // run's seed).
        std::uint64_t state = 0x5eed;
        for (std::uint64_t &key : keys_) {
            state = probeMix(state + 1);
            const double u = static_cast<double>(state >> 11) * 0x1p-53;
            key = static_cast<std::uint64_t>(std::exp2(20.0 * u * u));
        }
    }
    run(); // fault the tables in
}

HostProbe::Sample
HostProbe::run()
{
    Sample out;
    out.runs = 1;

    std::uint64_t t0 = nowNs();
    double c0 = threadCpuSec();
    std::uint64_t hits = 0;
    for (std::uint32_t s = 0; s < kLookupSteps && !keys_.empty(); ++s) {
        const std::uint64_t h = probeMix(keys_[nextKey_]);
        nextKey_ = (nextKey_ + 1) % kLookupKeys;
        const std::size_t base = (h % kLookupSets) * kLookupWays;
        const std::uint64_t tag = h / kLookupSets;
        std::size_t victim = base;
        bool hit = false;
        for (std::size_t w = base; w < base + kLookupWays; ++w) {
            if (tags_[w] == tag) {
                stamps_[w] = ++clock_;
                hit = true;
                break;
            }
            if (stamps_[w] < stamps_[victim])
                victim = w;
        }
        if (!hit) {
            tags_[victim] = tag;
            stamps_[victim] = ++clock_;
        }
        hits += hit;
    }
    double c1 = threadCpuSec();
    std::uint64_t t1 = nowNs();
    if (!keys_.empty()) {
        out.lookupWallNs = static_cast<double>(t1 - t0);
        out.lookupCpuNs = (c1 - c0) * 1e9;
    }

    const std::uint64_t h = sink_ + hits;
    t0 = nowNs();
    c0 = threadCpuSec();
    std::uint64_t a = h, b = h + 1, c = h + 2, d = h + 3;
    for (std::uint32_t s = 0; s < kHashSteps; ++s) {
        a = probeMix(a + s);
        b = probeMix(b + s);
        c = probeMix(c + s);
        d = probeMix(d + s);
    }
    sink_ = a ^ b ^ c ^ d;
    c1 = threadCpuSec();
    t1 = nowNs();
    out.hashWallNs = static_cast<double>(t1 - t0);
    out.hashCpuNs = (c1 - c0) * 1e9;
    return out;
}

double
HostProbe::scaledSeconds(const std::function<void()> &fn)
{
    Sample around = run();
    const std::uint64_t t0 = nowNs();
    fn();
    const std::uint64_t t1 = nowNs();
    around.add(run());
    return secondsBetween(t0, t1) * around.wallScale();
}

// -- Windows --------------------------------------------------------------

Windows::Windows(HostProbe &probe, std::function<double()> cpu_clock)
    : probe_(probe), cpuClock_(std::move(cpu_clock)),
      sliceStartNs_(nowNs()), cpu_(cpuClock_())
{
}

void
Windows::probe(std::uint64_t ops_done)
{
    const std::uint64_t t0 = nowNs();
    const double c0 = cpuClock_();
    workNs_ += t0 - sliceStartNs_;
    probed_.add(probe_.run());
    const double c1 = cpuClock_();
    probeCpu_ += c1 - c0;
    sliceStartNs_ = nowNs();
    if (++slices_ % kSlicesPerWindow != 0)
        return;

    const double ops = static_cast<double>(ops_done - ops_);
    if (ops > 0 && workNs_ > 0) {
        const double raw_rate = ops / (static_cast<double>(workNs_) * 1e-9);
        const double wall = probed_.wallScale();
        const double cpu = (c1 - cpu_ - probeCpu_) / ops * 1e6;
        closed_.push_back({raw_rate / wall, cpu * probed_.cpuScale(),
                           latency_.percentile(0.50) * wall,
                           latency_.percentile(0.99) * wall, raw_rate, wall,
                           latency_.count()});
    }
    workNs_ = 0;
    ops_ = ops_done;
    cpu_ = c1;
    probeCpu_ = 0.0;
    probed_ = {};
    latency_ = LogHistogram();
}

Windows::Summary
Windows::summary() const
{
    Summary s;
    std::vector<double> rates, cpu, p50, p99, raw, wall;
    for (const Window &w : closed_) {
        rates.push_back(w.opsPerSec);
        cpu.push_back(w.cpuUsPerOp);
        p50.push_back(w.p50Ns);
        p99.push_back(w.p99Ns);
        raw.push_back(w.rawOpsPerSec);
        wall.push_back(w.wallScale);
        s.samples += w.samples;
    }
    s.opsPerSec = median(rates);
    s.cpuUsPerOp = median(cpu);
    s.p50Ns = median(p50);
    s.p99Ns = median(p99);
    s.rawOpsPerSec = median(raw);
    s.wallScale = median(wall);
    s.windows = closed_.size();
    return s;
}

// -- LogHistogram ---------------------------------------------------------

LogHistogram::LogHistogram() : counts_(kSub + (64 - kSubBits) * kSub, 0)
{
}

std::size_t
LogHistogram::indexOf(std::uint64_t ns)
{
    if (ns < kSub)
        return static_cast<std::size_t>(ns);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(ns));
    const unsigned shift = msb - kSubBits;
    return static_cast<std::size_t>(kSub + shift * kSub +
                                    ((ns >> shift) - kSub));
}

double
LogHistogram::lowerOf(std::size_t index)
{
    if (index < kSub)
        return static_cast<double>(index);
    const std::size_t j = index - kSub;
    return std::ldexp(static_cast<double>(kSub + j % kSub),
                      static_cast<int>(j / kSub));
}

double
LogHistogram::widthOf(std::size_t index)
{
    if (index < kSub)
        return 1.0;
    return std::ldexp(1.0, static_cast<int>((index - kSub) / kSub));
}

void
LogHistogram::add(std::uint64_t ns)
{
    ++counts_[indexOf(ns)];
    ++total_;
}

double
LogHistogram::percentile(double q) const
{
    if (total_ == 0)
        return 0.0;
    const double target =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(total_);
    double below = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const double c = static_cast<double>(counts_[i]);
        if (below + c >= target) {
            const double frac = std::clamp((target - below) / c, 0.0, 1.0);
            return lowerOf(i) + frac * widthOf(i);
        }
        below += c;
    }
    return 0.0; // unreachable: the last non-empty bucket holds rank total_
}

std::string
histogramSelfCheck()
{
    LogHistogram h;
    for (int i = 0; i < 980; ++i)
        h.add(1'000);
    for (int i = 0; i < 20; ++i)
        h.add(1'000'000);
    const double p50 = h.percentile(0.50);
    const double p99 = h.percentile(0.99);
    if (std::fabs(p99 / 1.0e6 - 1.0) > 0.02 ||
        std::fabs(p50 / 1.0e3 - 1.0) > 0.02) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "latency histogram self-check: p50 %.1f ns (want "
                      "~1000), p99 %.1f ns (want ~1000000)",
                      p50, p99);
        return buf;
    }
    return "";
}

// -- spans ----------------------------------------------------------------

SpanLog::SpanLog() : epochNs_(nowNs())
{
    // The first 64 Ki spans of each thread (a few MB of JSON) are
    // enough to open a run in Perfetto; the rest are counted as
    // dropped.
    for (unsigned t = 0; t < kSpanTracks; ++t)
        buffers_.emplace_back(1u << 16);
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const auto us = [this](std::uint64_t ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f",
                      (static_cast<double>(ns) -
                       static_cast<double>(epochNs_)) /
                          1000.0);
        return std::string(buf);
    };
    std::uint64_t dropped = 0;
    bool first = true;
    os << "{\"traceEvents\":[\n";
    for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
        dropped += buffers_[tid].dropped();
        for (const Span &s : buffers_[tid].spans()) {
            const std::string head =
                std::string(first ? "" : ",\n") + "{\"name\":\"" +
                s.name + "\",\"cat\":\"" + s.cat + "\",\"pid\":0,\"tid\":" +
                std::to_string(tid);
            first = false;
            if (s.async) {
                os << head << ",\"ph\":\"b\",\"id\":" << s.req
                   << ",\"ts\":" << us(s.startNs) << "},\n"
                   << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
                   << "\",\"pid\":0,\"tid\":" << tid
                   << ",\"ph\":\"e\",\"id\":" << s.req
                   << ",\"ts\":" << us(s.endNs) << "}";
            } else {
                char dur[32];
                std::snprintf(dur, sizeof(dur), "%.3f",
                              static_cast<double>(s.endNs - s.startNs) /
                                  1000.0);
                os << head << ",\"ph\":\"X\",\"ts\":" << us(s.startNs)
                   << ",\"dur\":" << dur << ",\"args\":{\"req\":" << s.req
                   << "}}";
            }
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"droppedSpans\":"
       << dropped << "}}\n";
    return static_cast<bool>(os);
}

// -- process probes -------------------------------------------------------

namespace
{

double
clockSec(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

Usage
usageOf(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    Usage u;
    u.sysSec = static_cast<double>(ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.volCtxSwitches = static_cast<double>(ru.ru_nvcsw);
    return u;
}

} // namespace

double processCpuSec() { return clockSec(CLOCK_PROCESS_CPUTIME_ID); }
double threadCpuSec() { return clockSec(CLOCK_THREAD_CPUTIME_ID); }
Usage usageOfProcess() { return usageOf(RUSAGE_SELF); }
Usage usageOfThread() { return usageOf(RUSAGE_THREAD); }

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

std::uint64_t
clockPairNs()
{
    std::vector<double> samples;
    for (int i = 0; i < 201; ++i) {
        const std::uint64_t a = nowNs();
        const std::uint64_t b = nowNs();
        samples.push_back(static_cast<double>(b - a));
    }
    return static_cast<std::uint64_t>(median(samples));
}

// -- TimedBackend ---------------------------------------------------------

csr::serve::BackendResult
TimedBackend::fetch(Addr key, std::uint64_t salt)
{
    const std::uint64_t t0 = nowNs();
    const csr::serve::BackendResult r = inner_.fetch(key, salt);
    const std::uint64_t t1 = nowNs();
    fetchHostNs += t1 - t0;
    fetchHostHist.add(t1 - t0);
    if (spans)
        spans->record("backend", "backend.fetch", t0, t1, req);
    return r;
}

csr::serve::BackendResult
TimedBackend::store(Addr key, std::uint64_t value, std::uint64_t salt)
{
    const std::uint64_t t0 = nowNs();
    const csr::serve::BackendResult r = inner_.store(key, value, salt);
    const std::uint64_t t1 = nowNs();
    storeHostNs += t1 - t0;
    if (spans)
        spans->record("backend", "backend.store", t0, t1, req);
    return r;
}

// -- timed cache loop -----------------------------------------------------

void
replayBlockTimed(CacheModel &model, const ReplayBlock &block,
                 unsigned job, unsigned jobs,
                 std::uint64_t default_cost_ns, ReplayTotals &t,
                 CacheTiming &timing, SpanBuffer *spans,
                 std::uint64_t req)
{
    static const std::uint64_t kClock = clockPairNs();
    const CacheGeometry &geom = model.geometry();
    const std::uint64_t block_bytes = geom.blockBytes();
    std::uint64_t fill_ns = 0;
    std::uint64_t fills = 0;
    const auto fill = [&](std::uint32_t set, Addr tag,
                          std::uint64_t cost_ns) {
        const std::uint64_t f0 = nowNs();
        model.fillVictimOrFree(set, tag, static_cast<Cost>(cost_ns), 0,
                               [&t](int, Addr, std::uint32_t) {
                                   ++t.evictions;
                               });
        const std::uint64_t f1 = nowNs();
        fill_ns += f1 - f0 > kClock ? f1 - f0 - kClock : 0;
        ++fills;
    };

    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < block.size(); ++i) {
        const Addr addr = block.key[i] * block_bytes;
        const std::uint32_t set = geom.setIndex(addr);
        if (set % jobs != job)
            continue;
        const Addr tag = geom.tag(addr);
        const std::uint64_t cost_ns =
            block.costHint[i] ? block.costHint[i] : default_cost_ns;
        switch (static_cast<TraceOp>(block.op[i])) {
          case TraceOp::Get:
            ++t.gets;
            if (model.access(set, tag) != kInvalidWay) {
                ++t.hits;
            } else {
                ++t.misses;
                t.missCostNs += cost_ns;
                fill(set, tag, cost_ns);
            }
            break;
          case TraceOp::Set: {
            ++t.sets;
            t.storeCostNs += cost_ns;
            const int way = model.access(set, tag);
            if (way != kInvalidWay) {
                ++t.setHits;
                model.updateCost(set, way, static_cast<Cost>(cost_ns));
            } else {
                fill(set, tag, cost_ns);
            }
            break;
          }
          case TraceOp::Del:
            ++t.dels;
            model.invalidateTag(set, tag);
            break;
        }
        ++t.ops;
    }
    const std::uint64_t t1 = nowNs();
    const std::uint64_t overhead = fills * kClock;
    timing.cacheNs += t1 - t0 > overhead ? t1 - t0 - overhead : 0;
    timing.fillNs += fill_ns;
    if (spans)
        spans->record("cache", "cache.block", t0, t1, req);
}

// -- serve workloads ------------------------------------------------------

csr::serve::ServeConfig
serveConfig(std::uint64_t seed)
{
    csr::serve::ServeConfig config;
    config.policy = csr::PolicyKind::Acl;
    config.policyParams.seed = seed;
    config.validate();
    return config;
}

csr::serve::SyntheticBackendConfig
backendConfig(std::uint64_t seed)
{
    csr::serve::SyntheticBackendConfig config;
    config.seed = seed;
    config.validate();
    return config;
}

std::vector<csr::serve::Op>
generateOps(const csr::serve::WorkloadMix &mix, std::uint64_t seed,
            std::size_t n)
{
    csr::serve::KeyGenerator gen(mix, seed);
    std::vector<csr::serve::Op> ops(n);
    for (csr::serve::Op &op : ops)
        op = gen.next();
    return ops;
}

bool
sameTotals(const csr::serve::ServeTotals &a,
           const csr::serve::ServeTotals &b)
{
    return a.gets == b.gets && a.hits == b.hits && a.misses == b.misses &&
           a.stores == b.stores && a.storeHits == b.storeHits &&
           a.evictions == b.evictions && a.trackedKeys == b.trackedKeys &&
           a.missCostNs == b.missCostNs && a.storeCostNs == b.storeCostNs &&
           a.backendFetches == b.backendFetches;
}

InProcessPass
runInProcess(const std::vector<csr::serve::Op> &ops, std::uint64_t seed,
             std::uint64_t total, SpanBuffer *spans)
{
    csr::serve::SyntheticBackend backend(backendConfig(seed));
    TimedBackend timed(backend);
    timed.spans = spans;
    csr::serve::CacheService service(serveConfig(seed), timed);

    InProcessPass pass;
    const std::uint64_t n = std::max<std::uint64_t>(total, ops.size());
    const auto snapshot = [&](std::uint64_t done) {
        if (done == ops.size())
            pass.atStream = service.totals();
        if (done == total)
            pass.atTotal = service.totals();
    };
    for (std::uint64_t i = 0; i < n; ++i) {
        snapshot(i);
        const csr::serve::Op &op = ops[i % ops.size()];
        timed.req = i;
        const std::uint64_t t0 = nowNs();
        if (op.write)
            service.put(op.key, csr::serve::harnessPayload(seed, op.key));
        else
            service.get(op.key);
        const std::uint64_t t1 = nowNs();
        (op.write ? pass.putNs : pass.getNs).add(t1 - t0);
        pass.callNs += t1 - t0;
        if (spans)
            spans->record("serve", op.write ? "serve.put" : "serve.get",
                          t0, t1, i);
    }
    snapshot(n);
    pass.ops = n;
    pass.backendNs = timed.fetchHostNs + timed.storeHostNs;
    pass.fetchNs = timed.fetchHostHist;
    return pass;
}

Signature
serveSignature(const csr::serve::WorkloadMix &mix, std::uint64_t seed)
{
    const InProcessPass pass =
        runInProcess(generateOps(mix, seed, 1u << 16), seed, 0, nullptr);
    return {pass.atStream.hits, pass.atStream.gets,
            pass.atStream.missCostNs};
}

void
reportTimings(Report &report, const Windows::Summary &summary)
{
    report.set("ops_per_s", summary.opsPerSec);
    report.set("latency_p50_us", summary.p50Ns / 1e3);
    report.set("latency_p99_us", summary.p99Ns / 1e3);
    report.set("cpu_us_per_op", summary.cpuUsPerOp);
    report.notes.push_back("latency samples: " +
                           std::to_string(summary.samples) + " in " +
                           std::to_string(summary.windows) + " windows");
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "host speed against the reference host (median): %.4f; "
                  "unscaled ops_per_s: %.1f",
                  summary.wallScale, summary.rawOpsPerSec);
    report.notes.push_back(buf);
}

void
checkDeterminism(Report &report, std::uint64_t seed,
                 const std::function<Signature(std::uint64_t)> &sig)
{
    const Signature first = sig(seed);
    report.check(sig(seed) == first,
                 "deterministic outputs differ between two runs at seed " +
                     std::to_string(seed));
    report.check(!(sig(seed + 1) == first),
                 "deterministic outputs are identical at seeds " +
                     std::to_string(seed) + " and " +
                     std::to_string(seed + 1));
}

void
reportCacheLayer(const std::vector<csr::serve::Op> &ops,
                 const csr::serve::SyntheticBackend &backend,
                 std::uint64_t seed, SpanBuffer *spans, Report &report)
{
    const csr::serve::ServeConfig service = serveConfig(seed);
    const CacheGeometry geom(service.shards * service.shardBytes,
                             service.assoc, service.blockBytes);
    csr::PolicyParams params;
    params.seed = seed;
    CacheModel model(geom, csr::makePolicy(csr::PolicyKind::Acl, geom,
                                           params));

    ReplayTotals totals;
    CacheTiming timing;
    ReplayBlock block;
    const std::size_t block_records = csr::replay::format::kDefaultBlockSize;
    for (std::size_t begin = 0; begin < ops.size(); begin += block_records) {
        block.clear();
        const std::size_t end = std::min(ops.size(), begin + block_records);
        for (std::size_t i = begin; i < end; ++i) {
            block.key.push_back(ops[i].key);
            block.op.push_back(static_cast<std::uint8_t>(
                ops[i].write ? TraceOp::Set : TraceOp::Get));
            block.costHint.push_back(static_cast<std::uint32_t>(
                std::llround(backend.baseLatencyNs(ops[i].key))));
        }
        replayBlockTimed(model, block, 0, 1, 1, totals, timing, spans,
                         begin / block_records);
    }
    const double n = static_cast<double>(totals.ops);
    report.set("cache.ns_per_op", static_cast<double>(timing.cacheNs) / n);
    report.set("cache.fill_share",
               timing.cacheNs ? static_cast<double>(timing.fillNs) /
                                    static_cast<double>(timing.cacheNs)
                              : 0.0);
    report.set("cache.evictions_per_op",
               static_cast<double>(totals.evictions) / n);
}

// -- report ---------------------------------------------------------------

const std::vector<MetricSpec> &
metricSpecs()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", false},
        {"ops_per_s", "1/s", false},
        {"latency_p50_us", "us", false},
        {"latency_p99_us", "us", false},
        {"cpu_us_per_op", "us", false},
        {"rss_mb", "MiB", false},
        {"hit_ratio", "ratio", false},
        {"miss_cost_ns_per_get", "ns", false},

        {"net.sys_us_per_op", "us", true},
        {"net.vol_ctx_switches_per_op", "count/op", true},
        {"net.parse_ns_per_cmd", "ns", true},
        {"net.bytes_in_per_op", "B/op", true},
        {"net.bytes_out_per_op", "B/op", true},
        {"net.client_cpu_share", "ratio", true},
        {"net.errors", "count", true},
        {"serve.get_ns_p50", "ns", true},
        {"serve.get_ns_p99", "ns", true},
        {"serve.put_ns_p50", "ns", true},
        {"serve.put_ns_p99", "ns", true},
        {"serve.self_ns_per_op", "ns", true},
        {"serve.misses", "count", true},
        {"serve.evictions", "count", true},
        {"serve.backend_fetches", "count", true},
        {"serve.coalesced_misses", "count", true},
        {"serve.seqlock_retries", "count", true},
        {"serve.locked_fallbacks", "count", true},
        {"serve.tracked_keys", "count", true},
        {"backend.fetch_ns_p50", "ns", true},
        {"backend.calls_per_op", "count/op", true},
        {"backend.modelled_ns_per_fetch", "ns", true},
        {"cache.ns_per_op", "ns", true},
        {"cache.fill_share", "ratio", true},
        {"cache.evictions_per_op", "count/op", true},
        {"replay.decode_ns_per_rec", "ns", true},
        {"replay.decode_share", "ratio", true},
        {"replay.bytes_per_rec", "B", true},
        {"setup.generate_s", "s", true},
        {"setup.record_s", "s", true},
        {"setup.server_start_s", "s", true},
        {"trace.overhead_frac", "ratio", true},
    };
    return specs;
}

void
Report::set(const std::string &name, double value)
{
    for (const MetricSpec &spec : metricSpecs()) {
        if (name == spec.name) {
            values[name] = value;
            return;
        }
    }
    throw std::logic_error("perfbench: unknown metric '" + name + "'");
}

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    ++failed;
    violations.push_back(what);
}

} // namespace perfbench
