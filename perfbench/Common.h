/**
 * @file
 * Shared pieces of the repo benchmark: the run options, the report
 * that becomes the result line, an unclamped log-linear latency
 * histogram, the in-memory span log written out as Chrome trace-event
 * JSON, process/thread CPU and memory probes, the host-speed probe and
 * the windows whose timings it scales, a timing decorator over the
 * Backend interface, and the timed CacheModel loop every workload uses
 * for its cache-layer numbers.
 *
 * Everything here lives in the benchmark: spans are recorded around
 * calls into the program's public API, never inside it, so the
 * program's own CSR_TRACE_* tracing stays off.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cache/CacheModel.h"
#include "replay/Replayer.h"
#include "replay/TraceReader.h"
#include "serve/Backend.h"
#include "serve/CacheService.h"
#include "serve/KeyGenerator.h"
#include "serve/SyntheticBackend.h"

namespace perfbench
{

struct Report;

/** Set-ups per run; the median is reported as setup_s. */
inline constexpr int kSetupRepeats = 9;

/** Span tracks (Chrome "tid"s) of a traced run. */
inline constexpr unsigned kSpanTracks = 4;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace ("" = nowhere). */
    std::string traceFile;
    /** Scratch directory for generated inputs (the replay trace). */
    std::string workDir = ".";
};

/** Nanoseconds on the steady clock. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsBetween(std::uint64_t from_ns, std::uint64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Log-linear (HDR-style) histogram of nanosecond samples: exact below
 * 128 ns, then 128 linear sub-buckets per power of two (under 0.8%
 * relative width) up to 2^64 -- nothing is clamped.  Percentiles
 * interpolate linearly inside the bucket that holds the rank.
 */
class LogHistogram
{
  public:
    LogHistogram();

    void add(std::uint64_t ns);
    std::uint64_t count() const { return total_; }
    /** Value at quantile @p q in [0, 1]; 0 when empty. */
    double percentile(double q) const;

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr std::uint64_t kSub = 1u << kSubBits;

    static std::size_t indexOf(std::uint64_t ns);
    static double lowerOf(std::size_t index);
    static double widthOf(std::size_t index);

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** A 1 ms sample among 1 us ones must read ~1 ms at p99 and the
 *  1 us bulk ~1 us at p50.  @return "" or what went wrong. */
std::string histogramSelfCheck();

/**
 * Host-speed probe.  On a shared machine the host's speed drifts by
 * tens of percent over minutes as other tenants come and go, in every
 * timing alike, which would swamp the changes the benchmark is meant
 * to show.  The probe is a pair of fixed kernels of the benchmark's
 * own, which the timed phases run for about a millisecond between
 * short slices of work, on the thread that does or drives the work:
 *
 *  - lookup: an 8-way set-associative LRU cache of 16 Ki sets (2 MiB
 *    with its key stream, about L2's size) looked up with a skewed
 *    key stream -- the kind of work the program does;
 *  - hash: four independent hash chains, for the core's throughput.
 *
 * Their speed next to the work tells how fast the host was just then.
 * Timings are reported scaled to a reference host, on which the two
 * kernels take kReferenceLookupNs and kReferenceHashNs (wall and CPU
 * alike): a measured time is multiplied by the geometric mean of the
 * kernels' reference-to-measured time ratios.  On a slow moment of
 * the host the work and the kernels slow down together, and the scaled
 * time stays put; a change to the program moves the work and not the
 * kernels, and the scaled time moves with it.  The kernels use no
 * program code, so no change to the program changes them.
 */
class HostProbe
{
  public:
    /** One run of each kernel on the reference host, in ns: about the
     *  speed of the 4-vCPU Xeon VM the bounds were set on. */
    static constexpr double kReferenceLookupNs = 350'000.0;
    static constexpr double kReferenceHashNs = 350'000.0;

    struct Sample
    {
        double runs = 0.0;
        double lookupWallNs = 0.0;
        double hashWallNs = 0.0;
        /** The calling thread's CPU time. */
        double lookupCpuNs = 0.0;
        double hashCpuNs = 0.0;

        void add(const Sample &o);
        /** Reference-host time per unit of time here (1 on the
         *  reference host, below 1 on a slower one). */
        double wallScale() const;
        double cpuScale() const;
    };

    /** Without @p lookup only the hash kernel runs and sets the
     *  scale: for work on another core than the probe's, whose cache
     *  contention the probe's core does not share. */
    explicit HostProbe(bool lookup = true);

    /** Run the kernels once each. */
    Sample run();

    /**
     * @p fn's wall time in seconds, scaled to the reference host by
     * probes run just before and just after it.
     */
    double scaledSeconds(const std::function<void()> &fn);

  private:
    // The lookup kernel's cache (tag and LRU stamp per way) and keys.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> stamps_;
    std::vector<std::uint64_t> keys_;
    std::uint32_t clock_ = 0;
    std::size_t nextKey_ = 0;
    std::uint64_t sink_ = 0;
};

/**
 * A timed phase cut into short slices of work with a host-speed probe
 * after each, grouped 25 at a time into windows (about a quarter
 * second, longer where one call outlasts a slice, as a replay does).
 * Each window records its op rate, its CPU per op and the p50 and p99
 * of its own latency samples, all scaled to the reference host by the
 * probes run inside it; the time and CPU the probes take are left out.
 * A phase is summarised by the medians of these over its windows.  A
 * trailing partial window is dropped.
 */
class Windows
{
  public:
    /** Work between two probes. */
    static constexpr std::uint64_t kSliceNs = 10'000'000;
    static constexpr unsigned kSlicesPerWindow = 25;

    /** @p cpu_clock: the CPU clock (seconds) the phase charges.  The
     *  phase starts now. */
    Windows(HostProbe &probe, std::function<double()> cpu_clock);

    /** Where the current window's latency samples go. */
    LogHistogram &latency() { return latency_; }

    /** Whether the current slice of work is over. */
    bool probeDue(std::uint64_t now_ns) const
    {
        return now_ns >= sliceStartNs_ + kSliceNs;
    }

    /** End the current slice, @p ops_done ops into the phase: run the
     *  probe, close the window when it is full, start the next slice.
     *  No request may be in flight. */
    void probe(std::uint64_t ops_done);

    /** Medians over the windows, scaled to the reference host. */
    struct Summary
    {
        double opsPerSec = 0.0;
        double cpuUsPerOp = 0.0;
        double p50Ns = 0.0;
        double p99Ns = 0.0;
        /** The unscaled median op rate and the median wall scale. */
        double rawOpsPerSec = 0.0;
        double wallScale = 0.0;
        std::uint64_t samples = 0; ///< latency samples in the windows
        std::size_t windows = 0;
    };
    Summary summary() const;

  private:
    struct Window
    {
        double opsPerSec = 0.0;
        double cpuUsPerOp = 0.0;
        double p50Ns = 0.0;
        double p99Ns = 0.0;
        double rawOpsPerSec = 0.0;
        double wallScale = 0.0;
        std::uint64_t samples = 0;
    };

    HostProbe &probe_;
    std::function<double()> cpuClock_;
    std::uint64_t sliceStartNs_;
    unsigned slices_ = 0;
    // The current window.
    std::uint64_t workNs_ = 0;
    std::uint64_t ops_ = 0;
    double cpu_;
    double probeCpu_ = 0.0;
    HostProbe::Sample probed_;
    LogHistogram latency_;
    std::vector<Window> closed_;
};

/** One recorded span (Chrome "X" event, or a "b"/"e" pair when
 *  @c async -- pipelined requests overlap on one thread). */
struct Span
{
    const char *cat = "";
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Request (op, record block) the span belongs to; spans of one
     *  request share it. */
    std::uint64_t req = 0;
    bool async = false;
};

/** One thread's spans, kept in memory up to a cap; later spans are
 *  counted as dropped. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity) : capacity_(capacity) {}

    void
    record(const char *cat, const char *name, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint64_t req, bool async = false)
    {
        if (spans_.size() < capacity_)
            spans_.push_back({cat, name, start_ns, end_ns, req, async});
        else
            ++dropped_;
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::size_t capacity_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/** The traced run's span buffers, one per thread, written out once
 *  at the end. */
class SpanLog
{
  public:
    SpanLog();

    /** Buffer of track @p tid (< kSpanTracks), one thread's spans. */
    SpanBuffer &thread(unsigned tid) { return buffers_.at(tid); }

    /** Write Chrome trace-event JSON (Perfetto opens it).
     *  @return false when @p path cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::uint64_t epochNs_;
    std::deque<SpanBuffer> buffers_;
};

/** CPU seconds of the whole process / of the calling thread. */
double processCpuSec();
double threadCpuSec();

/** Kernel CPU seconds and voluntary context switches. */
struct Usage
{
    double sysSec = 0.0;
    double volCtxSwitches = 0.0;
};
Usage usageOfProcess();
Usage usageOfThread();

/** Peak resident set (VmHWM) in MiB. */
double peakRssMb();
/** Median cost in ns of one back-to-back nowNs() pair, subtracted
 *  from spans that time single calls. */
std::uint64_t clockPairNs();

/**
 * Timing decorator over the Backend interface: host time of every
 * fetch/store call, for a service driven by one thread.  The inner
 * backend's own fetchAsync is bypassed (the base adapter calls the
 * timed fetch()), which matches SyntheticBackend's inline completion
 * exactly.
 */
class TimedBackend final : public csr::serve::Backend
{
  public:
    explicit TimedBackend(csr::serve::Backend &inner) : inner_(inner) {}

    csr::serve::BackendResult fetch(csr::Addr key,
                                    std::uint64_t salt) override;
    csr::serve::BackendResult store(csr::Addr key, std::uint64_t value,
                                    std::uint64_t salt) override;
    std::string describe() const override { return inner_.describe(); }

    std::uint64_t fetchHostNs = 0;
    std::uint64_t storeHostNs = 0;
    LogHistogram fetchHostHist;
    /** Where backend spans go (null = no spans), and the request the
     *  caller is serving. */
    SpanBuffer *spans = nullptr;
    std::uint64_t req = 0;

  private:
    csr::serve::Backend &inner_;
};

/** Time split of the timed CacheModel loop. */
struct CacheTiming
{
    std::uint64_t cacheNs = 0; ///< inside the per-block loop
    std::uint64_t fillNs = 0;  ///< of which victim selection + fill
};

/**
 * replayTrace's per-record protocol (GET: access, fill on miss; SET:
 * access, cost refresh on hit, fill on miss; DEL: invalidate) over
 * the records of @p block whose set satisfies set % jobs == job,
 * accumulating into @p totals exactly as a replay job does.  One
 * "cache.block" span covers the loop; each fill is timed apart.
 */
void replayBlockTimed(csr::CacheModel &model,
                      const csr::replay::ReplayBlock &block,
                      unsigned job, unsigned jobs,
                      std::uint64_t default_cost_ns,
                      csr::replay::ReplayTotals &totals,
                      CacheTiming &timing, SpanBuffer *spans,
                      std::uint64_t req);

// -- the serve workloads' shared program set-up ---------------------------

/** The service both serve workloads run: the defaults (8 shards x
 *  256 KiB, 8-way, ACL; hit path and stripes untouched), seeded. */
csr::serve::ServeConfig serveConfig(std::uint64_t seed);

/** The default bimodal SyntheticBackend (modelled, not spun), seeded. */
csr::serve::SyntheticBackendConfig backendConfig(std::uint64_t seed);

/** The first @p n ops of @p mix's stream at @p seed. */
std::vector<csr::serve::Op> generateOps(const csr::serve::WorkloadMix &mix,
                                        std::uint64_t seed, std::size_t n);

/** Every ServeTotals field that is a pure function of the op
 *  sequence under the locked hit path. */
bool sameTotals(const csr::serve::ServeTotals &a,
                const csr::serve::ServeTotals &b);

/** One single-threaded pass of a fresh service over an op stream. */
struct InProcessPass
{
    /** Totals after ops.size() ops (one pass of the stream). */
    csr::serve::ServeTotals atStream;
    /** Totals after the requested total. */
    csr::serve::ServeTotals atTotal;
    LogHistogram getNs;
    LogHistogram putNs;
    std::uint64_t ops = 0;
    /** Summed get/put call time, and the part inside backend calls. */
    std::uint64_t callNs = 0;
    std::uint64_t backendNs = 0;
    LogHistogram fetchNs;
};

/**
 * Drive a fresh serveConfig(seed) service, on the calling thread,
 * with ops[i % ops.size()] for i < max(total, ops.size()), timing
 * each get/put call (spans into @p spans when non-null).
 */
InProcessPass runInProcess(const std::vector<csr::serve::Op> &ops,
                           std::uint64_t seed, std::uint64_t total,
                           SpanBuffer *spans);

/** Deterministic outputs of a short in-process run of @p mix. */
struct Signature
{
    std::uint64_t hits = 0;
    std::uint64_t gets = 0;
    double missCostNs = 0.0;

    bool operator==(const Signature &) const = default;
};
Signature serveSignature(const csr::serve::WorkloadMix &mix,
                         std::uint64_t seed);

/**
 * The cache.* metrics of a serve workload: the replay protocol over
 * @p ops through one CacheModel + ACL with the service's total
 * geometry, each key's miss cost its base backend latency.
 */
void reportCacheLayer(const std::vector<csr::serve::Op> &ops,
                      const csr::serve::SyntheticBackend &backend,
                      std::uint64_t seed, SpanBuffer *spans,
                      Report &report);

/**
 * What one run prints.  Metric names must come from the benchmark's
 * metric table (metricSpecs()); set() rejects any other name.
 * attempted/failed count operations, and every failed correctness
 * check adds one to failed.
 */
struct Report
{
    std::map<std::string, double> values;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> violations;
    /** Printed above the metrics (sample counts and the like). */
    std::vector<std::string> notes;

    void set(const std::string &name, double value);
    /** Count a violation when @p ok is false. */
    void check(bool ok, const std::string &what);
};

/** Set ops_per_s, the latency percentiles and cpu_us_per_op from a
 *  timed phase, and note how many samples the latency came from. */
void reportTimings(Report &report, const Windows::Summary &summary);

/**
 * Check that the deterministic outputs repeat exactly at @p seed and
 * differ at seed + 1.  @p sig computes them for one seed.
 */
void checkDeterminism(Report &report, std::uint64_t seed,
                      const std::function<Signature(std::uint64_t)> &sig);

struct MetricSpec
{
    const char *name;
    const char *unit;
    bool perLayer;
};

/** Every metric the benchmark reports, end-to-end ones first. */
const std::vector<MetricSpec> &metricSpecs();

void runWireHot(const Options &options, Report &report, SpanLog &log);
void runServeChurn(const Options &options, Report &report, SpanLog &log);
void runReplayCostmix(const Options &options, Report &report,
                      SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
