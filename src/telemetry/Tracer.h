/**
 * @file
 * Event tracer with Chrome trace-event JSON export.
 *
 * The paper's algorithms are interesting for their *dynamics* -- when
 * a reservation opens, how fast depreciation closes it, when ACL's
 * two-bit counter flips -- none of which is visible in end-of-run
 * aggregates.  The Tracer records timestamped duration spans and
 * instant events into per-thread buffers and exports them in the
 * Chrome trace-event format, so a recorded run can be opened directly
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
 *
 * Overhead contract (see DESIGN.md "Telemetry"):
 *
 *  - compiled out (-DCSR_TELEMETRY_DISABLED), the CSR_TRACE_* macros
 *    expand to nothing;
 *  - compiled in but runtime-disabled (the default), every macro is a
 *    single relaxed atomic load and a predictable branch -- no call
 *    into the Tracer is made, which tests/test_telemetry.cc verifies
 *    through the recordCalls() counter;
 *  - enabled, events append to a per-thread buffer under that
 *    buffer's own uncontended mutex (taken only so that export can
 *    run concurrently with stragglers under TSan).
 *
 * Memory is bounded: each thread keeps at most kMaxEventsPerThread
 * events in a ring that overwrites its oldest entry once full, so a
 * long `csrserve --trace` keeps the most recent window instead of
 * growing without limit.  Overwritten events are counted and
 * exported as "trace.dropped_events".
 *
 * Event names are expected to be string literals; dynamic labels
 * (e.g. a sweep cell's "barnes/DCL/random/r=4" label) must be
 * interned first via Tracer::intern(), which returns a pointer that
 * stays valid for the process lifetime.
 */

#ifndef CSR_TELEMETRY_TRACER_H
#define CSR_TELEMETRY_TRACER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace csr
{
class MetricRegistry;
}

namespace csr::telemetry
{

namespace detail
{
/** The one runtime switch every tracing macro checks. */
extern std::atomic<bool> gTracingEnabled;
} // namespace detail

/** True while tracing is runtime-enabled (relaxed load; the disabled
 *  hot path is this one predictable branch). */
inline bool
tracingEnabled()
{
    return detail::gTracingEnabled.load(std::memory_order_relaxed);
}

/** Flip the runtime switch (typically once, before/after a run). */
void setTracingEnabled(bool on);

/** One recorded event.  POD-sized so per-thread buffers stay flat. */
struct TraceEvent
{
    const char *name = "";  ///< literal or Tracer::intern()ed
    const char *cat = "";   ///< literal category ("sweep", "policy", ...)
    char phase = 'i';       ///< Chrome phase: 'B', 'E', 'i' or 'C'
    std::uint32_t tid = 0;  ///< dense per-thread id (registration order)
    std::uint64_t tsNs = 0; ///< nanoseconds since the trace epoch
    double value = 0.0;     ///< numeric argument (when hasValue)
    bool hasValue = false;
};

/**
 * Process-wide tracer.  All recording goes through the singleton so
 * that instrumentation sites need no plumbing; sessions are delimited
 * by setTracingEnabled() + clear().
 */
class Tracer
{
  public:
    /** Per-thread ring capacity (~12 MiB of events per thread). */
    static constexpr std::size_t kMaxEventsPerThread = std::size_t{1}
                                                       << 18;

    static Tracer &instance();

    /** Open a duration span ('B'); pair with end(). */
    void begin(const char *cat, const char *name);
    /** Close the innermost span of this thread with @p name ('E'). */
    void end(const char *cat, const char *name);
    /** Record an instant event ('i'). */
    void instant(const char *cat, const char *name);
    /** Instant event carrying one numeric argument. */
    void instant(const char *cat, const char *name, double value);
    /** Counter sample ('C'): Perfetto renders these as a track. */
    void counter(const char *cat, const char *name, double value);

    /**
     * Copy @p label into process-lifetime storage and return a stable
     * pointer usable as an event name.  Repeated labels are collapsed
     * to one entry.
     */
    const char *intern(const std::string &label);

    /** Drop every recorded event, zero the drop count and restart the
     *  trace epoch.  Buffers registered by live threads stay valid
     *  (they are emptied, not freed). */
    void clear();

    /** Total record() invocations since process start (never reset):
     *  the telemetry test's proof that the disabled path makes zero
     *  Tracer calls. */
    std::uint64_t recordCalls() const
    {
        return recordCalls_.load(std::memory_order_relaxed);
    }

    /** Number of buffered events across all threads. */
    std::size_t eventCount() const;

    /** Export the buffered event count and the events full rings
     *  overwrote since the last clear() into @p registry, as
     *  "trace.events" and "trace.dropped_events". */
    void exportMetrics(MetricRegistry &registry) const;

    /** Merged copy of every buffered event (per-thread oldest first;
     *  threads are concatenated by tid). */
    std::vector<TraceEvent> snapshot() const;

    /** Export the buffered events as Chrome trace-event JSON. */
    void writeChromeTrace(std::ostream &os) const;
    /** Same, to a file; fatal if @p path cannot be opened. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        std::uint32_t tid = 0;
        mutable std::mutex mutex;
        /** Grows to kMaxEventsPerThread, then wraps at @p next. */
        std::vector<TraceEvent> events;
        std::size_t next = 0;      ///< oldest slot once the ring is full
        std::uint64_t dropped = 0; ///< events overwritten since clear()
    };

    Tracer();

    /** The buffer of the calling thread (registered on first use). */
    ThreadBuffer &threadBuffer();

    void record(const char *cat, const char *name, char phase,
                double value, bool has_value);

    std::uint64_t nowNs() const;

    mutable std::mutex mutex_; ///< guards buffers_ / interned_ / epoch_
    std::deque<ThreadBuffer> buffers_; ///< stable addresses, never freed
    std::deque<std::string> interned_;
    std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> recordCalls_{0};
};

/**
 * RAII duration span.  Construction latches the enabled state so the
 * matching 'E' event is emitted even if tracing is switched off while
 * the span is open (keeps begin/end balanced).
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, const char *name)
        : cat_(cat), name_(name), active_(tracingEnabled())
    {
        if (active_)
            Tracer::instance().begin(cat_, name_);
    }

    ~ScopedSpan()
    {
        if (active_)
            Tracer::instance().end(cat_, name_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *cat_;
    const char *name_;
    bool active_;
};

} // namespace csr::telemetry

#endif // CSR_TELEMETRY_TRACER_H
