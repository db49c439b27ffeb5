#include "telemetry/Tracer.h"

#include <algorithm>
#include <fstream>

#include "telemetry/MetricRegistry.h"
#include "util/Logging.h"

namespace csr::telemetry
{

namespace detail
{
std::atomic<bool> gTracingEnabled{false};
} // namespace detail

void
setTracingEnabled(bool on)
{
    detail::gTracingEnabled.store(on, std::memory_order_relaxed);
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

Tracer::ThreadBuffer &
Tracer::threadBuffer()
{
    // One registration per (thread, process); the cached pointer makes
    // the enabled-path cost one TLS read + one buffer-mutex lock.
    static thread_local ThreadBuffer *buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        buffers_.emplace_back();
        buffers_.back().tid =
            static_cast<std::uint32_t>(buffers_.size() - 1);
        buffer = &buffers_.back();
    }
    return *buffer;
}

void
Tracer::record(const char *cat, const char *name, char phase,
               double value, bool has_value)
{
    recordCalls_.fetch_add(1, std::memory_order_relaxed);
    ThreadBuffer &buffer = threadBuffer();
    TraceEvent event;
    event.name = name;
    event.cat = cat;
    event.phase = phase;
    event.tid = buffer.tid;
    event.tsNs = nowNs();
    event.value = value;
    event.hasValue = has_value;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    if (buffer.events.size() < kMaxEventsPerThread) {
        buffer.events.push_back(event);
        return;
    }
    buffer.events[buffer.next] = event;
    buffer.next = (buffer.next + 1) % kMaxEventsPerThread;
    ++buffer.dropped;
}

void
Tracer::begin(const char *cat, const char *name)
{
    record(cat, name, 'B', 0.0, false);
}

void
Tracer::end(const char *cat, const char *name)
{
    record(cat, name, 'E', 0.0, false);
}

void
Tracer::instant(const char *cat, const char *name)
{
    record(cat, name, 'i', 0.0, false);
}

void
Tracer::instant(const char *cat, const char *name, double value)
{
    record(cat, name, 'i', value, true);
}

void
Tracer::counter(const char *cat, const char *name, double value)
{
    record(cat, name, 'C', value, true);
}

const char *
Tracer::intern(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string &existing : interned_)
        if (existing == label)
            return existing.c_str();
    interned_.push_back(label);
    return interned_.back().c_str();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (ThreadBuffer &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer.mutex);
        buffer.events.clear();
        buffer.next = 0;
        buffer.dropped = 0;
    }
    epoch_ = std::chrono::steady_clock::now();
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const ThreadBuffer &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer.mutex);
        total += buffer.events.size();
    }
    return total;
}

void
Tracer::exportMetrics(MetricRegistry &registry) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    for (const ThreadBuffer &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer.mutex);
        events += buffer.events.size();
        dropped += buffer.dropped;
    }
    registry.setCounter("trace.events", events);
    registry.setCounter("trace.dropped_events", dropped);
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    for (const ThreadBuffer &buffer : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(buffer.mutex);
        // A wrapped ring's oldest event sits at next.
        const auto oldest =
            buffer.events.begin() +
            static_cast<std::ptrdiff_t>(buffer.next);
        out.insert(out.end(), oldest, buffer.events.end());
        out.insert(out.end(), buffer.events.begin(), oldest);
    }
    return out;
}

namespace
{

/** JSON string escaping (names are controlled, but stay safe). */
void
writeJsonString(std::ostream &os, const char *s)
{
    os << '"';
    for (; *s; ++s) {
        const unsigned char c = static_cast<unsigned char>(*s);
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    const std::vector<TraceEvent> events = snapshot();
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        os << "{\"name\":";
        writeJsonString(os, event.name);
        os << ",\"cat\":";
        writeJsonString(os, event.cat);
        os << ",\"ph\":\"" << event.phase << "\"";
        // Chrome's ts unit is microseconds; keep ns precision.
        char ts[32];
        std::snprintf(ts, sizeof(ts), "%.3f",
                      static_cast<double>(event.tsNs) / 1000.0);
        os << ",\"ts\":" << ts << ",\"pid\":0,\"tid\":" << event.tid;
        if (event.phase == 'i')
            os << ",\"s\":\"t\""; // thread-scoped instant
        if (event.hasValue) {
            char value[32];
            std::snprintf(value, sizeof(value), "%.6g", event.value);
            os << ",\"args\":{\"value\":" << value << "}";
        }
        os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        csr_fatal("cannot write trace to '%s'", path.c_str());
    writeChromeTrace(os);
}

} // namespace csr::telemetry
