#include "telemetry/MetricRegistry.h"

#include "util/CliArgs.h"
#include "util/Json.h"

namespace csr
{

void
MetricRegistry::incCounter(std::string_view name, std::uint64_t by)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
        it->second += by;
        return;
    }
    counters_.emplace_hint(it, std::string(name), by);
}

void
MetricRegistry::setCounter(std::string_view name, std::uint64_t value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
        it->second = value;
        return;
    }
    counters_.emplace_hint(it, std::string(name), value);
}

RunningStat &
MetricRegistry::stat(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.lower_bound(name);
    if (it == stats_.end() || it->first != name)
        it = stats_.emplace_hint(it, std::string(name), RunningStat());
    return it->second;
}

void
MetricRegistry::recordTimerSec(std::string_view name, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.lower_bound(name);
    if (it == timers_.end() || it->first != name)
        it = timers_.emplace_hint(it, std::string(name), RunningStat());
    it->second.add(seconds);
}

void
MetricRegistry::mergeStat(std::string_view name, const RunningStat &other)
{
    stat(name).merge(other);
}

void
MetricRegistry::mergeHistogram(std::string_view name,
                               const Histogram &other)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.lower_bound(name);
    if (it == histograms_.end() || it->first != name) {
        histograms_.emplace_hint(it, std::string(name), other);
        return;
    }
    it->second.merge(other);
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    // Snapshot the source outside our own lock (self-merge is not
    // supported; the reporting path never needs it).
    std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto &[name, value] : other.counters_)
        incCounter(name, value);
    for (const auto &[name, value] : other.stats_)
        stat(name).merge(value);
    for (const auto &[name, value] : other.timers_) {
        std::lock_guard<std::mutex> self(mutex_);
        auto it = timers_.lower_bound(name);
        if (it == timers_.end() || it->first != name)
            it = timers_.emplace_hint(it, name, RunningStat());
        it->second.merge(value);
    }
    for (const auto &[name, value] : other.histograms_)
        mergeHistogram(name, value);
}

std::uint64_t
MetricRegistry::counter(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

RunningStat
MetricRegistry::statOf(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(name);
    return it == stats_.end() ? RunningStat() : it->second;
}

const Histogram *
MetricRegistry::histogramOf(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

bool
MetricRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.empty() && stats_.empty() && timers_.empty() &&
           histograms_.empty();
}

TextTable
MetricRegistry::toTable(const std::string &title) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TextTable table(title);
    table.setHeader({"Metric", "Kind", "Count", "Value", "Min", "Max"});
    for (const auto &[name, value] : counters_)
        table.addRow({name, "counter", "-", TextTable::count(value),
                      "-", "-"});
    for (const auto &[name, value] : stats_)
        table.addRow({name, "stat", TextTable::count(value.count()),
                      TextTable::num(value.mean(), 3),
                      TextTable::num(value.min(), 3),
                      TextTable::num(value.max(), 3)});
    for (const auto &[name, value] : timers_)
        table.addRow({name, "timer(s)",
                      TextTable::count(value.count()),
                      TextTable::num(value.mean(), 4),
                      TextTable::num(value.min(), 4),
                      TextTable::num(value.max(), 4)});
    for (const auto &[name, value] : histograms_)
        table.addRow({name, "histogram",
                      TextTable::count(value.totalCount()),
                      "p50=" + TextTable::num(value.percentile(0.5), 1),
                      "p10=" + TextTable::num(value.percentile(0.1), 1),
                      "p99=" + TextTable::num(value.percentile(0.99), 1)});
    return table;
}

namespace
{

std::string
numStr(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void
writeStatMap(
    std::ostream &os,
    const std::map<std::string, RunningStat, std::less<>> &stats)
{
    bool first = true;
    for (const auto &[name, value] : stats) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << '"' << jsonEscape(name) << '"';
        os << ": {\"count\": " << value.count()
           << ", \"mean\": " << numStr(value.mean())
           << ", \"stddev\": " << numStr(value.stddev())
           << ", \"min\": " << numStr(value.min())
           << ", \"max\": " << numStr(value.max()) << "}";
    }
    if (!stats.empty())
        os << "\n  ";
}

} // namespace

void
MetricRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << '"' << jsonEscape(name) << '"';
        os << ": " << value;
    }
    if (!counters_.empty())
        os << "\n  ";
    os << "},\n  \"stats\": {";
    writeStatMap(os, stats_);
    os << "},\n  \"timersSec\": {";
    writeStatMap(os, timers_);
    os << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, value] : histograms_) {
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << '"' << jsonEscape(name) << '"';
        os << ": {\"count\": " << value.totalCount()
           << ", \"p50\": " << numStr(value.percentile(0.50))
           << ", \"p90\": " << numStr(value.percentile(0.90))
           << ", \"p99\": " << numStr(value.percentile(0.99)) << "}";
    }
    if (!histograms_.empty())
        os << "\n  ";
    os << "}\n}\n";
}

void
MetricRegistry::writeJson(const std::string &path) const
{
    writeOutputFile(path, [this](std::ostream &os) { writeJson(os); });
}

void
MetricRegistry::reset()
{
    std::lock_guard lock(mutex_);
    counters_.clear();
    stats_.clear();
    timers_.clear();
    histograms_.clear();
}

} // namespace csr
