#include "util/Stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace csr
{

void
RunningStat::add(double x)
{
    ++n_;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nt = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    mean_ += delta * nb / nt;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
Histogram::add(double x, std::uint64_t weight)
{
    // 2^64 as a double; the cast below is undefined at or past it.
    constexpr double kTop = 18446744073709551616.0;
    std::uint64_t v = 0;
    if (x >= kTop)
        v = ~std::uint64_t{0};
    else if (x > 0.0) // false for NaN too
        v = static_cast<std::uint64_t>(x);
    // Keep v's top kSubBits + 1 bits: its leading 1, whose octave the
    // shift counts, and the kSubBits below it, which pick the linear
    // sub-bucket.  Below 2^(kSubBits + 1) nothing is shifted out and v
    // indexes directly, so the exact and log-linear ranges join with
    // no gap.
    const int shift =
        std::max(0, 64 - kSubBits - 1 - std::countl_zero(v));
    counts_[(static_cast<std::size_t>(shift) << kSubBits) + (v >> shift)] +=
        weight;
}

void
Histogram::merge(const Histogram &other)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i] += other.counts_[i];
}

std::uint64_t
Histogram::totalCount() const
{
    std::uint64_t total = 0;
    for (auto c : counts_)
        total += c;
    return total;
}

double
Histogram::percentile(double frac) const
{
    const std::uint64_t total = totalCount();
    if (total == 0)
        return 0.0;
    frac = std::clamp(frac, 0.0, 1.0);
    // 1-based rank of the sample that realizes the percentile; the
    // floor of one makes p0 the smallest sample.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(frac * static_cast<double>(total))));
    std::uint64_t seen = 0;
    std::size_t i = 0;
    for (; i + 1 < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= target)
            break;
    }
    // Invert add(): bucket i covers [lo, lo + width).
    const int shift = std::max(0, static_cast<int>(i >> kSubBits) - 1);
    const auto lo = static_cast<double>(
        (i - (static_cast<std::size_t>(shift) << kSubBits)) << shift);
    const auto width = static_cast<double>(std::uint64_t{1} << shift);
    return lo + (width - 1.0) / 2.0;
}

void
ParallelTiming::recordTask(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.add(seconds);
}

void
ParallelTiming::setWallSec(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    wallSec_ = seconds;
}

std::uint64_t
ParallelTiming::taskCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.count();
}

double
ParallelTiming::taskSecTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.sum();
}

double
ParallelTiming::taskSecMean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.mean();
}

double
ParallelTiming::taskSecMax() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.max();
}

double
ParallelTiming::wallSec() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wallSec_;
}

double
ParallelTiming::speedup() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wallSec_ > 0.0 ? tasks_.sum() / wallSec_ : 0.0;
}

double
ParallelTiming::tasksPerSec() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wallSec_ > 0.0
               ? static_cast<double>(tasks_.count()) / wallSec_
               : 0.0;
}

void
StatGroup::inc(std::string_view name, std::uint64_t by)
{
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
        it->second += by;
        return;
    }
    counters_.emplace_hint(it, std::string(name), by);
}

std::uint64_t &
StatGroup::counter(std::string_view name)
{
    auto it = counters_.lower_bound(name);
    if (it == counters_.end() || it->first != name)
        it = counters_.emplace_hint(it, std::string(name), 0);
    return it->second;
}

std::uint64_t
StatGroup::get(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatGroup::reset()
{
    for (auto &[name, value] : counters_) {
        (void)name;
        value = 0;
    }
}

} // namespace csr
