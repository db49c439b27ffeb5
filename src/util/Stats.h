/**
 * @file
 * Lightweight statistics accumulators.
 *
 * The simulators accumulate large numbers of per-event samples (miss
 * latencies, per-op service times).  These helpers provide
 * numerically stable means/variances, log-linear histograms and a
 * wall-clock stopwatch: the primitives MetricRegistry exports.
 */

#ifndef CSR_UTIL_STATS_H
#define CSR_UTIL_STATS_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace csr
{

/**
 * Running mean / variance via Welford's algorithm plus min/max.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const RunningStat &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;
    double stddev() const;
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-linear histogram of non-negative samples (nanoseconds, by
 * convention).  Values below 64 are counted exactly; above that each
 * power of two splits into 32 equal sub-buckets, so no bucket is wider
 * than 1/32 of its lower edge, all the way up to 2^64.  The layout is
 * fixed: any two histograms merge, and no sample is ever clamped.
 */
class Histogram
{
  public:
    /** Count @p weight samples of @p x, truncated to an integer;
     *  negative values and NaN count as 0, values at or past 2^64 in
     *  the top bucket. */
    void add(double x, std::uint64_t weight = 1);

    /** Add every sample of @p other (parallel reduction). */
    void merge(const Histogram &other);

    std::uint64_t totalCount() const;
    /** A value inside the bucket that holds the rank-ceil(frac * n)
     *  sample (rank 1 at frac 0): its midpoint, exact below 64.
     *  @p frac is clamped to [0,1]; an empty histogram reports 0. */
    double percentile(double frac) const;

  private:
    static constexpr int kSubBits = 5; ///< 32 sub-buckets per octave
    static constexpr std::size_t kBuckets = (64 - kSubBits + 1)
                                            << kSubBits;

    std::array<std::uint64_t, kBuckets> counts_{};
};

/**
 * Monotonic wall-clock stopwatch.  Starts on construction.
 */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    void reset() { start_ = std::chrono::steady_clock::now(); }

    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace csr

#endif // CSR_UTIL_STATS_H
