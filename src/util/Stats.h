/**
 * @file
 * Lightweight statistics accumulators.
 *
 * The simulators accumulate large numbers of per-event samples (miss
 * latencies, reservation outcomes, per-set activity).  These helpers
 * provide numerically stable means/variances, log-linear histograms
 * and a named-counter registry that benches can dump uniformly.
 */

#ifndef CSR_UTIL_STATS_H
#define CSR_UTIL_STATS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

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
 * A registry of named 64-bit counters.  Components register counters
 * by dotted path ("l2.miss", "l2.reservation.success") and benches dump
 * them all at once; lookup is by map so registration order does not
 * matter.
 */
class StatGroup
{
  public:
    /** Increment (creating at zero if absent).  Heterogeneous lookup:
     *  incrementing an existing counter never materializes a
     *  std::string, so hot simulator paths do not allocate. */
    void inc(std::string_view name, std::uint64_t by = 1);
    /**
     * Stable reference to a named counter, created at zero if
     * absent.  std::map node addresses never move, and reset()
     * zeroes values in place rather than erasing nodes, so the
     * reference stays valid for the group's lifetime -- per-event
     * hot paths (the policies' reservation bookkeeping) resolve the
     * name once at construction and bump through the reference,
     * instead of paying a tree walk per event.
     */
    std::uint64_t &counter(std::string_view name);
    /** Read (zero if absent). */
    std::uint64_t get(std::string_view name) const;
    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t, std::less<>> &all() const
    {
        return counters_;
    }
    /** Zero every counter in place (references from counter() stay
     *  valid; the names survive with value 0). */
    void reset();

  private:
    std::map<std::string, std::uint64_t, std::less<>> counters_;
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

/**
 * Timing summary for a batch of parallel tasks.  Workers record the
 * wall-clock seconds of each task (thread-safe); the coordinator sets
 * the batch's total wall time once the pool has drained.  The
 * speedup() of task-seconds over wall-seconds is how the sweep engine
 * makes its parallelism observable.
 */
class ParallelTiming
{
  public:
    /** Record one finished task (safe to call from any thread). */
    void recordTask(double seconds);

    /** Set the whole batch's wall-clock duration. */
    void setWallSec(double seconds);

    std::uint64_t taskCount() const;
    double taskSecTotal() const;
    double taskSecMean() const;
    double taskSecMax() const;
    double wallSec() const;
    /** Aggregate task time over wall time (1.0 when serial). */
    double speedup() const;
    /** Completed tasks per wall-clock second. */
    double tasksPerSec() const;

  private:
    mutable std::mutex mutex_;
    RunningStat tasks_;
    double wallSec_ = 0.0;
};

} // namespace csr

#endif // CSR_UTIL_STATS_H
