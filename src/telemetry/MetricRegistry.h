/**
 * @file
 * Unified metric registry: counters, distributions, timers and
 * histograms behind one name space and one dump schema.
 *
 * Components (or their result structs) export into a MetricRegistry
 * -- counter structs through their forEach*Counter lists, plus
 * RunningStats and Histograms -- and every consumer (csrsim
 * --metrics, the bench JSON emitters, tests) reads one schema, as a
 * text table or as JSON:
 *
 *   {
 *     "counters":   { "name": 123, ... },
 *     "stats":      { "name": {"count":..,"mean":..,"stddev":..,
 *                              "min":..,"max":..}, ... },
 *     "timersSec":  { same shape as stats, unit seconds },
 *     "histograms": { "name": {"count":..,"p50":..,"p90":..,
 *                              "p99":..}, ... }
 *   }
 *
 * The registry is a reporting-path object: build/merge it after a run
 * (or from one thread), then dump it.  Map mutations are mutex-
 * guarded so concurrent import is safe, but references returned by
 * stat() are only safe to mutate single-threaded.
 */

#ifndef CSR_TELEM_METRICREGISTRY_H
#define CSR_TELEM_METRICREGISTRY_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "util/Stats.h"
#include "util/Table.h"

namespace csr
{

class MetricRegistry
{
  public:
    MetricRegistry() = default;

    // --- recording --------------------------------------------------------

    /** Increment a named counter (created at zero if absent). */
    void incCounter(std::string_view name, std::uint64_t by = 1);
    /** Overwrite a named counter. */
    void setCounter(std::string_view name, std::uint64_t value);

    /** Named RunningStat (created empty if absent). */
    RunningStat &stat(std::string_view name);

    /** Named timer: a RunningStat of seconds. */
    void recordTimerSec(std::string_view name, double seconds);

    // --- merging ----------------------------------------------------------

    /** Merge @p other into the named stat. */
    void mergeStat(std::string_view name, const RunningStat &other);
    /** Merge @p other into the named histogram (created as a copy if
     *  absent). */
    void mergeHistogram(std::string_view name, const Histogram &other);
    /** Merge every metric of @p other into this registry. */
    void merge(const MetricRegistry &other);

    // --- reading ----------------------------------------------------------

    std::uint64_t counter(std::string_view name) const;
    /** Empty-stat fallback if absent. */
    RunningStat statOf(std::string_view name) const;
    const Histogram *histogramOf(std::string_view name) const;
    bool empty() const;

    // --- dumping (the one schema) -----------------------------------------

    /** One row per metric: Metric | Kind | Count | Value | Min | Max. */
    TextTable toTable(const std::string &title = "metrics") const;

    /** The JSON schema documented in the file comment. */
    void writeJson(std::ostream &os) const;
    /** Same, to a file; ConfigError if @p path cannot be written. */
    void writeJson(const std::string &path) const;

    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, RunningStat, std::less<>> stats_;
    std::map<std::string, RunningStat, std::less<>> timers_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace csr

#endif // CSR_TELEM_METRICREGISTRY_H
