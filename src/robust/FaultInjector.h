/**
 * @file
 * Deterministic fault injection for testing the robustness layer.
 *
 * The isolation/retry/checkpoint/watchdog machinery is itself code
 * that must be exercised in CI, which needs failures on demand.  The
 * injector provides seeded, reproducible fault decisions at named
 * probe points compiled into the simulators:
 *
 *   - probes are only present in builds configured with
 *     -DCSR_FAULT_INJECT=ON (the CSR_FAULT_POINT macro is a no-op
 *     otherwise), so release hot paths carry zero overhead;
 *   - decisions are a pure function of (global seed, thread context,
 *     probe site, per-site draw index) -- the same configuration
 *     injects the same faults into the same cells regardless of
 *     worker count or scheduling;
 *   - probes fire only inside an explicit FaultInjector::Scope.
 *     SweepRunner opens one scope per (cell, attempt), which is what
 *     makes a retried cell draw *fresh* decisions and the shared
 *     setup phase immune.
 *
 * A firing probe throws InjectedFaultError, which flows through
 * exactly the paths a real TraceFormatError or stall would take.
 */

#ifndef CSR_ROBUST_FAULTINJECTOR_H
#define CSR_ROBUST_FAULTINJECTOR_H

#include <atomic>
#include <cstdint>
#include <string>

#include "robust/Errors.h"

namespace csr
{

/** Named probe points compiled into the simulators. */
enum class FaultSite : unsigned
{
    TraceLoad = 0, ///< loadSampledRecords (csrsim --load-trace)
    TraceSim,      ///< TraceSimulator replay loop (per-cell work)
    NumaSim,       ///< NumaSystem event loop
    CheckpointIO,  ///< sweep checkpoint journal append
    Count_,
};

const char *faultSiteName(FaultSite site);

/** True when this binary carries the probes (-DCSR_FAULT_INJECT=ON);
 *  lets drivers warn when --fault-rate is asked of a build that
 *  cannot honour it. */
constexpr bool
faultInjectionCompiledIn()
{
#if defined(CSR_FAULT_INJECT)
    return true;
#else
    return false;
#endif
}

/**
 * Process-global injector.  configure() once (from the CLI, before
 * any worker threads start); shouldFail() from any thread.
 */
class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Set the global fault probability and seed.  rate <= 0 turns
     *  injection off (the default). */
    void configure(double rate, std::uint64_t seed);

    bool enabled() const { return rate_ > 0.0; }
    double rate() const { return rate_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Deterministic Bernoulli draw for one probe execution.  Returns
     * false when injection is off or the calling thread has no active
     * Scope.  Each call advances the calling thread's per-site draw
     * index, so consecutive probes in one scope are independent.
     */
    bool shouldFail(FaultSite site);

    /** Total faults injected since configure() (all threads). */
    std::uint64_t injectedCount() const
    {
        return injected_.load(std::memory_order_relaxed);
    }

    /**
     * RAII thread context.  The context value (e.g. a sweep cell's
     * hash mixed with the attempt number) seeds every draw made by
     * this thread while the scope is active; scopes nest, restoring
     * the previous context on destruction.
     */
    class Scope
    {
      public:
        explicit Scope(std::uint64_t context);
        ~Scope();

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        bool prevActive_;
        std::uint64_t prevContext_;
    };

  private:
    FaultInjector() = default;

    double rate_ = 0.0;
    std::uint64_t seed_ = 0;
    std::atomic<std::uint64_t> injected_{0};
};

} // namespace csr

/**
 * Probe point: in CSR_FAULT_INJECT builds, asks the injector for a
 * decision and throws InjectedFaultError on a hit; compiled out
 * entirely otherwise.  @p what is a short human label for the thrown
 * message.
 */
#if defined(CSR_FAULT_INJECT)
#define CSR_FAULT_POINT(site, what)                                          \
    do {                                                                     \
        if (::csr::FaultInjector::instance().shouldFail(site)) {             \
            throw ::csr::InjectedFaultError(                                 \
                std::string("injected fault at ") +                          \
                ::csr::faultSiteName(site) + ": " + (what));                 \
        }                                                                    \
    } while (0)
#else
#define CSR_FAULT_POINT(site, what) ((void)0)
#endif

#endif // CSR_ROBUST_FAULTINJECTOR_H
