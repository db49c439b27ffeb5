/**
 * @file
 * Typed error hierarchy of the csr robustness layer.
 *
 * Everything a *user* or the *environment* can get wrong -- bad
 * configuration, a corrupt trace file, a stale checkpoint, a
 * simulation that stops making progress -- is reported as a subclass
 * of csr::Error instead of csr_fatal()'s exit(1) or a bare
 * std::runtime_error.  Each class carries a stable kind() string and
 * the process exit code drivers map it to, so a sweep supervisor (or
 * csrsim itself) can tell "retryable cell failure" from "the whole
 * invocation is misconfigured" without parsing message text.
 *
 * csr_panic()/csr_assert() remain the tool for *internal* invariant
 * violations that indicate a bug in csr itself; those still abort.
 *
 * Header-only on purpose: the hierarchy is depended on from every
 * layer (util's CliArgs up to the NUMA simulator), so it must not
 * drag a library link dependency with it.
 */

#ifndef CSR_ROBUST_ERRORS_H
#define CSR_ROBUST_ERRORS_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace csr
{

/** Process exit codes, one per error class (csrsim's contract). */
namespace exitcode
{
constexpr int kOk = 0;
constexpr int kGeneric = 1;       ///< usage errors, csr_fatal, unknown
constexpr int kConfig = 2;        ///< ConfigError
constexpr int kTraceFormat = 3;   ///< TraceFormatError
constexpr int kCheckpoint = 4;    ///< CheckpointError
constexpr int kStall = 5;         ///< SimulationStallError
constexpr int kGeometry = 6;      ///< CacheGeometryError
constexpr int kInvariant = 7;     ///< InvariantError
constexpr int kInjectedFault = 8; ///< InjectedFaultError
constexpr int kTimeout = 9;       ///< TimeoutError
/** A sweep finished but some cells failed (partial success). */
constexpr int kSweepPartial = 10;
constexpr int kNet = 11;          ///< NetError
constexpr int kCircuitOpen = 12;  ///< CircuitOpenError
} // namespace exitcode

/**
 * Base of all typed csr errors.  what() is the human-readable
 * message; kind() is a stable machine-readable class name (also the
 * string journaled into sweep checkpoints and JSON failure
 * appendices); exitCode() is the process exit status drivers use.
 */
class Error : public std::runtime_error
{
  public:
    Error(const char *kind, int exit_code, const std::string &what)
        : std::runtime_error(what), kind_(kind), exitCode_(exit_code)
    {
    }

    const char *kind() const { return kind_; }
    int exitCode() const { return exitCode_; }

  private:
    const char *kind_;
    int exitCode_;
};

/** The user asked for something impossible: bad flag value, unknown
 *  preset, unwritable output path, inconsistent parameters. */
class ConfigError : public Error
{
  public:
    explicit ConfigError(const std::string &what)
        : Error("ConfigError", exitcode::kConfig, what)
    {
    }
};

/** A trace file is malformed: bad magic, truncated records, garbage
 *  lines.  Carries the byte offset at which parsing failed. */
class TraceFormatError : public Error
{
  public:
    explicit TraceFormatError(const std::string &what,
                              std::uint64_t byte_offset = 0)
        : Error("TraceFormatError", exitcode::kTraceFormat,
                what + " (at byte offset " +
                    std::to_string(byte_offset) + ")"),
          byteOffset_(byte_offset)
    {
    }

    /** Offset of the first byte that could not be consumed. */
    std::uint64_t byteOffset() const { return byteOffset_; }

  private:
    std::uint64_t byteOffset_;
};

/** A sweep checkpoint is unreadable, malformed, or was written for a
 *  different grid. */
class CheckpointError : public Error
{
  public:
    explicit CheckpointError(const std::string &what)
        : Error("CheckpointError", exitcode::kCheckpoint, what)
    {
    }
};

/**
 * The simulator stopped making forward progress (coherence livelock,
 * drained event queue with unfinished processors) or exceeded its
 * cycle budget.  Raised by the NumaSystem watchdog *instead of
 * hanging*; carries the diagnostic snapshot taken at the point of
 * stall (per-node MSHR occupancy, directory transactions, network
 * state, event-queue depth).
 */
class SimulationStallError : public Error
{
  public:
    SimulationStallError(const std::string &what,
                         const std::string &snapshot)
        : Error("SimulationStallError", exitcode::kStall,
                snapshot.empty() ? what : what + "\n" + snapshot),
          snapshot_(snapshot)
    {
    }

    /** The component-state dump taken when the watchdog fired. */
    const std::string &snapshot() const { return snapshot_; }

  private:
    std::string snapshot_;
};

/** An always-on validation pass (--validate) found corrupted
 *  simulator state: recency stack out of sync with the cache model,
 *  duplicate ETD tags, coherence violations. */
class InvariantError : public Error
{
  public:
    explicit InvariantError(const std::string &what)
        : Error("InvariantError", exitcode::kInvariant, what)
    {
    }
};

/**
 * A bounded wait expired: a serve-layer waiter gave up on a wedged
 * single-flight leader, or a network client ran out of patience on a
 * socket.  Distinct from SimulationStallError (which diagnoses the
 * simulator's own event loop): a timeout names an *external* party --
 * a backend, a peer -- that stopped answering, and the right reaction
 * is usually to fail the one request, not the process.
 */
class TimeoutError : public Error
{
  public:
    explicit TimeoutError(const std::string &what)
        : Error("TimeoutError", exitcode::kTimeout, what)
    {
    }
};

/**
 * A socket-layer operation failed: bind/listen/connect refused, a
 * peer spoke garbage RESP, a write hit a dead connection.  Carries
 * the errno text when one applies.  ConfigError stays the right type
 * for user-supplied addresses that fail to *parse*; NetError is for
 * the OS or the peer saying no at runtime.
 */
class NetError : public Error
{
  public:
    explicit NetError(const std::string &what)
        : Error("NetError", exitcode::kNet, what)
    {
    }
};

/**
 * A circuit breaker is open: the serve layer refused to start a
 * backend fetch because recent fetches against the same shard kept
 * failing or timing out.  Distinct from TimeoutError -- no wait
 * happened; the request was failed *fast*, which is the whole point.
 * Callers holding a stale resident value may prefer serving it
 * (--stale-while-broken) over surfacing this error.
 */
class CircuitOpenError : public Error
{
  public:
    explicit CircuitOpenError(const std::string &what)
        : Error("CircuitOpenError", exitcode::kCircuitOpen, what)
    {
    }
};

/** A deterministic fault injected by csr::FaultInjector (only ever
 *  raised inside a FaultInjector::Scope with a rate above 0; see
 *  FaultInjector.EveryProbeSiteFires in tests/test_robust.cc). */
class InjectedFaultError : public Error
{
  public:
    explicit InjectedFaultError(const std::string &what)
        : Error("InjectedFaultError", exitcode::kInjectedFault, what)
    {
    }
};

} // namespace csr

#endif // CSR_ROBUST_ERRORS_H
