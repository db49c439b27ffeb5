/**
 * @file
 * csr::serve::net::NetServer -- the RESP front door of a
 * CacheService (DESIGN.md section 3.7).
 *
 * N workers, each a thread running its own EventLoop, each with its
 * OWN listening socket bound to the same address via SO_REUSEPORT:
 * the kernel load-balances accepts across them, so there is no
 * shared acceptor, no accept mutex, and no cross-worker handoff --
 * a connection lives its whole life on the worker that accepted it.
 * The only cross-thread traffic is an asynchronous backend
 * completion posting itself back to its connection's loop.
 *
 * Commands map onto the service surface:
 *
 *   GET k    -> CacheService::getAsync  (read-through; never nil)
 *   SET k v  -> CacheService::put       (write-through; v = uint64)
 *   DEL k    -> CacheService::del       (:1 resident, :0 not)
 *   PING     -> +PONG
 *   INFO     -> bulk of "key:value" lines: ServeTotals + net stats
 *
 * The seqlock/striped hit path is untouched: the server is a caller
 * of CacheService like any other, so every determinism and
 * concurrency property of the in-process service carries over to
 * the wire verbatim.
 */

#ifndef CSR_SERVE_NET_SERVER_H
#define CSR_SERVE_NET_SERVER_H

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/CacheService.h"
#include "serve/net/Connection.h"
#include "serve/net/NetCommon.h"

namespace csr
{
class MetricRegistry;
}

namespace csr::serve::net
{

/** Listener + worker-pool parameters. */
struct NetServerConfig
{
    std::string host = "127.0.0.1";
    /** 0 = ephemeral (tests bind port 0, then read port()). */
    std::uint16_t port = 0;
    /** Event-loop threads; 0 = one per hardware thread. */
    unsigned workers = 1;
    int backlog = 128;
    /** Live-connection cap; accepts past it are refused with
     *  "-ERR server at capacity" (0 = unlimited). */
    std::size_t maxConns = 0;
    NetTuning tuning;
    /** Deterministic wire chaos (rate 0 = off). */
    ChaosConfig chaos;

    /**
     * Read --listen HOST:PORT, --net-workers N, --max-conns N, the
     * --idle-timeout-ms / --read-deadline-ms / --shed-pending-ops /
     * --shed-write-bytes tuning knobs, and the --chaos-* family out
     * of @p args (absent --listen leaves host/port at their defaults
     * -- the driver decides whether that means "no server").  The
     * result is validate()d.  @throws ConfigError.
     */
    static NetServerConfig fromArgs(const CliArgs &args);

    /** @throws ConfigError on a zero bound or absurd worker count. */
    void validate() const;
};

/** Aggregated view of every worker's counters. */
struct NetStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsClosed = 0;
    std::uint64_t cmdGet = 0;
    std::uint64_t cmdSet = 0;
    std::uint64_t cmdDel = 0;
    std::uint64_t cmdPing = 0;
    std::uint64_t cmdInfo = 0;
    std::uint64_t errorReplies = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t sends = 0;
    std::uint64_t backpressureStalls = 0;
    std::uint64_t shedOps = 0;
    std::uint64_t idleClosed = 0;
    std::uint64_t deadlineClosed = 0;
    std::uint64_t capacityRejections = 0;
    std::uint64_t chaosShortWrites = 0;
    std::uint64_t chaosDeferredAccepts = 0;
    std::uint64_t chaosResets = 0;
    /** Complete only after stop() (loop-thread-local until then). */
    Histogram wireLatencyNs;
};

/** The one list of NetStats counters, in INFO order; visited as
 *  forEachServeCounter's are.  A WorkerStats's atomics carry the
 *  same names.  A nullptr key: INFO reports the counter elsewhere. */
template <typename Visit, typename... T>
void
forEachNetCounter(Visit &&visit, T &...o)
{
    visit("connectionsAccepted", "net.connections.accepted",
          o.connectionsAccepted...);
    visit("connectionsClosed", "net.connections.closed",
          o.connectionsClosed...);
    visit("cmdGet", "net.cmd.get", o.cmdGet...);
    visit("cmdSet", "net.cmd.set", o.cmdSet...);
    visit("cmdDel", "net.cmd.del", o.cmdDel...);
    visit("cmdPing", "net.cmd.ping", o.cmdPing...);
    visit("cmdInfo", "net.cmd.info", o.cmdInfo...);
    visit("errorReplies", "net.error_replies", o.errorReplies...);
    visit("protocolErrors", "net.protocol_errors", o.protocolErrors...);
    visit("bytesIn", "net.bytes.in", o.bytesIn...);
    visit("bytesOut", "net.bytes.out", o.bytesOut...);
    visit("sends", "net.sends", o.sends...);
    visit("backpressureStalls", "net.backpressure_stalls",
          o.backpressureStalls...);
    // INFO reports it in "# serve", as ServeTotals::shedOps.
    visit(nullptr, "net.sheds", o.shedOps...);
    visit("idleClosed", "net.idle_closed", o.idleClosed...);
    visit("deadlineClosed", "net.deadline_closed", o.deadlineClosed...);
    visit("capacityRejections", "net.capacity_rejections",
          o.capacityRejections...);
    visit("chaosShortWrites", "net.chaos.short_writes",
          o.chaosShortWrites...);
    visit("chaosDeferredAccepts", "net.chaos.deferred_accepts",
          o.chaosDeferredAccepts...);
    visit("chaosResets", "net.chaos.resets", o.chaosResets...);
}

/** What one graceful drain accomplished (the net.drain.* block). */
struct DrainReport
{
    /** Connections open when the drain began. */
    std::uint64_t drainedConns = 0;
    /** Of those, how many had to be aborted at the hard deadline. */
    std::uint64_t forcedCloses = 0;
    /** In-flight backend fetches failed fast at the deadline. */
    std::uint64_t failedFetches = 0;
    double drainMs = 0.0;
    bool deadlineExpired = false;
};

class NetServer
{
  public:
    /** @p service must outlive the server.  Does not start. */
    NetServer(CacheService &service, const NetServerConfig &config);
    ~NetServer(); ///< stop()s if still running

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** Bind + listen + spawn the workers.  @throws NetError when the
     *  address is taken, ConfigError on a bad config. */
    void start();

    /** Stop accepting, drain the loops, join the workers.  Open
     *  connections are dropped (the protocol has no goodbye).
     *  Idempotent. */
    void stop();

    /**
     * Graceful shutdown, phase one (call before stop()): close every
     * listener, ask each open connection to flush its queued replies
     * and close, and wait up to @p deadline_ms for all of them to
     * finish.  If the deadline expires, every in-flight backend
     * fetch is failed fast (so parked completions turn into -ERR
     * replies), stragglers get a short grace to flush those, and
     * whatever is still open is aborted.  The report is also kept as
     * lastDrain() for exportMetrics().  Idempotent; safe to call
     * from a signal-handling thread (not from a worker loop).
     */
    DrainReport drain(double deadline_ms);

    /** Report of the most recent drain() (zeroes if none ran). */
    const DrainReport &lastDrain() const { return lastDrain_; }

    /** Resolved listen port (after start(); useful with port 0). */
    std::uint16_t port() const { return port_; }

    bool
    running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    /** Counters are live; the latency histogram only after stop(). */
    NetStats stats() const;

    /** The INFO payload: "key:value" lines, "#"-prefixed section
     *  headers, ServeTotals first and net counters second. */
    std::string infoText() const;

    /** Export net counters + wire latency under "net." (call after
     *  stop() for a complete histogram). */
    void exportMetrics(MetricRegistry &registry) const;

  private:
    struct Worker
    {
        EventLoop loop;
        ScopedFd listenFd;
        WorkerStats stats;
        std::unordered_map<int, std::shared_ptr<Connection>> conns;
        std::thread thread;
    };

    ScopedFd makeListener(std::uint16_t port);
    void onAcceptable(Worker &worker);
    /** Wrap an accepted @p fd in a Connection on @p worker's loop
     *  (the tail of onAcceptable; deferred-accept chaos lands here
     *  from a timer). */
    void adoptConnection(Worker &worker, int fd,
                         std::uint64_t serial);

    CacheService &service_;
    NetServerConfig config_;
    std::uint16_t port_ = 0;
    /** Atomic: INFO handlers on loop threads read it while start()
     *  and stop() write it from the controlling thread. */
    std::atomic<bool> running_{false};
    /** Set once drain() begins; late deferred-accept adoptions just
     *  close their socket instead of joining a draining server. */
    std::atomic<bool> draining_{false};
    /** Open connections across all workers (accept++ / close--);
     *  drives --max-conns and the drain wait. */
    std::atomic<std::uint64_t> liveConns_{0};
    /** Server-unique connection ordinal; keys chaos draws. */
    std::atomic<std::uint64_t> connSerial_{0};
    /** Server-wide admission-control aggregates (shed watermarks). */
    WorkerLoad load_;
    DrainReport lastDrain_;
    std::vector<std::unique_ptr<Worker>> workers_;
};

/**
 * Parse an INFO payload's "# serve" section back into ServeTotals
 * (the network client's side of the metrics loop: the harness prints
 * the same summary table from a wire run as from an in-process one).
 * Unknown keys are ignored.  @throws NetError naming what is wrong
 * when the section is missing, or a listed counter is missing or not
 * a well-formed number.
 */
ServeTotals parseInfoTotals(const std::string &info);

} // namespace csr::serve::net

#endif // CSR_SERVE_NET_SERVER_H
