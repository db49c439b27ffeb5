/**
 * @file
 * csrserve -- driver for the csr::serve online cache service, in
 * three modes.
 *
 * In-process (default): stand up a sharded CacheService over a
 * synthetic latency-distribution backend and replay a deterministic
 * workload against it from N closed-loop workers:
 *
 *   csrserve --policy acl --shards 8 --workers 8 --ops 1000000 \
 *            [--workload zipf|hotspot|scan|uniform] [--keys N]
 *            [--zipf-theta F] [--hot-frac F] [--hot-prob F]
 *            [--write-frac F] [--qps N] [--seed N]
 *            [--shard-bytes N] [--assoc N] [--block-bytes N]
 *            [--ewma-alpha F] [--inflight-wait-ms F]
 *            [--slow-frac F] [--slow-ns N] [--fast-ns N] [--jitter F]
 *            [--spin] [--affinity shard|free] [--validate]
 *            [--stripes auto|N]
 *            [--json FILE] [--trace FILE] [--metrics FILE]
 *
 * Server (--listen HOST:PORT): same service, but fronted by the RESP
 * protocol server (csr::serve::net) -- GET/SET/DEL/PING/INFO over N
 * epoll worker threads -- until SIGINT/SIGTERM, then the summary:
 *
 *   csrserve --listen 127.0.0.1:7411 --net-workers 4 \
 *            --policy acl --stripes auto
 *
 * Client (--connect HOST:PORT): replay the same deterministic op
 * stream over C RESP connections against a remote csrserve; the
 * summary table is built from the server's INFO totals, so a wire
 * run of a fresh server prints the same deterministic numbers as an
 * in-process run with the same flags:
 *
 *   csrserve --connect 127.0.0.1:7411 --connections 4 \
 *            --ops 200000 --seed 7 --shards 8 [--expect-fresh]
 *
 * Trace replay/capture (src/replay): the in-process and --connect
 * modes accept --replay T.csrt to drive a recorded .csrt trace
 * (Get/Set/Del records) instead of the synthetic generator, and the
 * in-process and --listen modes accept --record T.csrt to capture
 * the live op stream into one -- so a production-shaped workload can
 * be captured once and replayed bit-identically against any policy,
 * in-process or over the wire (`csrtrace` converts/inspects traces).
 *
 * Output contract, same as csrsim sweep's: the deterministic summary
 * (hits, misses, aggregate miss cost) goes to stdout and the
 * wall-clock timing (QPS, latency percentiles) to stderr, so under
 * the default --affinity shard the stdout of two runs with the same
 * seed is byte-identical for ANY --workers value -- that is what CI
 * diffs.  --affinity free drops that guarantee in exchange for real
 * lock contention (the TSan soak's mode).
 *
 * --spin makes the backend burn its simulated latency in wall-clock
 * time instead of only modelling it; determinism of the summary is
 * unaffected.
 *
 * Errors map to the usual exit codes (robust/Errors.h): 0 ok,
 * 2 ConfigError, 6 geometry, 7 invariant, 9 timeout, 11 net.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cache/PolicyFactory.h"
#include "replay/TraceWriter.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/ChaosBackend.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "serve/net/ClientLoad.h"
#include "serve/net/Server.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Tracer.h"
#include "util/CliArgs.h"
#include "util/Logging.h"

using namespace csr;
using namespace csr::serve;

namespace
{

/** Fail fast on an unwritable output path (csrsim's probe). */
void
ensureWritable(const std::string &path, const std::string &flag)
{
    if (path.empty())
        return;
    std::FILE *pre = std::fopen(path.c_str(), "rb");
    const bool existed = pre != nullptr;
    if (pre)
        std::fclose(pre);
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f)
        throw ConfigError("--" + flag + ": cannot open '" + path +
                          "' for writing");
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
}

/** RAII --trace recording session (csrsim's). */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path) : path_(path)
    {
        if (path_.empty())
            return;
#if defined(CSR_TELEMETRY_DISABLED)
        warn("built with CSR_TELEMETRY=OFF: '%s' will contain no "
             "events", path_.c_str());
#endif
        telemetry::Tracer::instance().clear();
        telemetry::setTracingEnabled(true);
    }

    ~TraceSession()
    {
        if (path_.empty())
            return;
        telemetry::setTracingEnabled(false);
        telemetry::Tracer::instance().writeChromeTrace(path_);
        inform("wrote %zu trace events to %s",
               telemetry::Tracer::instance().eventCount(), path_.c_str());
    }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    std::string path_;
};

/**
 * RAII --record capture: a replay::TraceWriter behind a mutex,
 * attached as the service's op recorder so every live get/put/del --
 * harness-driven or arriving over the wire -- lands in a .csrt trace
 * that `csrserve --replay` / `csrsim replay` can play back.  Capture
 * order is the recorder mutex's acquisition order, so the file is
 * deterministic only for single-threaded drivers (--workers 1 /
 * --net-workers 1).  Call finish() after the run (it throws on I/O
 * errors); the destructor seals best-effort on error paths.
 */
class RecordSession
{
  public:
    RecordSession(CacheService &service, const std::string &path)
        : service_(service), path_(path)
    {
        if (path_.empty())
            return;
        writer_ = std::make_unique<replay::TraceWriter>(path_);
        service_.setRecorder([this](Addr key, unsigned op) {
            std::lock_guard<std::mutex> lock(mutex_);
            replay::ReplayRecord rec;
            rec.tsNs = seq_ * 1000; // synthetic 1us monotone clock
            ++seq_;
            rec.key = key;
            rec.op = static_cast<replay::TraceOp>(op);
            rec.valueSize = 8;
            writer_->append(rec);
        });
    }

    ~RecordSession()
    {
        if (!writer_)
            return;
        service_.setRecorder({});
        try {
            writer_->finish();
        } catch (const std::exception &e) {
            warn("--record: %s", e.what());
        }
    }

    RecordSession(const RecordSession &) = delete;
    RecordSession &operator=(const RecordSession &) = delete;

    /** Detach the hook and seal the file.  @throws TraceFormatError
     *  on a failed write/close. */
    void
    finish()
    {
        if (!writer_)
            return;
        service_.setRecorder({});
        writer_->finish();
        inform("recorded %llu ops (%llu blocks) to %s",
               static_cast<unsigned long long>(
                   writer_->recordCount()),
               static_cast<unsigned long long>(writer_->blockCount()),
               path_.c_str());
        writer_.reset();
    }

  private:
    CacheService &service_;
    std::string path_;
    std::mutex mutex_;
    std::uint64_t seq_ = 0;
    std::unique_ptr<replay::TraceWriter> writer_;
};

void
usage()
{
    std::cerr
        << "usage: csrserve [--key value ...]\n"
           "  service:  --policy " << policyNamesJoined() << "\n"
        << "            --shards N (pow2) --shard-bytes N --assoc N\n"
           "            --block-bytes N --ewma-alpha F\n"
           "            --stripes auto|N (pow2 locked sub-shards; 1 =\n"
           "              the single-mutex shard, byte for byte; a read\n"
           "              hit on a busy stripe is served lock-free)\n"
           "            --inflight-wait-ms F (coalesced-miss bound;\n"
           "              0 = wait forever)\n"
           "  backend:  --fast-ns F --slow-ns F --slow-frac F\n"
           "            --jitter F --spin (burn latency for real)\n"
           "  load:     --ops N --workers N (0=hw) --qps N (0=unpaced)\n"
           "            --workload zipf|hotspot|scan|uniform --keys N\n"
           "            --zipf-theta F --hot-frac F --hot-prob F\n"
           "            --write-frac F --seed N\n"
           "            --affinity shard|free (shard = deterministic)\n"
           "            --replay T.csrt (replay a recorded trace\n"
           "              instead of the synthetic workload; --ops\n"
           "              bounds it, default = the whole trace)\n"
           "  network:  --listen HOST:PORT (RESP server until SIGTERM;\n"
           "              port 0 = ephemeral) --net-workers N (0=hw)\n"
           "            --max-conns N (0=unlimited; refuse past it)\n"
           "            --drain-ms F (graceful-drain deadline, 5000)\n"
           "            --idle-timeout-ms F --read-deadline-ms F\n"
           "              (0 disables either)\n"
           "            --shed-pending-ops N --shed-write-bytes N\n"
           "              (server-wide -BUSY watermarks; 0 disables)\n"
           "            --connect HOST:PORT (drive a remote server)\n"
           "            --connections C --pipeline W --net-timeout S\n"
           "            --expect-fresh (client: fail unless server\n"
           "              totals == ops sent)\n"
           "            --allow-errors (client: count -ERR/-BUSY\n"
           "              replies instead of failing on them)\n"
           "  breaker:  --breaker 0|1 --breaker-window N\n"
           "            --breaker-rate F --breaker-timeouts N\n"
           "            --breaker-backoff-ms F --breaker-backoff-max-ms F\n"
           "            --stale-while-broken (serve last-known values\n"
           "              while a shard's breaker is open)\n"
           "  chaos:    --chaos-rate F --chaos-seed N (deterministic\n"
           "              wire+backend fault injection)\n"
           "            --chaos-resets (enable lossy connection\n"
           "              resets; breaks the summary contract)\n"
           "  output:   --json FILE --trace FILE --metrics FILE\n"
           "            --record T.csrt (capture the live op stream\n"
           "              as a replayable trace; deterministic at\n"
           "              --workers 1 / --net-workers 1)\n"
           "            --validate (check invariants after the run)\n"
           "  exit codes: 0 ok, 2 config, 6 geometry, 7 invariant,\n"
           "              9 timeout, 11 net, 12 circuit open\n";
}

/** Emit the post-run reports every mode shares: deterministic table
 *  to stdout, timing to stderr, optional JSON and metrics files. */
void
report(const CliArgs &args, const HarnessResult &result,
       const std::string &policy, const std::string &workload,
       const std::string &title, net::NetServer *server = nullptr,
       const CacheService *service = nullptr)
{
    result.summaryTable(title).print(std::cout);
    // Timing to stderr: stdout stays byte-diffable across --workers
    // under shard affinity.
    result.timingTable().print(std::cerr);

    if (!args.jsonPath().empty()) {
        std::ofstream os(args.jsonPath());
        result.writeJsonObject(os, policy, workload);
        os << "\n";
        inform("wrote JSON to %s", args.jsonPath().c_str());
    }

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        if (service)
            service->exportMetrics(registry);
        result.exportMetrics(registry);
        if (server)
            server->exportMetrics(registry);
        if (!args.tracePath().empty())
            telemetry::Tracer::instance().exportMetrics(registry);
        registry.writeJson(args.metricsPath());
        inform("wrote metrics to %s", args.metricsPath().c_str());
    }
}

std::atomic<bool> g_shutdown{false};

void
onSignal(int)
{
    g_shutdown.store(true);
}

/** --listen: serve RESP until SIGINT/SIGTERM, then drain and
 *  summarize (both signals take the same path, so either produces
 *  the identical deterministic table). */
int
runServer(const CliArgs &args)
{
    const ServeConfig serve_config = ServeConfig::fromArgs(args);
    SyntheticBackend synthetic(
        SyntheticBackendConfig::fromArgs(args));
    net::NetServerConfig net_config =
        net::NetServerConfig::fromArgs(args);
    const double drain_ms = args.getDouble("drain-ms", 5000.0);
    if (drain_ms <= 0.0)
        throw ConfigError("--drain-ms must be positive");

    // Chaos wraps the backend only when enabled, so a --chaos-rate 0
    // run is structurally identical to one without the flags.
    Backend *backend = &synthetic;
    std::unique_ptr<ChaosBackend> chaos_backend;
    if (net_config.chaos.enabled()) {
        chaos_backend = std::make_unique<ChaosBackend>(
            synthetic, net_config.chaos);
        backend = chaos_backend.get();
    }
    CacheService service(serve_config, *backend);
    RecordSession recorder(service, args.get("record", ""));
    net::NetServer server(service, net_config);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    {
        const TraceSession session(args.tracePath());
        server.start();
        // The resolved port on stdout so a script driving port 0 can
        // scrape it; everything else to stderr.
        std::cout << "listening " << net_config.host << ":"
                  << server.port() << std::endl;
        inform("csrserve: RESP server on %s:%u (%u workers), "
               "SIGINT/SIGTERM to stop",
               net_config.host.c_str(), server.port(),
               net_config.workers ? net_config.workers : 0u);
        while (!g_shutdown.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        const net::DrainReport drained = server.drain(drain_ms);
        server.stop();
        std::cerr << "drain: " << drained.drainedConns
                  << " conns flushed (" << drained.forcedCloses
                  << " forced), " << drained.failedFetches
                  << " in-flight fetches failed, " << drained.drainMs
                  << " ms"
                  << (drained.deadlineExpired
                          ? " (DEADLINE EXPIRED)"
                          : "")
                  << "\n";
    }
    recorder.finish();
    if (args.has("validate"))
        service.checkInvariants();

    // The summary is the service's view: the same deterministic
    // totals an in-process run of the same op stream prints.  The
    // shed count is the net tier's -- the service never sees a shed
    // command, so the fold happens here.  The server has no wall
    // clock of its own to report; its op latency is the wire latency
    // (decode to reply ready).
    HarnessResult result;
    result.totals = service.totals();
    const net::NetStats net_stats = server.stats();
    result.totals.shedOps = net_stats.shedOps;
    result.opLatencyNs = net_stats.wireLatencyNs;
    result.ops = result.totals.gets + result.totals.stores;
    result.workers = net_config.workers;
    report(args, result, service.policyName(), "wire",
           "serve(net): " + service.policyName() + " / " +
               backend->describe(),
           &server);
    std::cerr << "net: " << net_stats.connectionsAccepted
              << " conns, " << net_stats.cmdGet << " GET, "
              << net_stats.cmdSet << " SET, " << net_stats.cmdDel
              << " DEL, " << net_stats.protocolErrors
              << " protocol errors, " << net_stats.bytesIn
              << " B in, " << net_stats.bytesOut << " B out\n";
    // Report first, fail second: the drain summary above is still
    // printed, but an expired deadline is a typed failure (exit 9).
    if (server.lastDrain().deadlineExpired)
        throw TimeoutError(
            "graceful drain missed its --drain-ms deadline (" +
            std::to_string(server.lastDrain().forcedCloses) +
            " connections aborted, " +
            std::to_string(server.lastDrain().failedFetches) +
            " in-flight fetches failed fast)");
    return exitcode::kOk;
}

/** --connect: drive a remote server with the deterministic stream. */
int
runClient(const CliArgs &args)
{
    const net::ClientConfig config = net::ClientConfig::fromArgs(args);
    net::ClientResult result;
    {
        const TraceSession session(args.tracePath());
        result = net::runClientLoad(config);
    }

    const std::string workload =
        config.harness.replayPath.empty()
            ? config.harness.mix.describe()
            : "replay:" + config.harness.replayPath;
    report(args, result.harness, "remote", workload,
           "serve(wire): " + config.host + ":" +
               std::to_string(config.port) + " / " + workload);
    std::cerr << "wire: sent " << result.sentGets << " GET + "
              << result.sentSets << " SET + " << result.sentDels
              << " DEL over "
              << config.connections << " connections; "
              << result.errorReplies << " error replies, "
              << result.busyReplies << " busy (shed), "
              << result.typeMismatches << " type mismatches\n";

    // --allow-errors: a chaos/overload run *expects* -ERR and -BUSY
    // replies; count them (above) instead of failing on them.  Type
    // mismatches are protocol bugs and fail regardless.
    if (result.typeMismatches)
        throw NetError(std::to_string(result.typeMismatches) +
                       " type mismatches from the server");
    if (!args.has("allow-errors") &&
        (result.errorReplies || result.busyReplies))
        throw NetError(std::to_string(result.errorReplies) +
                       " error replies and " +
                       std::to_string(result.busyReplies) +
                       " busy replies from the server "
                       "(--allow-errors to tolerate)");
    if (args.has("expect-fresh") && !result.consistentWithServer())
        throw InvariantError(
            "server totals disagree with ops sent (gets " +
            std::to_string(result.harness.totals.gets) + " vs " +
            std::to_string(result.sentGets) + ", stores " +
            std::to_string(result.harness.totals.stores) + " vs " +
            std::to_string(result.sentSets) +
            "): the server was not fresh or lost ops");
    return exitcode::kOk;
}

/** Default: the in-process load harness. */
int
runInProcess(const CliArgs &args)
{
    const ServeConfig serve_config = ServeConfig::fromArgs(args);
    SyntheticBackend backend(SyntheticBackendConfig::fromArgs(args));
    CacheService service(serve_config, backend);
    RecordSession recorder(service, args.get("record", ""));
    const HarnessConfig harness_config = HarnessConfig::fromArgs(args);

    HarnessResult result;
    {
        const TraceSession session(args.tracePath());
        result = runLoad(service, harness_config);
    }
    recorder.finish();
    if (args.has("validate"))
        service.checkInvariants();

    const std::string workload =
        harness_config.replayPath.empty()
            ? harness_config.mix.describe()
            : "replay:" + harness_config.replayPath;
    // In-process metrics keep the service's export too (the server
    // path exports through the NetServer instead).
    report(args, result, service.policyName(), workload,
           "serve: " + service.policyName() + " / " + workload + " / " +
               backend.describe(),
           nullptr, &service);
    return exitcode::kOk;
}

int
run(const CliArgs &args)
{
    ensureWritable(args.jsonPath(), "json");
    ensureWritable(args.tracePath(), "trace");
    ensureWritable(args.metricsPath(), "metrics");
    ensureWritable(args.get("record", ""), "record");

    const bool listen = args.has("listen");
    const bool connect = args.has("connect");
    if (listen && connect)
        throw ConfigError("--listen and --connect are mutually "
                          "exclusive (one process is either the "
                          "server or a client)");
    if (listen && args.has("replay"))
        throw ConfigError("--replay drives load (in-process or "
                          "--connect); a --listen server only "
                          "receives it");
    if (connect && args.has("record"))
        throw ConfigError("--record captures server-side ops; pass "
                          "it to the --listen or in-process run, "
                          "not the client");
    if (listen)
        return runServer(args);
    if (connect)
        return runClient(args);
    return runInProcess(args);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliArgs args(argc, argv, /*first=*/1,
                           /*valueless=*/{"spin", "validate",
                                          "expect-fresh",
                                          "stale-while-broken",
                                          "chaos-resets",
                                          "allow-errors"});
        if (args.helpRequested()) {
            usage();
            return exitcode::kOk;
        }
        args.requireKnown({
            "policy", "shards", "shard-bytes", "assoc", "block-bytes",
            "ewma-alpha", "fast-ns", "slow-ns", "slow-frac", "jitter",
            "spin", "ops", "workers", "qps", "workload", "keys",
            "zipf-theta", "hot-frac", "hot-prob", "write-frac",
            "affinity", "validate", "stripes",
            "replay", "record",
            "inflight-wait-ms", "listen", "net-workers", "connect",
            "connections", "pipeline", "net-timeout", "expect-fresh",
            "max-conns", "drain-ms", "idle-timeout-ms",
            "read-deadline-ms", "shed-pending-ops",
            "shed-write-bytes", "breaker", "breaker-window",
            "breaker-rate", "breaker-timeouts", "breaker-backoff-ms",
            "breaker-backoff-max-ms", "stale-while-broken",
            "chaos-rate", "chaos-seed", "chaos-resets",
            "allow-errors",
        });
        return run(args);
    } catch (const Error &e) {
        std::cerr << "csrserve: " << e.kind() << ": " << e.what()
                  << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "csrserve: " << e.what() << "\n";
        return exitcode::kGeneric;
    }
}
