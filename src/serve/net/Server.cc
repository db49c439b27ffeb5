#include "serve/net/Server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string_view>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "robust/Errors.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/Logging.h"
#include "util/MathUtil.h"
#include "util/Table.h"

namespace csr::serve::net
{

NetServerConfig
NetServerConfig::fromArgs(const CliArgs &args)
{
    NetServerConfig config;
    const std::string listen = args.get("listen", "");
    if (!listen.empty()) {
        const auto [host, port] = parseHostPort(listen);
        config.host = host;
        config.port = port;
    }
    config.workers = static_cast<unsigned>(
        args.getUInt("net-workers", config.workers));
    config.maxConns = static_cast<std::size_t>(
        args.getUInt("max-conns", config.maxConns));
    config.tuning.idleTimeoutMs = args.getDouble(
        "idle-timeout-ms", config.tuning.idleTimeoutMs);
    config.tuning.readDeadlineMs = args.getDouble(
        "read-deadline-ms", config.tuning.readDeadlineMs);
    config.tuning.shedPendingOps = static_cast<std::size_t>(
        args.getUInt("shed-pending-ops",
                     config.tuning.shedPendingOps));
    config.tuning.shedWriteBytes = static_cast<std::size_t>(
        args.getUInt("shed-write-bytes",
                     config.tuning.shedWriteBytes));
    config.chaos = ChaosConfig::fromArgs(args);
    config.validate();
    return config;
}

void
NetServerConfig::validate() const
{
    if (workers > 1024)
        throw ConfigError("--net-workers " + std::to_string(workers) +
                          " is absurd (accepted: 0 = one per "
                          "hardware thread, or 1-1024)");
    if (backlog <= 0)
        throw ConfigError("listen backlog must be positive");
    if (tuning.maxPendingOps == 0)
        throw ConfigError(
            "per-connection pending-op bound must be positive");
    if (tuning.writeWatermark == 0)
        throw ConfigError("write watermark must be positive");
    if (tuning.idleTimeoutMs < 0.0)
        throw ConfigError(
            "--idle-timeout-ms must be >= 0 (0 disables)");
    if (tuning.readDeadlineMs < 0.0)
        throw ConfigError(
            "--read-deadline-ms must be >= 0 (0 disables)");
    chaos.validate();
}

NetServer::NetServer(CacheService &service,
                     const NetServerConfig &config)
    : service_(service), config_(config)
{
    config_.validate();
    if (config_.workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        config_.workers = hw ? (hw > 64 ? 64u : hw) : 1u;
    }
}

NetServer::~NetServer()
{
    stop();
}

ScopedFd
NetServer::makeListener(std::uint16_t port)
{
    ScopedFd fd(::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0));
    if (!fd.valid())
        throw NetError("socket() failed: " + errnoText(errno));
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) < 0 ||
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) < 0)
        throw NetError("setsockopt(SO_REUSEPORT) failed: " +
                       errnoText(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1)
        throw ConfigError("bad listen host '" + config_.host + "'");
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        throw NetError("bind(" + config_.host + ":" +
                       std::to_string(port) +
                       ") failed: " + errnoText(errno));
    if (::listen(fd.get(), config_.backlog) < 0)
        throw NetError("listen() failed: " + errnoText(errno));
    return fd;
}

void
NetServer::start()
{
    if (running_)
        return;
    workers_.clear();
    workers_.reserve(config_.workers);
    draining_.store(false, std::memory_order_release);
    liveConns_.store(0, std::memory_order_relaxed);
    connSerial_.store(0, std::memory_order_relaxed);

    for (unsigned w = 0; w < config_.workers; ++w) {
        auto worker = std::make_unique<Worker>();
        // Worker 0 may bind port 0; everyone else binds whatever
        // the kernel resolved it to, sharing via SO_REUSEPORT.
        worker->listenFd = makeListener(w == 0 ? config_.port : port_);
        if (w == 0) {
            sockaddr_in bound{};
            socklen_t len = sizeof(bound);
            if (::getsockname(worker->listenFd.get(),
                              reinterpret_cast<sockaddr *>(&bound),
                              &len) < 0)
                throw NetError("getsockname() failed: " +
                               errnoText(errno));
            port_ = ntohs(bound.sin_port);
        }
        Worker *raw = worker.get();
        worker->loop.add(worker->listenFd.get(), EPOLLIN,
                         [this, raw](std::uint32_t) {
                             onAcceptable(*raw);
                         });
        workers_.push_back(std::move(worker));
    }

    for (auto &worker : workers_) {
        Worker *raw = worker.get();
        worker->thread = std::thread([raw] {
            try {
                raw->loop.run();
            } catch (const std::exception &e) {
                // A worker dying takes its connections with it but
                // must not take the process: report and bow out.
                warn("net worker failed: %s", e.what());
            }
        });
    }
    running_.store(true, std::memory_order_release);
}

void
NetServer::onAcceptable(Worker &worker)
{
    while (true) {
        const int fd =
            ::accept4(worker.listenFd.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            warn("accept failed: %s", errnoText(errno).c_str());
            return;
        }
        if (config_.maxConns != 0 &&
            liveConns_.load(std::memory_order_relaxed) >=
                config_.maxConns) {
            // Refuse *before* spending a Connection on it.  The reply
            // is best-effort -- a freshly accepted socket's buffer is
            // empty, so the short send virtually always lands whole.
            static const char kAtCapacity[] =
                "-ERR server at capacity\r\n";
            (void)::send(fd, kAtCapacity, sizeof(kAtCapacity) - 1,
                         MSG_NOSIGNAL);
            ::close(fd);
            worker.stats.capacityRejections.fetch_add(
                1, std::memory_order_relaxed);
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        worker.stats.connectionsAccepted.fetch_add(
            1, std::memory_order_relaxed);
        liveConns_.fetch_add(1, std::memory_order_relaxed);
        CSR_TRACE_INSTANT_V("net", "conn.accept", fd);

        const std::uint64_t serial =
            connSerial_.fetch_add(1, std::memory_order_relaxed);
        if (chaosDecide(config_.chaos, ChaosSite::DeferAccept,
                        serial)) {
            // TIMING fault: the socket sits accepted-but-unserviced
            // for 1-10 ms before its Connection exists, so the first
            // commands pile into the kernel buffer and arrive as one
            // burst.  The holder owns the fd until adoption in case
            // the loop dies with the timer still pending.
            worker.stats.chaosDeferredAccepts.fetch_add(
                1, std::memory_order_relaxed);
            const double draw = chaosDraw(
                config_.chaos, ChaosSite::DeferAccept, serial, 1);
            const std::uint64_t delayNs =
                1'000'000 +
                static_cast<std::uint64_t>(draw * 9.0e6);
            Worker *raw = &worker;
            auto holder = std::make_shared<ScopedFd>(fd);
            worker.loop.addTimer(
                delayNs, [this, raw, holder, serial] {
                    adoptConnection(*raw, holder->release(), serial);
                });
            continue;
        }
        adoptConnection(worker, fd, serial);
    }
}

void
NetServer::adoptConnection(Worker &worker, int fd,
                           std::uint64_t serial)
{
    if (draining_.load(std::memory_order_acquire)) {
        // A deferred accept can land after drain() already swept the
        // connection map; it never decoded a command, so closing it
        // unanswered keeps the one-reply-per-accepted-command
        // contract intact.
        ::close(fd);
        worker.stats.connectionsClosed.fetch_add(
            1, std::memory_order_relaxed);
        liveConns_.fetch_sub(1, std::memory_order_relaxed);
        return;
    }
    Worker *raw = &worker;
    ConnectionContext ctx{
        worker.loop,
        service_,
        config_.tuning,
        worker.stats,
        load_,
        config_.chaos,
        serial,
        [this] { return infoText(); },
        [this, raw](int closed_fd) {
            raw->conns.erase(closed_fd);
            liveConns_.fetch_sub(1, std::memory_order_relaxed);
        },
    };
    auto conn = std::make_shared<Connection>(std::move(ctx), fd);
    worker.conns.emplace(fd, conn);
    conn->open();
}

void
NetServer::stop()
{
    if (!running_.load(std::memory_order_acquire))
        return;
    for (auto &worker : workers_)
        worker->loop.stop();
    for (auto &worker : workers_)
        if (worker->thread.joinable())
            worker->thread.join();
    // Loops are quiescent now; dropping the connection maps closes
    // any sockets still open (Connection's destructor).
    for (auto &worker : workers_)
        worker->conns.clear();
    running_.store(false, std::memory_order_release);
}

DrainReport
NetServer::drain(double deadline_ms)
{
    DrainReport report;
    if (!running_.load(std::memory_order_acquire) ||
        draining_.exchange(true, std::memory_order_acq_rel)) {
        return lastDrain_;
    }
    const auto start = std::chrono::steady_clock::now();
    const auto elapsedMs = [start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    report.drainedConns =
        liveConns_.load(std::memory_order_relaxed);

    // Phase 1, on each worker's own loop thread: stop accepting and
    // start draining every connection it owns.  beginDrain() may
    // close (and erase) synchronously, so iterate over a copy.
    for (auto &worker : workers_) {
        Worker *raw = worker.get();
        raw->loop.post([raw] {
            if (raw->listenFd.valid()) {
                raw->loop.del(raw->listenFd.get());
                raw->listenFd.reset();
            }
            std::vector<std::shared_ptr<Connection>> open;
            open.reserve(raw->conns.size());
            for (auto &[fd, conn] : raw->conns)
                open.push_back(conn);
            for (auto &conn : open)
                conn->beginDrain();
        });
    }

    // Phase 2: wait for the flush to finish everywhere.
    while (liveConns_.load(std::memory_order_relaxed) != 0 &&
           elapsedMs() < deadline_ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    if (liveConns_.load(std::memory_order_relaxed) != 0) {
        // Phase 3, deadline expired.  Most stragglers are parked on
        // a backend fetch that will never finish in time: fail every
        // in-flight fetch fast (completions become -ERR replies),
        // grant a short grace to flush those, then abort the rest.
        report.deadlineExpired = true;
        report.failedFetches = service_.failInflight(
            "server draining: backend fetch abandoned at the drain "
            "deadline");
        const double graceUntilMs = elapsedMs() + 250.0;
        while (liveConns_.load(std::memory_order_relaxed) != 0 &&
               elapsedMs() < graceUntilMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));

        report.forcedCloses =
            liveConns_.load(std::memory_order_relaxed);
        for (auto &worker : workers_) {
            Worker *raw = worker.get();
            raw->loop.post([raw] {
                std::vector<std::shared_ptr<Connection>> open;
                open.reserve(raw->conns.size());
                for (auto &[fd, conn] : raw->conns)
                    open.push_back(conn);
                for (auto &conn : open)
                    conn->abort();
            });
        }
        // Aborts are synchronous once the post runs; bounded wait.
        const double abortUntilMs = elapsedMs() + 250.0;
        while (liveConns_.load(std::memory_order_relaxed) != 0 &&
               elapsedMs() < abortUntilMs)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
    }

    report.drainMs = elapsedMs();
    lastDrain_ = report;
    return report;
}

NetStats
NetServer::stats() const
{
    NetStats total;
    for (const auto &worker : workers_) {
        forEachNetCounter(
            [](const char *, const char *, std::uint64_t &sum,
               const std::atomic<std::uint64_t> &count) {
                sum += count.load(std::memory_order_relaxed);
            },
            total, worker->stats);
        if (!running_.load(std::memory_order_acquire))
            total.wireLatencyNs.merge(worker->stats.wireLatencyNs);
    }
    return total;
}

std::string
NetServer::infoText() const
{
    ServeTotals t = service_.totals();
    const NetStats n = stats();
    // The service never sheds; the net tier's count is folded in.
    t.shedOps = n.shedOps;
    // Doubles at full precision, the --json spelling, so a
    // client-side summary reproduces the server's numbers.
    std::string out = "# serve\npolicy:" + service_.policyName() + "\n";
    const auto row = [&out](const char *key, const char *,
                            const auto &v) {
        if (key)
            out += std::string(key) + ':' + TextTable::numFull(v) + '\n';
    };
    row("shards", nullptr, std::uint64_t{service_.numShards()});
    row("stripes", nullptr, std::uint64_t{service_.numStripes()});
    forEachServeCounter(row, t);
    out += "# net\n";
    forEachNetCounter(row, n);
    return out;
}

void
NetServer::exportMetrics(MetricRegistry &registry) const
{
    const NetStats n = stats();
    forEachNetCounter(
        [&registry](const char *, const char *metric,
                    std::uint64_t value) {
            registry.setCounter(metric, value);
        },
        n);
    registry.setCounter("net.drain.drained_conns",
                        lastDrain_.drainedConns);
    registry.setCounter("net.drain.forced_closes",
                        lastDrain_.forcedCloses);
    registry.setCounter("net.drain.failed_fetches",
                        lastDrain_.failedFetches);
    registry.setCounter("net.drain.deadline_expired",
                        lastDrain_.deadlineExpired ? 1 : 0);
    registry.recordTimerSec("net.drain.duration",
                            lastDrain_.drainMs / 1000.0);
    registry.mergeHistogram("net.wire_latency_ns", n.wireLatencyNs);
}

InfoTotals
parseInfoTotals(const std::string &info)
{
    // Collect every row under "<section>\n<key>" (a section header
    // under its own name), then read each wanted row out of them.
    std::map<std::string, std::string, std::less<>> rows;
    std::string section;
    std::size_t at = 0;
    while (at < info.size()) {
        std::size_t end = info.find('\n', at);
        if (end == std::string::npos)
            end = info.size();
        const std::string_view row(info.data() + at, end - at);
        at = end + 1;
        if (!row.empty() && row[0] == '#') {
            section = row;
            rows.emplace(section, "");
            continue;
        }
        const std::size_t colon = row.find(':');
        if (!section.empty() && colon != std::string_view::npos)
            rows.emplace(section + '\n' + std::string(row.substr(0, colon)),
                         row.substr(colon + 1));
    }
    const auto read = [&rows](const std::string &in, const char *key,
                              auto &&field) {
        if (!rows.count(in))
            throw NetError("INFO reply has no \"" + in + "\" section");
        const auto it = rows.find(in + '\n' + key);
        if (it == rows.end())
            throw NetError("INFO \"" + in + "\" has no '" + key + "' row");
        const std::string &text = it->second;
        const char *last = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), last, field);
        if (ec != std::errc() || ptr != last)
            throw NetError(std::string("INFO key '") + key +
                           "' has malformed value '" + text + "'");
    };

    InfoTotals t;
    // hitRatio's field is a temporary: it is checked like any row,
    // then dropped (it is derived from gets and hits).
    forEachServeCounter(
        [&read](const char *key, const char *, auto &&field) {
            read("# serve", key, field);
        },
        t.serve);
    read("# serve", "shards", t.shards);
    if (!isPow2(t.shards))
        throw NetError("INFO key 'shards' has value " +
                       std::to_string(t.shards) + ", not a power of two");
    read("# net", "cmdDel", t.cmdDel);
    return t;
}

} // namespace csr::serve::net
