/**
 * @file
 * wire_hot: an in-process NetServer with one net worker on loopback,
 * driven by the benchmark's own pipelined RESP client over one
 * connection as a closed loop at depth 32.  Zipf 0.99 over 64 Ki keys
 * with 5% SET on the default service, so nearly every GET hits and
 * the time goes to the net layers (parse, dispatch, reply, send)
 * rather than to misses and the backend.
 *
 * One connection and one net worker keep the server's execution
 * order equal to the stream order, which is what lets the run check
 * the server's counters against an in-process run of the same ops.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <memory>
#include <stdexcept>

#include "Common.h"
#include "serve/LoadHarness.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespParser.h"
#include "serve/net/Server.h"

namespace perfbench
{

namespace
{

namespace net = csr::serve::net;
using csr::serve::Op;

constexpr std::size_t kStreamOps = 1u << 20;
constexpr std::size_t kDepth = 32;
constexpr std::size_t kWarmPings = 4096;
/** Ops whose request bytes the parse measurement decodes. */
constexpr std::size_t kParseOps = 1u << 18;
/** Bytes fed to the parser at a time, about one socket read. */
constexpr std::size_t kParseChunk = 16 * 1024;

// Span buffers (Chrome "tid"s) of the traced run.
constexpr unsigned kTidWire = 0;
constexpr unsigned kTidServe = 1;
constexpr unsigned kTidCache = 2;
constexpr unsigned kTidParse = 3;

csr::serve::WorkloadMix
wireMix()
{
    csr::serve::WorkloadMix mix;
    mix.dist = csr::serve::KeyDist::Zipfian;
    mix.numKeys = 64 * 1024;
    mix.zipfTheta = 0.99;
    mix.writeFraction = 0.05;
    return mix;
}

void
appendNumber(std::string &out, std::uint64_t value)
{
    char digits[24];
    const char *end =
        std::to_chars(digits, digits + sizeof(digits), value).ptr;
    char len[8];
    const char *len_end =
        std::to_chars(len, len + sizeof(len), end - digits).ptr;
    out += '$';
    out.append(len, static_cast<std::size_t>(len_end - len));
    out += "\r\n";
    out.append(digits, static_cast<std::size_t>(end - digits));
    out += "\r\n";
}

/** @p op as a RESP multibulk command (SET carries the harness's
 *  canonical payload of the key). */
void
appendCommand(std::string &out, const Op &op, std::uint64_t seed)
{
    if (op.write) {
        out += "*3\r\n$3\r\nSET\r\n";
        appendNumber(out, op.key);
        appendNumber(out, csr::serve::harnessPayload(seed, op.key));
    } else {
        out += "*2\r\n$3\r\nGET\r\n";
        appendNumber(out, op.key);
    }
}

struct Reply
{
    char type = '\0';
    bool isNull = false;
};

/**
 * The benchmark's RESP client: a blocking loopback socket and an
 * incremental decoder for the replies NetServer sends.  Pipelining is
 * the caller's: it sends batches and decodes whatever has arrived.
 */
class WireClient
{
  public:
    explicit WireClient(std::uint16_t port)
        : fd_(::socket(AF_INET, SOCK_STREAM, 0))
    {
        if (!fd_.valid())
            throw std::runtime_error("socket: " + net::errnoText(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_.get(), reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("connect: " + net::errnoText(errno));
        const int one = 1;
        ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        // A wedged server fails the run instead of hanging it.
        const timeval timeout{10, 0};
        ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &timeout,
                     sizeof(timeout));
    }

    void
    sendAll(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_.get(), bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error("send: " + net::errnoText(errno));
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Block until more bytes arrive. */
    void
    receive()
    {
        if (pos_ == in_.size()) {
            in_.clear();
            pos_ = 0;
        } else if (pos_ > (1u << 16)) {
            in_.erase(0, pos_);
            pos_ = 0;
        }
        char buf[64 * 1024];
        for (;;) {
            const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), 0);
            if (n > 0) {
                in_.append(buf, static_cast<std::size_t>(n));
                return;
            }
            if (n == 0)
                throw std::runtime_error("server closed the connection");
            if (errno != EINTR)
                throw std::runtime_error("recv: " + net::errnoText(errno));
        }
    }

    /** Decode the next buffered reply; false when none is complete. */
    bool
    nextReply(Reply &reply)
    {
        const std::size_t eol = in_.find("\r\n", pos_);
        if (eol == std::string::npos)
            return false;
        reply.type = in_[pos_];
        reply.isNull = false;
        std::size_t next = eol + 2;
        if (reply.type == '$') {
            long long len = 0;
            const auto [ptr, ec] =
                std::from_chars(in_.data() + pos_ + 1, in_.data() + eol, len);
            if (ec != std::errc() || ptr != in_.data() + eol)
                throw std::runtime_error("malformed bulk length in reply");
            if (len < 0) {
                reply.isNull = true;
            } else {
                const std::size_t body = static_cast<std::size_t>(len) + 2;
                if (in_.size() - next < body)
                    return false;
                next += body;
            }
        } else if (reply.type != '+' && reply.type != '-' &&
                   reply.type != ':') {
            throw std::runtime_error(std::string("unexpected reply type '") +
                                     reply.type + "'");
        }
        pos_ = next;
        return true;
    }

  private:
    net::ScopedFd fd_;
    std::string in_;
    std::size_t pos_ = 0;
};

/** Exercise the connection without moving the service's counters. */
void
warmWithPings(WireClient &client)
{
    std::string out;
    for (std::size_t done = 0; done < kWarmPings; done += kDepth) {
        out.clear();
        for (std::size_t i = 0; i < kDepth; ++i)
            out += "*1\r\n$4\r\nPING\r\n";
        client.sendAll(out);
        Reply reply;
        for (std::size_t got = 0; got < kDepth;) {
            if (!client.nextReply(reply)) {
                client.receive();
                continue;
            }
            if (reply.type != '+')
                throw std::runtime_error("PING was not answered +PONG");
            ++got;
        }
    }
}

/** Everything a run needs, torn down client first. */
struct WireSetup
{
    std::vector<Op> ops;
    std::unique_ptr<csr::serve::SyntheticBackend> backend;
    std::unique_ptr<csr::serve::CacheService> service;
    std::unique_ptr<net::NetServer> server;
    std::unique_ptr<WireClient> client;
    double generateSec = 0.0;
    double startSec = 0.0;
};

std::unique_ptr<WireSetup>
setUp(std::uint64_t seed)
{
    auto s = std::make_unique<WireSetup>();
    const std::uint64_t t0 = nowNs();
    s->ops = generateOps(wireMix(), seed, kStreamOps);
    const std::uint64_t t1 = nowNs();
    s->backend =
        std::make_unique<csr::serve::SyntheticBackend>(backendConfig(seed));
    s->service = std::make_unique<csr::serve::CacheService>(
        serveConfig(seed), *s->backend);
    net::NetServerConfig config;
    config.workers = 1;
    s->server = std::make_unique<net::NetServer>(*s->service, config);
    s->server->start();
    s->client = std::make_unique<WireClient>(s->server->port());
    warmWithPings(*s->client);
    const std::uint64_t t2 = nowNs();
    s->generateSec = secondsBetween(t0, t1);
    s->startSec = secondsBetween(t1, t2);
    return s;
}

/** What one closed-loop phase measured. */
struct WirePhase
{
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t completed = 0;
    /** Error replies, wrong reply types and null GET replies. */
    std::uint64_t badReplies = 0;
    double wallSec = 0.0;
    double clientCpuSec = 0.0;
    Usage process;
    Usage client;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    /** Its CPU per op excludes the client thread. */
    Windows::Summary summary;
};

/**
 * Keep kDepth requests of the stream in flight for @p seconds: each
 * decoded reply releases the next request, and every request released
 * by one read leaves in one send().  Latency is send to reply,
 * queueing included.
 */
WirePhase
drive(WireSetup &s, HostProbe &probe, std::uint64_t seed, double seconds,
      SpanBuffer *spans)
{
    struct Pending
    {
        char verb = 'G';
        std::uint64_t sentNs = 0;
        std::uint64_t req = 0;
    };
    std::array<Pending, kDepth> ring{};
    std::size_t cursor = 0;
    std::uint64_t req = 0;
    std::size_t head = 0;
    std::size_t count = 0;
    std::size_t unsent = 0;
    std::string out;
    out.reserve(kDepth * 64);
    WirePhase p;

    const auto enqueue = [&] {
        const Op &op = s.ops[cursor];
        cursor = (cursor + 1) % s.ops.size();
        appendCommand(out, op, seed);
        ring[(head + count) % kDepth] = {op.write ? 'S' : 'G', 0, req++};
        ++count;
        ++unsent;
        ++(op.write ? p.sets : p.gets);
    };

    const net::NetStats before = s.server->stats();
    const Usage process0 = usageOfProcess();
    const Usage client0 = usageOfThread();
    const double client_cpu0 = threadCpuSec();
    const std::uint64_t start = nowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    // The server's CPU: the process's minus the client thread's.
    Windows windows(probe, [] { return processCpuSec() - threadCpuSec(); });

    const auto fill = [&] {
        while (count < kDepth)
            enqueue();
    };
    fill();
    // Stop sending at the deadline, and at the end of each slice until
    // the pipeline has drained and the host-speed probe has run.
    bool stopping = false;
    bool draining = false;
    Reply reply;
    while (count > 0) {
        if (unsent > 0) {
            const std::uint64_t t = nowNs();
            for (std::size_t k = count - unsent; k < count; ++k)
                ring[(head + k) % kDepth].sentNs = t;
            s.client->sendAll(out);
            if (spans)
                spans->record("net", "client.send", t, nowNs(), req);
            out.clear();
            unsent = 0;
        }
        const std::uint64_t r0 = nowNs();
        s.client->receive();
        const std::uint64_t now = nowNs();
        if (spans)
            spans->record("net", "client.recv", r0, now, req);
        while (s.client->nextReply(reply)) {
            if (count == 0)
                throw std::runtime_error("reply without a request");
            const Pending pending = ring[head];
            head = (head + 1) % kDepth;
            --count;
            windows.latency().add(now - pending.sentNs);
            if (spans)
                spans->record("net",
                              pending.verb == 'S' ? "wire.set" : "wire.get",
                              pending.sentNs, now, pending.req, true);
            const bool ok = pending.verb == 'S'
                                ? reply.type == '+'
                                : reply.type == '$' && !reply.isNull;
            if (!ok)
                ++p.badReplies;
            ++p.completed;
            if (!stopping && !draining)
                enqueue();
        }
        if (now >= deadline)
            stopping = true;
        else if (windows.probeDue(now))
            draining = true;
        if (draining && count == 0 && !stopping) {
            windows.probe(p.completed);
            draining = false;
            fill();
        }
    }

    const std::uint64_t end = nowNs();
    const net::NetStats after = s.server->stats();
    const Usage process1 = usageOfProcess();
    const Usage client1 = usageOfThread();
    p.wallSec = secondsBetween(start, end);
    p.clientCpuSec = threadCpuSec() - client_cpu0;
    p.process = {process1.sysSec - process0.sysSec,
                 process1.volCtxSwitches - process0.volCtxSwitches};
    p.client = {client1.sysSec - client0.sysSec,
                client1.volCtxSwitches - client0.volCtxSwitches};
    p.bytesIn = after.bytesIn - before.bytesIn;
    p.bytesOut = after.bytesOut - before.bytesOut;
    p.summary = windows.summary();
    return p;
}

/** RespParser::feed/next over the stream's own request bytes, fed
 *  in socket-read-sized chunks: median ns per command of 3 passes. */
double
parseNsPerCmd(const std::vector<Op> &ops, std::uint64_t seed,
              Report &report, SpanBuffer *spans)
{
    const std::size_t n = std::min(kParseOps, ops.size());
    std::string bytes;
    for (std::size_t i = 0; i < n; ++i)
        appendCommand(bytes, ops[i], seed);

    std::vector<double> per_cmd;
    for (int rep = 0; rep < 3; ++rep) {
        net::RespParser parser;
        net::RespCommand command;
        std::uint64_t commands = 0;
        bool broken = false;
        const std::uint64_t t0 = nowNs();
        for (std::size_t off = 0; off < bytes.size() && !broken;
             off += kParseChunk) {
            parser.feed(bytes.data() + off,
                        std::min(kParseChunk, bytes.size() - off));
            net::RespParseStatus status;
            while ((status = parser.next(command)) ==
                   net::RespParseStatus::Command)
                ++commands;
            broken = status == net::RespParseStatus::ProtocolError;
        }
        const std::uint64_t t1 = nowNs();
        spans->record("net", "net.parse", t0, t1, rep);
        report.check(!broken && commands == n,
                     "RespParser decoded " + std::to_string(commands) +
                         " of " + std::to_string(n) + " commands");
        per_cmd.push_back(static_cast<double>(t1 - t0) /
                          static_cast<double>(std::max<std::uint64_t>(
                              commands, 1)));
    }
    return median(per_cmd);
}

/** A timed phase, the server's counters, and the in-process run of
 *  the same ops they were checked against. */
struct WireRun
{
    WirePhase phase;
    net::NetStats stats;
    InProcessPass ref;
    double rssMb = 0.0;
};

/**
 * Drive @p s for @p seconds from empty caches, stop its server, and
 * check its counters against the requests sent and against an
 * in-process run of the same op sequence, so the wire run measured
 * the same program.
 */
WireRun
measure(WireSetup &s, HostProbe &probe, std::uint64_t seed, double seconds,
        SpanBuffer *wire_spans, SpanBuffer *serve_spans, Report &report)
{
    WireRun run;
    run.phase = drive(s, probe, seed, seconds, wire_spans);
    run.rssMb = peakRssMb();
    const WirePhase &p = run.phase;
    s.client.reset();
    s.server->stop();
    run.stats = s.server->stats();
    const csr::serve::ServeTotals wire = s.service->totals();

    report.attempted += p.gets + p.sets;
    report.failed += p.badReplies;
    report.check(wire.gets == p.gets && wire.stores == p.sets,
                 "server totals (" + std::to_string(wire.gets) + " gets, " +
                     std::to_string(wire.stores) + " stores) disagree with " +
                     std::to_string(p.gets) + " GETs and " +
                     std::to_string(p.sets) + " SETs sent");
    report.check(run.stats.cmdGet == p.gets && run.stats.cmdSet == p.sets,
                 "net command counters disagree with the commands sent");
    report.check(run.stats.errorReplies == 0 &&
                     run.stats.protocolErrors == 0,
                 "server sent error replies or saw protocol errors");
    run.ref = runInProcess(s.ops, seed, p.gets + p.sets, serve_spans);
    report.check(sameTotals(run.ref.atTotal, wire),
                 "wire counters differ from an in-process run of the "
                 "same stream");
    return run;
}

} // namespace

void
runWireHot(const Options &options, Report &report, SpanLog &log)
{
    // The probe runs on the client thread and the work on the server's
    // net worker, on another core, so only the core-speed kernel
    // applies.  With the lookup kernel too, ten runs' ops_per_s spread
    // 9% (quartile distance over median), against 4% unscaled.
    HostProbe probe(false);
    std::vector<double> setup_s;
    std::vector<double> generate_s;
    std::vector<double> start_s;
    std::unique_ptr<WireSetup> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        s.reset();
        setup_s.push_back(
            probe.scaledSeconds([&] { s = setUp(options.seed); }));
        generate_s.push_back(s->generateSec);
        start_s.push_back(s->startSec);
    }

    const WireRun plain =
        measure(*s, probe, options.seed,
                options.trace ? options.seconds / 2 : options.seconds,
                nullptr, nullptr, report);
    checkDeterminism(report, options.seed, [](std::uint64_t seed) {
        return serveSignature(wireMix(), seed);
    });

    // Deterministic outputs: one pass of the stream from empty caches.
    const csr::serve::ServeTotals &det = plain.ref.atStream;
    if (!options.trace) {
        report.set("setup_s", median(setup_s));
        reportTimings(report, plain.phase.summary);
        report.set("rss_mb", plain.rssMb);
        report.set("hit_ratio", det.hitRatio());
        report.set("miss_cost_ns_per_get",
                   det.missCostNs / static_cast<double>(det.gets));
        return;
    }

    // The traced phase gets a fresh server, so it starts from empty
    // caches like the untraced phase it is compared with.
    s.reset();
    s = setUp(options.seed);
    const WireRun traced =
        measure(*s, probe, options.seed, options.seconds / 2,
                &log.thread(kTidWire), &log.thread(kTidServe), report);
    const WirePhase &p = traced.phase;
    const InProcessPass &ref = traced.ref;

    const double done = static_cast<double>(p.completed);
    report.set("net.sys_us_per_op",
               (p.process.sysSec - p.client.sysSec) / done * 1e6);
    report.set("net.vol_ctx_switches_per_op",
               (p.process.volCtxSwitches - p.client.volCtxSwitches) / done);
    report.set("net.parse_ns_per_cmd",
               parseNsPerCmd(s->ops, options.seed, report,
                             &log.thread(kTidParse)));
    report.set("net.bytes_in_per_op", static_cast<double>(p.bytesIn) / done);
    report.set("net.bytes_out_per_op",
               static_cast<double>(p.bytesOut) / done);
    report.set("net.client_cpu_share", p.clientCpuSec / p.wallSec);
    report.set("net.errors",
               static_cast<double>(
                   plain.stats.errorReplies + plain.stats.protocolErrors +
                   plain.phase.badReplies + traced.stats.errorReplies +
                   traced.stats.protocolErrors + p.badReplies));

    report.set("serve.get_ns_p50", ref.getNs.percentile(0.50));
    report.set("serve.get_ns_p99", ref.getNs.percentile(0.99));
    report.set("serve.put_ns_p50", ref.putNs.percentile(0.50));
    report.set("serve.put_ns_p99", ref.putNs.percentile(0.99));
    report.set("serve.self_ns_per_op",
               static_cast<double>(ref.callNs - ref.backendNs) /
                   static_cast<double>(ref.ops));
    report.set("serve.misses", static_cast<double>(det.misses));
    report.set("serve.evictions", static_cast<double>(det.evictions));
    report.set("serve.backend_fetches",
               static_cast<double>(det.backendFetches));
    report.set("serve.coalesced_misses",
               static_cast<double>(det.coalescedMisses));
    report.set("serve.seqlock_retries",
               static_cast<double>(det.seqlockRetries));
    report.set("serve.locked_fallbacks",
               static_cast<double>(det.lockedFallbacks));
    report.set("serve.tracked_keys", static_cast<double>(det.trackedKeys));

    report.set("backend.fetch_ns_p50", ref.fetchNs.percentile(0.50));
    report.set("backend.calls_per_op",
               static_cast<double>(det.backendFetches) /
                   static_cast<double>(s->ops.size()));
    report.set("backend.modelled_ns_per_fetch",
               det.missCostNs / static_cast<double>(det.backendFetches));

    reportCacheLayer(s->ops, *s->backend, options.seed,
                     &log.thread(kTidCache), report);

    report.set("setup.generate_s", median(generate_s));
    report.set("setup.server_start_s", median(start_s));
    report.set("trace.overhead_frac",
               1.0 - p.summary.opsPerSec / plain.phase.summary.opsPerSec);
}

} // namespace perfbench
