#include "serve/net/ClientLoad.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "replay/ForEachRecord.h"
#include "robust/Errors.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/Server.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/MathUtil.h"
#include "util/Random.h"

namespace csr::serve::net
{

namespace
{

/** Per-connection accumulators, merged after the threads join. */
struct ConnOutput
{
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t dels = 0;
    std::uint64_t errors = 0;
    std::uint64_t busy = 0;
    std::uint64_t mismatches = 0;
    Histogram opLatencyNs;
};

} // namespace

unsigned
wireShardOf(Addr key, unsigned shards)
{
    if (shards == 1)
        return 0;
    const unsigned shift =
        64u - static_cast<unsigned>(floorLog2(shards));
    return static_cast<unsigned>(hashMix64(key) >> shift);
}

ClientConfig
ClientConfig::fromArgs(const CliArgs &args)
{
    ClientConfig config;
    const auto [host, port] = parseHostPort(args.get("connect", ""));
    config.host = host;
    config.port = port;
    config.connections = static_cast<unsigned>(
        args.getUInt("connections", config.connections));
    config.pipeline = args.getUInt("pipeline", config.pipeline);
    config.timeoutSec =
        args.getDouble("net-timeout", config.timeoutSec);
    config.serverShards = static_cast<unsigned>(
        args.getUInt("shards", config.serverShards));
    config.harness = HarnessConfig::fromArgs(args);
    config.validate();
    return config;
}

void
ClientConfig::validate() const
{
    if (port == 0)
        throw ConfigError("--connect needs an explicit port (the "
                          "server prints its resolved one)");
    if (connections == 0)
        throw ConfigError("--connections must be at least 1");
    if (pipeline == 0)
        throw ConfigError("--pipeline must be at least 1");
    if (timeoutSec < 0.0)
        throw ConfigError("--net-timeout must be non-negative");
    // Plumb-through check: SO_RCVTIMEO rounds a positive-but-tiny
    // bound down to zero microseconds, which the kernel reads as
    // "no timeout" -- the exact opposite of what was asked for.
    if (timeoutSec > 0.0 && timeoutSec < 1.0e-3)
        throw ConfigError(
            "--net-timeout must be 0 (unbounded) or >= 0.001 s; " +
            std::to_string(timeoutSec) +
            " would silently become unbounded");
    if (serverShards == 0 ||
        (serverShards & (serverShards - 1)) != 0)
        throw ConfigError("--shards must be a power of two (it is "
                          "the wire partition key)");
    harness.validate();
}

ClientResult
runClientLoad(const ClientConfig &config)
{
    config.validate();

    // Same stream, same order as runLoad() -- then partitioned by
    // owning server shard so each shard's subsequence arrives in
    // global stream order over exactly one connection.
    std::uint64_t total_ops = config.harness.ops;
    std::vector<std::vector<Op>> plan(config.connections);
    const auto place = [&](const Op &op) {
        plan[wireShardOf(op.key, config.serverShards) %
             config.connections]
            .push_back(op);
    };
    if (config.harness.replayPath.empty()) {
        CSR_TRACE_SPAN("net", "client.generate");
        KeyGenerator gen(config.harness.mix, config.harness.seed);
        for (std::uint64_t i = 0; i < total_ops; ++i)
            place(gen.next());
    } else {
        CSR_TRACE_SPAN("net", "client.load_trace");
        replay::TraceReader reader(config.harness.replayPath);
        total_ops = replay::recordsWithin(reader, config.harness.ops);
        replay::forEachRecord(
            reader, total_ops, [&](Addr key, replay::TraceOp op) {
                place(Op{key, op == replay::TraceOp::Set,
                         op == replay::TraceOp::Del});
            });
    }

    std::vector<ConnOutput> outputs(config.connections);

    // Worker threads may throw (refused connect, timeout); the first
    // exception wins and is rethrown on the caller's thread.
    std::exception_ptr failure;
    std::atomic<bool> failed{false};

    const auto conn_fn = [&](std::size_t c) {
        CSR_TRACE_SPAN_DYN("net", "client conn " + std::to_string(c));
        using Clock = std::chrono::steady_clock;
        ConnOutput &out = outputs[c];
        RespClient client(config.host, config.port,
                          config.timeoutSec);
        std::deque<std::pair<char, Clock::time_point>> window;

        const auto drainOne = [&] {
            const RespClient::Reply reply = client.readReply();
            const auto [verb, sent_at] = window.front();
            window.pop_front();
            out.opLatencyNs.add(
                std::chrono::duration<double, std::nano>(
                    Clock::now() - sent_at)
                    .count());
            if (reply.isError()) {
                if (reply.text.rfind("BUSY", 0) == 0)
                    ++out.busy;
                else
                    ++out.errors;
                return;
            }
            // SET replies +OK, DEL replies :0/:1, GET replies a
            // non-null bulk (a replayed GET may legitimately miss a
            // deleted key, but the server still fetches and returns
            // it -- a null bulk is a protocol bug).
            const bool ok = verb == 'S'
                                ? reply.type == '+'
                                : verb == 'D'
                                      ? reply.type == ':'
                                      : (reply.type == '$' &&
                                         !reply.isNull);
            if (!ok)
                ++out.mismatches;
        };

        for (const Op &op : plan[c]) {
            char verb = 'G';
            if (op.del) {
                client.send({"DEL", std::to_string(op.key)});
                ++out.dels;
                verb = 'D';
            } else if (op.write) {
                client.send({"SET", std::to_string(op.key),
                             std::to_string(harnessPayload(
                                 config.harness.seed, op.key))});
                ++out.sets;
                verb = 'S';
            } else {
                client.send({"GET", std::to_string(op.key)});
                ++out.gets;
            }
            window.emplace_back(verb, Clock::now());
            client.flush();
            while (window.size() >= config.pipeline)
                drainOne();
        }
        client.flush();
        while (!window.empty())
            drainOne();
    };

    WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(config.connections);
    for (unsigned c = 0; c < config.connections; ++c) {
        threads.emplace_back([&, c] {
            try {
                conn_fn(c);
            } catch (...) {
                if (!failed.exchange(true))
                    failure = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (failed.load())
        std::rethrow_exception(failure);

    ClientResult result;
    result.harness.wallSec = wall.elapsedSec();
    result.harness.ops = total_ops;
    result.harness.workers = config.connections;
    result.harness.qps =
        result.harness.wallSec > 0.0
            ? static_cast<double>(total_ops) /
                  result.harness.wallSec
            : 0.0;
    for (const ConnOutput &out : outputs) {
        result.harness.opLatencyNs.merge(out.opLatencyNs);
        result.sentGets += out.gets;
        result.sentSets += out.sets;
        result.sentDels += out.dels;
        result.errorReplies += out.errors;
        result.busyReplies += out.busy;
        result.typeMismatches += out.mismatches;
    }

    // The deterministic half of the report is the server's: INFO over
    // one more connection, parsed back into ServeTotals.
    RespClient info_client(config.host, config.port,
                           config.timeoutSec);
    const RespClient::Reply info = info_client.roundTrip({"INFO"});
    if (info.type != '$' || info.isNull)
        throw NetError("INFO did not return a bulk reply");
    result.harness.totals = parseInfoTotals(info.text);
    return result;
}

} // namespace csr::serve::net
