#include "serve/net/ClientLoad.h"

#include <chrono>
#include <deque>
#include <vector>

#include "robust/Errors.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/Server.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"

namespace csr::serve::net
{

namespace
{

/** Per-connection counters, merged after the run. */
struct ConnOutput
{
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t dels = 0;
    std::uint64_t errors = 0;
    std::uint64_t busy = 0;
    std::uint64_t mismatches = 0;
};

/** The server's INFO, over a connection of its own. */
InfoTotals
fetchInfo(const ClientConfig &config)
{
    RespClient client(config.host, config.port, config.timeoutSec);
    const RespClient::Reply info = client.roundTrip({"INFO"});
    if (info.type != '$' || info.isNull)
        throw NetError("INFO did not return a bulk reply");
    return parseInfoTotals(info.text);
}

} // namespace

ClientConfig
ClientConfig::fromArgs(const CliArgs &args)
{
    if (args.has("shards"))
        throw ConfigError("--shards is a server flag: a --connect "
                          "client takes the shard count from the "
                          "server's INFO");
    ClientConfig config;
    const auto [host, port] = parseHostPort(args.get("connect", ""));
    config.host = host;
    config.port = port;
    config.connections = static_cast<unsigned>(
        args.getUInt("connections", config.connections));
    config.pipeline = args.getUInt("pipeline", config.pipeline);
    config.timeoutSec =
        args.getDouble("net-timeout", config.timeoutSec);
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
    harness.validate();
}

ClientResult
runClientLoad(const ClientConfig &config)
{
    config.validate();

    std::vector<ConnOutput> outputs(config.connections);
    const auto conn_fn = [&](std::size_t c, const std::vector<Op> &run,
                             PartLatency &latency) {
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
            latency.opLatencyNs.add(
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

        for (const Op &op : run) {
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

    // The partition key is the server's own shard count, so each
    // shard's subsequence arrives in global stream order over exactly
    // one connection.
    ClientResult result;
    result.harness = driveLoad(config.harness, fetchInfo(config).shards,
                               config.connections, conn_fn);
    for (const ConnOutput &out : outputs) {
        result.sentGets += out.gets;
        result.sentSets += out.sets;
        result.sentDels += out.dels;
        result.errorReplies += out.errors;
        result.busyReplies += out.busy;
        result.typeMismatches += out.mismatches;
    }

    // The deterministic half of the report is the server's: INFO over
    // one more connection, parsed back into ServeTotals.
    const InfoTotals info = fetchInfo(config);
    result.harness.totals = info.serve;
    result.serverDels = info.cmdDel;
    return result;
}

} // namespace csr::serve::net
