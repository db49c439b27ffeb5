/**
 * @file
 * Network client mode of the load harness: replay the SAME
 * deterministic op stream an in-process run uses, but over RESP
 * connections to a remote NetServer.
 *
 * The comparability contract extends the harness's shard-affinity
 * discipline across the wire.  The op stream is a pure function of
 * (mix, seed) -- or of a recorded .csrt trace's bytes with --replay
 * (HarnessConfig::replayPath; Get/Set/Del records become
 * GET/SET/DEL commands); ops are partitioned over C connections by
 * OWNING SERVER SHARD (shard % C), each connection pipelines its
 * share in global stream order, and a connection's requests are
 * executed by the server in arrival order -- so every server shard
 * sees the same op subsequence in the same order as an in-process
 * run with the same flags, and the server's deterministic
 * ServeTotals (fetched via INFO at the end) are the ones `csrserve`
 * would print locally.  That requires the client's --shards and
 * --seed to match the server's, which the driver forwards.
 */

#ifndef CSR_SERVE_NET_CLIENTLOAD_H
#define CSR_SERVE_NET_CLIENTLOAD_H

#include <cstdint>
#include <string>

#include "serve/LoadHarness.h"

namespace csr::serve::net
{

/** Client-mode parameters. */
struct ClientConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Concurrent connections, each on its own thread. */
    unsigned connections = 2;
    /** In-flight request window per connection. */
    std::size_t pipeline = 64;
    /** Socket timeout per read/connect; 0 = unbounded. */
    double timeoutSec = 30.0;
    /** The server's shard count -- the partition key (must match the
     *  server for the determinism contract to hold). */
    unsigned serverShards = 8;
    /** Op stream (ops, seed, mix); workers/qps/affinity unused. */
    HarnessConfig harness;

    /**
     * Read --connect HOST:PORT --connections C --pipeline W plus the
     * shared workload flags (via HarnessConfig::fromArgs) and
     * --shards out of @p args.  validate()d.  @throws ConfigError.
     */
    static ClientConfig fromArgs(const CliArgs &args);

    /** @throws ConfigError on a zero port/connection/window. */
    void validate() const;
};

/** What a client-mode run produced. */
struct ClientResult
{
    /** totals come from the server's INFO; latency histograms are
     *  measured client-side (send-to-reply, queuing included). */
    HarnessResult harness;
    std::uint64_t sentGets = 0;
    std::uint64_t sentSets = 0;
    std::uint64_t sentDels = 0;
    /** '-ERR' replies (0 in a healthy run). */
    std::uint64_t errorReplies = 0;
    /** '-BUSY' replies -- the server shed those commands under
     *  overload; counted apart from errors because the client
     *  contract says they are retryable, not broken. */
    std::uint64_t busyReplies = 0;
    /** Replies whose type did not match the verb (0 expected). */
    std::uint64_t typeMismatches = 0;

    /** sentGets == server gets && sentSets == server stores: true
     *  exactly when this client was the fresh server's only
     *  traffic -- the loopback CI check. */
    bool
    consistentWithServer() const
    {
        return sentGets == harness.totals.gets &&
               sentSets == harness.totals.stores;
    }
};

/** The shard the server will route @p key to (replicates
 *  CacheService::shardOf for a @p shards -shard server). */
unsigned wireShardOf(Addr key, unsigned shards);

/**
 * Run @p config's op stream against the remote server.  @throws
 * ConfigError / NetError / TimeoutError.
 */
ClientResult runClientLoad(const ClientConfig &config);

} // namespace csr::serve::net

#endif // CSR_SERVE_NET_CLIENTLOAD_H
