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
 * GET/SET/DEL commands); driveLoad partitions it over C connections
 * by OWNING SERVER SHARD, each connection pipelines its share in
 * global stream order, and a connection's requests are executed by
 * the server in arrival order -- so every server shard sees the same
 * op subsequence in the same order as an in-process run with the
 * same flags, and the server's deterministic ServeTotals (fetched
 * via INFO at the end) are the ones `csrserve` would print locally.
 * The shard count comes from an INFO before the run; the client's
 * --seed must match the server's.
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
    /** Op stream (ops, seed, mix, affinity); workers/qps unused. */
    HarnessConfig harness;

    /**
     * Read --connect HOST:PORT --connections C --pipeline W plus the
     * shared workload flags (via HarnessConfig::fromArgs) out of
     * @p args.  validate()d.  @throws ConfigError, also on --shards:
     * the client takes the shard count from the server.
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
    /** DEL commands the server served (INFO's "# net" cmdDel). */
    std::uint64_t serverDels = 0;

    /** The server served exactly the GETs, SETs and DELs sent: true
     *  when this client was the fresh server's only traffic -- the
     *  loopback CI check. */
    bool
    consistentWithServer() const
    {
        return sentGets == harness.totals.gets &&
               sentSets == harness.totals.stores &&
               sentDels == serverDels;
    }
};

/**
 * Run @p config's op stream against the remote server.  @throws
 * ConfigError / NetError / TimeoutError.
 */
ClientResult runClientLoad(const ClientConfig &config);

} // namespace csr::serve::net

#endif // CSR_SERVE_NET_CLIENTLOAD_H
