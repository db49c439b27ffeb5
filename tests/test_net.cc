/**
 * @file
 * csr::serve::net tests: the RESP parser against hostile and split
 * input (table-driven, no sockets), the event-loop post/wake
 * machinery, the async Backend/CacheService surfaces, the
 * waiter-side inflight timeout, and a real loopback server driven
 * by RespClient and by the client-mode load harness.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <typeinfo>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "ServeTestBackend.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "serve/net/ClientLoad.h"
#include "serve/net/EventLoop.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/RespParser.h"
#include "serve/net/Server.h"
#include "util/CliArgs.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;
using namespace csr::serve::net;

namespace
{

/** Feed the whole input at once and drain every command. */
std::vector<RespCommand>
parseAll(RespParser &parser, const std::string &input,
         RespParseStatus &final_status)
{
    parser.feed(input.data(), input.size());
    std::vector<RespCommand> commands;
    RespCommand cmd;
    while (true) {
        final_status = parser.next(cmd);
        if (final_status != RespParseStatus::Command)
            return commands;
        commands.push_back(cmd);
    }
}

ServeConfig
tinyServeConfig()
{
    ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.policy = PolicyKind::Acl;
    return config;
}

} // namespace

// ---------------------------------------------------------------------------
// RespParser -- table-driven protocol cases
// ---------------------------------------------------------------------------

TEST(NetRespParser, DecodesWellFormedAndRejectsMalformed)
{
    struct Case
    {
        const char *name;
        std::string input;
        // Expected commands as flat argv lists; empty = none.
        std::vector<std::vector<std::string>> commands;
        bool protocolError;
    };

    const std::vector<Case> cases = {
        {"simple multibulk",
         "*2\r\n$3\r\nGET\r\n$2\r\n17\r\n",
         {{"GET", "17"}},
         false},
        {"pipelined multibulk",
         "*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv"
         "\r\n",
         {{"PING"}, {"SET", "k", "v"}},
         false},
        {"empty bulk argument",
         "*2\r\n$3\r\nGET\r\n$0\r\n\r\n",
         {{"GET", ""}},
         false},
        {"binary-safe bulk",
         std::string("*2\r\n$3\r\nGET\r\n$4\r\na\r\nb\r\n", 23),
         {{"GET", std::string("a\r\nb", 4)}},
         false},
        {"inline command",
         "PING\r\n",
         {{"PING"}},
         false},
        {"inline with arguments and padding",
         "  SET   key\t value \r\n",
         {{"SET", "key", "value"}},
         false},
        {"blank inline lines are skipped",
         "\r\n\r\nPING\r\n",
         {{"PING"}},
         false},
        {"mixed inline and multibulk",
         "PING\r\n*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n",
         {{"PING"}, {"DEL", "k"}},
         false},
        {"zero-element array",
         "*0\r\n",
         {},
         true},
        {"negative array count",
         "*-1\r\n",
         {},
         true},
        {"non-numeric array count",
         "*x\r\n",
         {},
         true},
        {"array count overflow",
         "*99999999999999999999999\r\n",
         {},
         true},
        {"wrong element prefix",
         "*1\r\n+PING\r\n",
         {},
         true},
        {"non-numeric bulk length",
         "*1\r\n$abc\r\n",
         {},
         true},
        {"negative bulk length",
         "*1\r\n$-1\r\n",
         {},
         true},
        {"bulk payload missing CRLF",
         "*1\r\n$4\r\nPINGxx",
         {},
         true},
        {"good then garbage still yields the good one",
         "*1\r\n$4\r\nPING\r\n*1\r\n$oops\r\n",
         {{"PING"}},
         true},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        RespParser parser;
        RespParseStatus status = RespParseStatus::NeedMore;
        const auto commands = parseAll(parser, c.input, status);
        ASSERT_EQ(commands.size(), c.commands.size());
        for (std::size_t i = 0; i < commands.size(); ++i)
            EXPECT_EQ(commands[i].argv, c.commands[i]);
        if (c.protocolError) {
            EXPECT_EQ(status, RespParseStatus::ProtocolError);
            EXPECT_FALSE(parser.error().empty());
            // Latched: more input cannot resurrect the stream.
            parser.feed("PING\r\n", 6);
            RespCommand cmd;
            EXPECT_EQ(parser.next(cmd),
                      RespParseStatus::ProtocolError);
        } else {
            EXPECT_EQ(status, RespParseStatus::NeedMore);
        }
    }
}

TEST(NetRespParser, ReassemblesFramesSplitAtEveryByte)
{
    const std::string frame =
        "*3\r\n$3\r\nSET\r\n$6\r\nkey:42\r\n$5\r\n12345\r\n";
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        RespParser parser;
        RespCommand cmd;
        parser.feed(frame.data(), cut);
        // Nothing complete yet unless the cut is at the very end.
        EXPECT_EQ(parser.next(cmd), RespParseStatus::NeedMore)
            << "cut at " << cut;
        parser.feed(frame.data() + cut, frame.size() - cut);
        ASSERT_EQ(parser.next(cmd), RespParseStatus::Command)
            << "cut at " << cut;
        const std::vector<std::string> expect{"SET", "key:42",
                                              "12345"};
        EXPECT_EQ(cmd.argv, expect);
        EXPECT_EQ(parser.buffered(), 0u);
    }
}

TEST(NetRespParser, EnforcesEveryConfiguredLimit)
{
    RespLimits limits;
    limits.maxBulkBytes = 8;
    limits.maxArrayElements = 3;
    limits.maxInlineBytes = 16;

    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string big = "*1\r\n$9\r\n";
        parser.feed(big.data(), big.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
        EXPECT_NE(parser.error().find("exceeds limit"),
                  std::string::npos);
    }
    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string wide = "*4\r\n";
        parser.feed(wide.data(), wide.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
    }
    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string runaway(17, 'a'); // no CRLF in sight
        parser.feed(runaway.data(), runaway.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
    }
    {
        // At the limits, everything still parses.
        RespParser parser(limits);
        RespCommand cmd;
        const std::string ok =
            "*3\r\n$8\r\nabcdefgh\r\n$1\r\nx\r\n$0\r\n\r\n";
        parser.feed(ok.data(), ok.size());
        ASSERT_EQ(parser.next(cmd), RespParseStatus::Command);
        EXPECT_EQ(cmd.argv[0], "abcdefgh");
    }
}

// ---------------------------------------------------------------------------
// NetCommon -- address grammar
// ---------------------------------------------------------------------------

TEST(NetCommonTest, ParsesAndRejectsHostPortSpecs)
{
    const auto [h1, p1] = parseHostPort("127.0.0.1:7411");
    EXPECT_EQ(h1, "127.0.0.1");
    EXPECT_EQ(p1, 7411);
    const auto [h2, p2] = parseHostPort(":0");
    EXPECT_EQ(h2, "127.0.0.1");
    EXPECT_EQ(p2, 0);

    EXPECT_THROW(parseHostPort("no-port-here"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:99999"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:abc"), ConfigError);
    EXPECT_THROW(parseHostPort("not.a.host:80"), ConfigError);
}

// ---------------------------------------------------------------------------
// EventLoop -- post/wake machinery
// ---------------------------------------------------------------------------

TEST(NetEventLoop, PostedClosuresRunOnTheLoopThread)
{
    EventLoop loop;
    std::thread runner([&loop] { loop.run(); });

    std::atomic<int> ran{0};
    std::atomic<bool> on_loop_thread{false};
    std::mutex mutex;
    std::condition_variable cv;
    for (int i = 0; i < 100; ++i)
        loop.post([&] {
            on_loop_thread.store(loop.inLoopThread());
            if (ran.fetch_add(1) + 1 == 100) {
                std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return ran.load() == 100; });
    }
    EXPECT_TRUE(on_loop_thread.load());
    EXPECT_FALSE(loop.inLoopThread());
    loop.stop();
    runner.join();
}

// ---------------------------------------------------------------------------
// Async Backend + CacheService surfaces
// ---------------------------------------------------------------------------

namespace
{

/** What one get delivered: its result, or its error's type and text. */
struct Delivered
{
    ServeOpResult result;
    std::string error;

    auto
    fields() const
    {
        return std::make_tuple(error, result.hit, result.value,
                               result.backendNs);
    }
};

std::string
describe(const std::exception_ptr &error)
{
    if (!error)
        return "";
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return std::string(typeid(e).name()) + ": " + e.what();
    }
}

Delivered
viaGet(CacheService &service, Addr key)
{
    Delivered out;
    try {
        out.result = service.get(key);
    } catch (...) {
        out.error = describe(std::current_exception());
    }
    return out;
}

/** getAsync, filling @p out whenever the callback runs. */
void
viaGetAsync(CacheService &service, Addr key, std::optional<Delivered> &out)
{
    service.getAsync(key, [&out](const ServeOpResult &result,
                                 std::exception_ptr error) {
        out = Delivered{result, describe(error)};
    });
}

/** Every ServeTotals field the get protocol moves. */
auto
getTotals(const ServeTotals &t)
{
    return std::make_tuple(t.gets, t.hits, t.misses, t.evictions,
                           t.trackedKeys, t.missCostNs, t.backendFetches,
                           t.coalescedMisses, t.breakerOpens,
                           t.breakerFastFails, t.staleServes);
}

} // namespace

TEST(NetAsyncBackend, DefaultAdapterCompletesInline)
{
    ScriptedBackend backend;
    bool completed = false;
    backend.fetchAsync(17, 0,
                       [&](const BackendResult &result,
                           std::exception_ptr error) {
                           EXPECT_EQ(error, nullptr);
                           EXPECT_EQ(result.value, backend.valueOf(17));
                           completed = true;
                       });
    EXPECT_TRUE(completed);

    backend.failNext.store(true);
    bool failed = false;
    backend.fetchAsync(
        17, 0,
        [&](const BackendResult &, std::exception_ptr error) {
            ASSERT_NE(error, nullptr);
            EXPECT_THROW(std::rethrow_exception(error),
                         InjectedFaultError);
            failed = true;
        });
    EXPECT_TRUE(failed);
}

/**
 * get() and getAsync() share one protocol and differ only in how they
 * wait and fetch, so every branch of it -- hit, leader fetch, coalesced
 * join, leader crash, breaker fail-fast with and without a stale value
 * -- must deliver the same results, errors and totals through both.
 */
TEST(NetAsyncService, GetAsyncMatchesGetOpByOp)
{
    for (const bool stale : {false, true}) {
        SCOPED_TRACE(stale ? "stale-while-broken" : "fail-fast");
        ServeConfig config = tinyServeConfig();
        config.shards = 1; // one breaker sees every fetch
        config.breaker.windowOps = 2;
        config.breaker.minSamples = 2;
        config.breaker.failureRateThreshold = 1.0; // two in a row
        config.breaker.backoffInitialMs = 60'000.0;
        config.breaker.backoffMaxMs = 60'000.0;
        config.breaker.staleWhileBroken = stale;
        ScriptedBackend sync_backend, async_backend;
        CacheService sync_service(config, sync_backend);
        CacheService async_service(config, async_backend);

        const auto both = [&](Addr key, const std::string &what) {
            const Delivered want = viaGet(sync_service, key);
            std::optional<Delivered> got;
            viaGetAsync(async_service, key, got);
            ASSERT_TRUE(got) << what; // unheld: completes inline
            EXPECT_EQ(got->fields(), want.fields()) << what;
        };

        // Hits and leader fetches, with evictions.
        Rng rng(42);
        for (int i = 0; i < 5000; ++i)
            both(rng.next() % 512, "op " + std::to_string(i));

        // A known value that is no longer resident.
        constexpr Addr kStale = 1005;
        both(kStale, "stale key fill");
        ASSERT_TRUE(sync_service.del(kStale));
        ASSERT_TRUE(async_service.del(kStale));

        // A second get of a key whose leader's fetch is held joins it.
        constexpr Addr kJoin = 1003;
        Delivered lead, join;
        const std::uint64_t calls = sync_backend.calls();
        sync_backend.hold();
        std::thread leader([&] { lead = viaGet(sync_service, kJoin); });
        sync_backend.awaitCalls(calls + 1);
        std::thread joiner([&] { join = viaGet(sync_service, kJoin); });
        while (sync_service.totals().coalescedMisses == 0)
            std::this_thread::yield();
        sync_backend.release();
        leader.join();
        joiner.join();
        std::optional<Delivered> async_lead, async_join;
        async_backend.hold();
        viaGetAsync(async_service, kJoin, async_lead);
        viaGetAsync(async_service, kJoin, async_join);
        EXPECT_FALSE(async_lead || async_join);
        async_backend.release();
        ASSERT_TRUE(async_lead && async_join);
        EXPECT_EQ(async_lead->fields(), lead.fields());
        EXPECT_EQ(async_join->fields(), join.fields());

        // Two leader crashes in a row; the second trips the breaker.
        for (const Addr key : {1001, 1002}) {
            sync_backend.failNext = true;
            async_backend.failNext = true;
            both(key, "crash on " + std::to_string(key));
        }
        ASSERT_EQ(async_service.breakerOf(0).state(),
                  CircuitBreaker::State::Open);

        // Open: a resident key still hits, the known one is served
        // stale or refused, an unknown one is refused.
        both(kJoin, "hit while open");
        both(kStale, "known key while open");
        both(1004, "unknown key while open");

        const ServeTotals totals = async_service.totals();
        EXPECT_EQ(getTotals(totals), getTotals(sync_service.totals()));
        EXPECT_EQ(totals.coalescedMisses, 1u);
        EXPECT_EQ(totals.breakerOpens, 1u);
        EXPECT_EQ(totals.breakerFastFails, 2u);
        EXPECT_EQ(totals.staleServes, stale ? 1u : 0u);
    }
}

TEST(ServeInflightTimeout, WaiterTimesOutWithTypedErrorNotForever)
{
    ScriptedBackend backend;
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.inflightWaitMs = 50.0; // waiters give up fast
    CacheService service(config, backend);

    constexpr Addr kKey = 99;
    backend.hold();
    std::thread leader([&] {
        // Blocks inside the held fetch until release().
        const ServeOpResult result = service.get(kKey);
        EXPECT_EQ(result.value, backend.valueOf(kKey));
    });
    backend.awaitCalls(1);

    // A coalesced waiter must come back with TimeoutError, not park
    // forever on the wedged leader.
    EXPECT_THROW(service.get(kKey), TimeoutError);

    backend.release();
    leader.join();

    // The flight completed after the timeout; the key now hits.
    const ServeOpResult after = service.get(kKey);
    EXPECT_TRUE(after.hit);
    EXPECT_EQ(backend.calls(), 1u);
}

TEST(ServeInflightTimeout, ConfigRejectsNegativeWait)
{
    ServeConfig config = tinyServeConfig();
    config.inflightWaitMs = -1.0;
    EXPECT_THROW(config.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// Loopback end-to-end
// ---------------------------------------------------------------------------

TEST(NetServeLoopback, CommandsRoundTripAgainstARealServer)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 5;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);

    NetServerConfig net_config; // port 0: ephemeral
    net_config.workers = 2;
    NetServer server(service, net_config);
    server.start();
    ASSERT_NE(server.port(), 0);

    RespClient client("127.0.0.1", server.port(), 10.0);

    // PING both ways.
    EXPECT_EQ(client.roundTrip({"PING"}).text, "PONG");
    EXPECT_EQ(client.roundTrip({"PING", "hello"}).text, "hello");

    // A GET is read-through: the decimal key's value is the
    // deterministic synthetic payload.
    const auto got = client.roundTrip({"GET", "12345"});
    EXPECT_EQ(got.type, '$');
    EXPECT_EQ(got.text, std::to_string(backend.valueOf(12345)));

    // SET then GET returns the stored value; DEL evicts it and the
    // next GET refetches the backend payload.
    EXPECT_EQ(client.roundTrip({"SET", "777", "424242"}).type, '+');
    EXPECT_EQ(client.roundTrip({"GET", "777"}).text, "424242");
    EXPECT_EQ(client.roundTrip({"DEL", "777"}).integer, 1);
    EXPECT_EQ(client.roundTrip({"DEL", "777"}).integer, 0);
    EXPECT_EQ(client.roundTrip({"GET", "777"}).text,
              std::to_string(backend.valueOf(777)));

    // Non-numeric keys hash to a stable Addr: SET/GET agree.
    EXPECT_EQ(client.roundTrip({"SET", "user:alice", "7"}).type, '+');
    EXPECT_EQ(client.roundTrip({"GET", "user:alice"}).text, "7");

    // Errors: arity, unknown verbs, non-numeric values.
    EXPECT_TRUE(client.roundTrip({"GET"}).isError());
    EXPECT_TRUE(client.roundTrip({"FLUSHALL"}).isError());
    EXPECT_TRUE(client.roundTrip({"SET", "1", "not-a-number"})
                    .isError());

    // Pipelining: many GETs in one write, replies in order.
    constexpr int kPipelined = 200;
    for (int i = 0; i < kPipelined; ++i)
        client.send({"GET", std::to_string(1000 + i)});
    client.flush();
    for (int i = 0; i < kPipelined; ++i) {
        const auto reply = client.readReply();
        ASSERT_EQ(reply.type, '$') << "reply " << i;
        // Every one of these keys was cold or warmed by this loop;
        // either way the value is the canonical payload.
        EXPECT_EQ(reply.text,
                  std::to_string(backend.valueOf(
                      static_cast<Addr>(1000 + i))))
            << "reply " << i;
    }

    // INFO parses back into the service's own totals.
    const auto info = client.roundTrip({"INFO"});
    ASSERT_EQ(info.type, '$');
    const InfoTotals parsed = parseInfoTotals(info.text);
    const ServeTotals live = service.totals();
    EXPECT_EQ(parsed.serve, live);
    EXPECT_GT(parsed.serve.gets, 0u);
    EXPECT_EQ(parsed.shards, service.numShards());
    EXPECT_NE(info.text.find("\nsends:"), std::string::npos);

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_GE(stats.connectionsAccepted, 1u);
    EXPECT_GT(stats.cmdGet, 0u);
    EXPECT_GT(stats.cmdSet, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_GT(stats.bytesIn, 0u);
    EXPECT_GT(stats.bytesOut, 0u);
    EXPECT_GT(stats.sends, 0u);
    EXPECT_GT(stats.wireLatencyNs.totalCount(), 0u);
}

namespace
{

/** A blocking loopback socket connected to @p port; -1 on failure. */
int
loopbackSocket(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
}

/** Write raw bytes to a fresh loopback socket and slurp everything
 *  the server says until it hangs up. */
std::string
rawExchange(std::uint16_t port, const std::string &bytes)
{
    const int fd = loopbackSocket(port);
    if (fd < 0)
        return "";
    sendAll(fd, bytes);
    std::string reply;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // EOF: the server hung up, as promised
        reply.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

} // namespace

TEST(NetServeLoopback, ProtocolErrorGetsAReplyThenTheBoot)
{
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);

    NetServerConfig net_config;
    NetServer server(service, net_config);
    server.start();

    // A multibulk with a garbage bulk length: the server must answer
    // -ERR Protocol error and then close the connection (recv above
    // drains to EOF, so getting the reply back proves both halves).
    const std::string reply =
        rawExchange(server.port(), "*1\r\n$oops\r\n");
    EXPECT_EQ(reply.rfind("-ERR Protocol error", 0), 0u) << reply;

    // A healthy connection still works afterwards.
    RespClient client("127.0.0.1", server.port(), 10.0);
    EXPECT_EQ(client.roundTrip({"PING"}).text, "PONG");

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
}

namespace
{

std::string
getFrame(Addr key)
{
    const std::string k = std::to_string(key);
    return "*2\r\n$3\r\nGET\r\n$" + std::to_string(k.size()) + "\r\n" +
           k + "\r\n";
}

std::string
bulkFrame(std::uint64_t value)
{
    const std::string v = std::to_string(value);
    return "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
}

} // namespace

TEST(NetServeLoopback, PipelinedHitsLeaveInOneSend)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(tinyServeConfig(), backend);
    NetServer server(service, NetServerConfig{});
    server.start();

    RespClient client("127.0.0.1", server.port(), 10.0);
    constexpr int kKeys = 64;
    for (int i = 0; i < kKeys; ++i)
        ASSERT_EQ(client.roundTrip({"GET", std::to_string(i)}).type, '$');

    // Every reply of one decoded batch of hits leaves in one send(2);
    // one send per reply would count 64.
    const std::uint64_t hitsBefore = service.totals().hits;
    const std::uint64_t sendsBefore = server.stats().sends;
    for (int i = 0; i < kKeys; ++i)
        client.send({"GET", std::to_string(i)});
    client.flush();
    for (int i = 0; i < kKeys; ++i) {
        const auto reply = client.readReply();
        ASSERT_EQ(reply.type, '$') << "reply " << i;
        EXPECT_EQ(reply.text,
                  std::to_string(backend.valueOf(static_cast<Addr>(i))))
            << "reply " << i;
    }
    EXPECT_EQ(service.totals().hits - hitsBefore,
              static_cast<std::uint64_t>(kKeys));
    EXPECT_LE(server.stats().sends - sendsBefore, 2u);
    server.stop();
}

TEST(NetServeLoopback, HeldMissAtPipelineHeadHoldsEveryReply)
{
    ScriptedBackend backend;
    CacheService service(tinyServeConfig(), backend);
    NetServer server(service, NetServerConfig{});
    server.start();

    constexpr Addr kMiss = 987654;
    constexpr int kHits = 8;
    {
        RespClient warm("127.0.0.1", server.port(), 10.0);
        for (int i = 0; i < kHits; ++i)
            ASSERT_EQ(warm.roundTrip({"GET", std::to_string(i)}).type,
                      '$');
    }

    const int fd = loopbackSocket(server.port());
    ASSERT_GE(fd, 0);
    timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

    // [GET miss (held), GET hit x 8] in one write: the hits complete
    // inline, but their slots queue behind the miss, so nothing may
    // reach the socket until the held fetch completes off-thread.
    std::string request = getFrame(kMiss);
    std::string expected = bulkFrame(backend.valueOf(kMiss));
    for (int i = 0; i < kHits; ++i) {
        request += getFrame(static_cast<Addr>(i));
        expected += bulkFrame(backend.valueOf(static_cast<Addr>(i)));
    }
    const std::uint64_t getsBefore = server.stats().cmdGet;
    backend.hold();
    sendAll(fd, request);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().cmdGet - getsBefore < kHits + 1u &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().cmdGet - getsBefore, kHits + 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    char probe[64];
    EXPECT_LT(::recv(fd, probe, sizeof(probe), MSG_DONTWAIT), 0)
        << "a reply left while the head of the pipeline was held";

    // The release completes the miss outside any decode pass; that
    // completion must send the whole ready prefix by itself.
    const std::uint64_t sendsBefore = server.stats().sends;
    backend.release();
    std::string got;
    char chunk[4096];
    while (got.size() < expected.size()) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        got.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(got, expected);
    EXPECT_LE(server.stats().sends - sendsBefore, 2u);
    server.stop();
}

TEST(NetServeLoopback, WriteWatermarkStallResumesWithoutNewInput)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    // Two 39-byte PING replies trip the watermark, so one pipelined
    // write stalls its decode pass again and again.  Each flush that
    // drains the buffer must resume decoding: no new EPOLLIN is
    // coming for the bytes already read.
    net_config.tuning.writeWatermark = 64;
    NetServer server(service, net_config);
    server.start();

    RespClient client("127.0.0.1", server.port(), 10.0);
    const std::string payload(32, 'x');
    constexpr int kPings = 64;
    for (int i = 0; i < kPings; ++i)
        client.send({"PING", payload});
    client.flush();
    for (int i = 0; i < kPings; ++i)
        ASSERT_EQ(client.readReply().text, payload) << "reply " << i;
    server.stop();
}

namespace
{

/**
 * Run the harness stream over the wire (2 net workers, 3
 * connections) and in-process, and require the deterministic totals
 * to agree number for number.
 */
void
expectWireMatchesInProcess(unsigned stripes, std::size_t pipeline)
{
    ServeConfig serve_config = tinyServeConfig();
    serve_config.stripes = stripes;
    SyntheticBackendConfig backend_config;
    backend_config.seed = 7;
    SyntheticBackend backend(backend_config);
    CacheService service(serve_config, backend);

    NetServerConfig net_config;
    net_config.workers = 2;
    NetServer server(service, net_config);
    server.start();

    ClientConfig client_config;
    client_config.host = "127.0.0.1";
    client_config.port = server.port();
    client_config.connections = 3;
    client_config.pipeline = pipeline;
    client_config.harness.ops = 20000;
    client_config.harness.seed = 7;
    client_config.harness.mix.numKeys = 4096;

    const ClientResult wire = runClientLoad(client_config);
    server.stop();

    EXPECT_EQ(wire.errorReplies, 0u);
    EXPECT_EQ(wire.typeMismatches, 0u);
    EXPECT_EQ(wire.sentGets + wire.sentSets, 20000u);
    EXPECT_TRUE(wire.consistentWithServer());

    // The same stream against a fresh in-process service: the
    // deterministic totals must agree number for number.
    SyntheticBackend backend2(backend_config);
    CacheService service2(serve_config, backend2);
    HarnessConfig harness = client_config.harness;
    harness.workers = 1;
    const HarnessResult local = runLoad(service2, harness);

    EXPECT_EQ(wire.harness.totals.gets, local.totals.gets);
    EXPECT_EQ(wire.harness.totals.hits, local.totals.hits);
    EXPECT_EQ(wire.harness.totals.misses, local.totals.misses);
    EXPECT_EQ(wire.harness.totals.stores, local.totals.stores);
    EXPECT_EQ(wire.harness.totals.storeHits, local.totals.storeHits);
    EXPECT_EQ(wire.harness.totals.evictions, local.totals.evictions);
    EXPECT_EQ(wire.harness.totals.trackedKeys,
              local.totals.trackedKeys);
    EXPECT_EQ(wire.harness.totals.missCostNs,
              local.totals.missCostNs);
    EXPECT_EQ(wire.harness.totals.storeCostNs,
              local.totals.storeCostNs);
}

} // namespace

TEST(NetClientLoadTest, WireRunMatchesInProcessTotalsExactly)
{
    expectWireMatchesInProcess(1, 16);
}

/** (stripes, pipeline): the CI loopback job's shape, under ctest. */
class NetClientLoadTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{
};

TEST_P(NetClientLoadTest, WireMatchesInProcessAtEveryShape)
{
    expectWireMatchesInProcess(std::get<0>(GetParam()),
                               std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    CiLoopback, NetClientLoadTest,
    ::testing::Combine(::testing::Values(1u, 4u),
                       ::testing::Values(std::size_t{16},
                                         std::size_t{64})),
    [](const auto &info) {
        return "stripes" + std::to_string(std::get<0>(info.param)) +
               "_pipeline" + std::to_string(std::get<1>(info.param));
    });

TEST(NetClientLoadTest, ExpectFreshCountsDels)
{
    // One DEL the client never sent reaches the server first.  Its
    // GETs and SETs still match the client's, so only the DEL count
    // can tell that the server was not fresh.
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(tinyServeConfig(), backend);
    NetServer server(service, NetServerConfig{});
    server.start();
    {
        RespClient stray("127.0.0.1", server.port(), 10.0);
        EXPECT_EQ(stray.roundTrip({"DEL", "1"}).type, ':');
    }

    ClientConfig client_config;
    client_config.host = "127.0.0.1";
    client_config.port = server.port();
    client_config.harness.ops = 2000;
    client_config.harness.mix.numKeys = 256;
    const ClientResult wire = runClientLoad(client_config);
    server.stop();

    EXPECT_EQ(wire.sentGets, wire.harness.totals.gets);
    EXPECT_EQ(wire.sentSets, wire.harness.totals.stores);
    EXPECT_EQ(wire.sentDels, 0u);
    EXPECT_FALSE(wire.consistentWithServer());
}

namespace
{

/** The INFO payload of a service that served a few ops. */
std::string
sampleInfo()
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(tinyServeConfig(), backend);
    for (Addr key = 0; key < 64; ++key)
        service.get(key % 16);
    service.put(3, 33);
    NetServer server(service, NetServerConfig{});
    return server.infoText();
}

/** @p info with the value of its first "@p key:" row set to
 *  @p value. */
std::string
withValue(std::string info, const std::string &key,
          const std::string &value)
{
    const std::size_t at = info.find("\n" + key + ":");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t from = at + key.size() + 2;
    return info.replace(from, info.find('\n', from) - from, value);
}

/** The NetError message parseInfoTotals throws for @p info. */
std::string
parseError(const std::string &info)
{
    try {
        parseInfoTotals(info);
    } catch (const NetError &e) {
        return e.what();
    }
    ADD_FAILURE() << "parseInfoTotals accepted:\n" << info;
    return {};
}

} // namespace

TEST(NetInfoParse, RejectsMissingServeSection)
{
    // A real Redis answers INFO with "# Server" and friends; a
    // client must not turn that into an all-zero summary.
    EXPECT_NE(parseError("# Server\nredis_version:7.2.4\n"
                         "# Stats\ntotal_commands_processed:9\n")
                  .find("# serve"),
              std::string::npos);
    EXPECT_NE(parseError("").find("# serve"), std::string::npos);

    // A "# serve" section that lacks a listed counter names it.
    const std::string info = sampleInfo();
    const std::size_t row = info.find("\nstoreHits:");
    ASSERT_NE(row, std::string::npos);
    std::string dropped = info;
    dropped.erase(row, info.find('\n', row + 1) - row);
    EXPECT_NE(parseError(dropped).find("storeHits"), std::string::npos);

    // So does a reply without the "# net" section cmdDel is read from.
    const std::string serve_only = info.substr(0, info.find("# net"));
    EXPECT_NE(parseError(serve_only).find("# net"), std::string::npos);
}

TEST(NetInfoParse, RejectsMalformedValue)
{
    const std::string info = sampleInfo();
    const InfoTotals parsed = parseInfoTotals(info);
    const ServeTotals &totals = parsed.serve;
    EXPECT_GT(totals.gets, 0u);
    EXPECT_GT(totals.missCostNs, 0.0);
    EXPECT_EQ(parsed.shards, tinyServeConfig().shards);
    EXPECT_EQ(parsed.cmdDel, 0u);

    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"gets", "abc"},
             {"gets", "-1"},
             {"gets", ""},
             {"gets", "12 "},
             {"hits", "99999999999999999999999"},
             {"missCostNs", "1.5ns"},
             {"hitRatio", "ratio"},
             {"staleServes", "0x10"},
             {"shards", "x"},
             {"shards", "0"},
             {"shards", "3"},
             {"cmdDel", "-1"},
         }) {
        const std::string message =
            parseError(withValue(info, key, value));
        EXPECT_NE(message.find("'" + key + "'"), std::string::npos)
            << key << ":" << value << " -> " << message;
    }

    // Unknown keys, and every "# net" row but cmdDel, are not read.
    std::string extra = withValue(info, "stripes", "?");
    extra.insert(extra.find('\n') + 1, "someNewCounter:n/a\n");
    EXPECT_EQ(parseInfoTotals(extra).serve, totals);
    EXPECT_EQ(parseInfoTotals(withValue(info, "cmdGet", "x")).serve,
              totals);
}

TEST(NetServerConfigTest, ValidatesFlagsAndSpecs)
{
    NetServerConfig config;
    config.workers = 4096;
    EXPECT_THROW(config.validate(), ConfigError);

    ClientConfig client;
    client.port = 0;
    EXPECT_THROW(client.validate(), ConfigError);
    client.port = 1;
    client.connections = 0;
    EXPECT_THROW(client.validate(), ConfigError);
}

TEST(NetServerConfigTest, ClientTakesShardsFromTheServer)
{
    const char *argv[] = {"csrserve", "--connect", "127.0.0.1:7411",
                          "--shards", "4"};
    const CliArgs args(static_cast<int>(std::size(argv)),
                       const_cast<char **>(argv));
    try {
        ClientConfig::fromArgs(args);
        ADD_FAILURE() << "--connect accepted --shards";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("from the server"),
                  std::string::npos)
            << e.what();
    }
}
