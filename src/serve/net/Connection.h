/**
 * @file
 * One RESP connection on one event-loop thread (DESIGN.md 3.7).
 *
 * A Connection owns a socket, an incremental RespParser, a write
 * buffer, and a queue of *reply slots*.  The slot queue is what
 * keeps pipelining correct under asynchronous misses: RESP replies
 * must be delivered in request order, but a GET that misses
 * completes whenever its backend fetch does -- possibly after a
 * later GET in the same pipeline hit in cache.  Each request
 * therefore claims the next slot at decode time; completions fill
 * their slot whenever they land; and only the contiguous ready
 * prefix is ever flushed to the socket.
 *
 * Flushing is batched per decode pass: a reply completed inside
 * processBuffered() only moves into the write buffer, and the pass's
 * caller sends the lot in one send(2).  A completion that lands
 * outside a pass (a posted async fill) sends at once.
 *
 * Backpressure is two-sided and entirely local to the connection:
 *
 *  - maxPendingOps unfilled slots -> stop reading (EPOLLIN off)
 *    until completions drain the queue.  A client that pipelines
 *    faster than the backend answers fills its socket buffer, not
 *    our memory.
 *  - writeWatermark buffered reply bytes -> same.  A client that
 *    never reads its replies is throttled the same way.
 *
 * Threading: every method runs on the owning loop's thread.  Async
 * completions from other threads marshal themselves back via
 * EventLoop::post() holding only a weak_ptr, so a connection that
 * died while a fetch was in flight is simply skipped.
 */

#ifndef CSR_SERVE_NET_CONNECTION_H
#define CSR_SERVE_NET_CONNECTION_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "robust/NetChaos.h"
#include "serve/CacheService.h"
#include "serve/net/EventLoop.h"
#include "serve/net/RespParser.h"
#include "util/Stats.h"

namespace csr::serve::net
{

/** Per-connection resource bounds (one instance per server). */
struct NetTuning
{
    /** Unreplied pipelined requests before reads pause. */
    std::size_t maxPendingOps = 128;
    /** Buffered reply bytes before reads pause. */
    std::size_t writeWatermark = 1 << 20;
    /** Close a connection with no traffic and no pending work after
     *  this long (0 = never).  Keeps idle-forever peers from pinning
     *  fds. */
    double idleTimeoutMs = 60'000.0;
    /** Close a connection that started a command frame but has not
     *  finished it after this long (0 = never) -- the slow-loris
     *  defense: a peer trickling one byte per second cannot hold a
     *  partial frame open indefinitely. */
    double readDeadlineMs = 30'000.0;
    /** Server-wide pending-op count past which new data commands are
     *  answered -BUSY instead of queued (0 = never shed). */
    std::size_t shedPendingOps = 4096;
    /** Server-wide buffered reply bytes past which new data commands
     *  are answered -BUSY (0 = never shed). */
    std::size_t shedWriteBytes = 32u << 20;
    RespLimits limits;
};

/**
 * Server-wide load aggregates feeding admission control.  Relaxed
 * atomics: every worker's connections bump them, and the shed
 * decision tolerates a momentarily stale read -- the watermark is a
 * pressure valve, not an exact bound.
 */
struct WorkerLoad
{
    std::atomic<std::uint64_t> pendingOps{0};
    std::atomic<std::uint64_t> bufferedBytes{0};
};

/**
 * Counters one worker's connections mutate.  Counters are relaxed
 * atomics so INFO (which runs on whichever worker got the request)
 * can read every worker's numbers live; the latency histogram is
 * loop-thread-only and merged after the loops join.
 */
struct WorkerStats
{
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> connectionsClosed{0};
    std::atomic<std::uint64_t> cmdGet{0};
    std::atomic<std::uint64_t> cmdSet{0};
    std::atomic<std::uint64_t> cmdDel{0};
    std::atomic<std::uint64_t> cmdPing{0};
    std::atomic<std::uint64_t> cmdInfo{0};
    std::atomic<std::uint64_t> errorReplies{0};
    std::atomic<std::uint64_t> protocolErrors{0};
    std::atomic<std::uint64_t> bytesIn{0};
    std::atomic<std::uint64_t> bytesOut{0};
    /** send(2) attempts, EAGAIN and short writes included. */
    std::atomic<std::uint64_t> sends{0};
    std::atomic<std::uint64_t> backpressureStalls{0};
    /** Data commands answered -BUSY by admission control. */
    std::atomic<std::uint64_t> shedOps{0};
    /** Connections closed by the idle timeout. */
    std::atomic<std::uint64_t> idleClosed{0};
    /** Connections closed by the partial-frame read deadline. */
    std::atomic<std::uint64_t> deadlineClosed{0};
    /** Accepts refused at --max-conns with "-ERR server at
     *  capacity". */
    std::atomic<std::uint64_t> capacityRejections{0};
    /** Chaos-injected short writes / deferred accepts / resets. */
    std::atomic<std::uint64_t> chaosShortWrites{0};
    std::atomic<std::uint64_t> chaosDeferredAccepts{0};
    std::atomic<std::uint64_t> chaosResets{0};
    /** Decode-to-reply-ready time per request; loop thread only. */
    Histogram wireLatencyNs;
};

/** Everything a Connection borrows from its server + worker. */
struct ConnectionContext
{
    EventLoop &loop;
    CacheService &service;
    const NetTuning &tuning;
    WorkerStats &stats;
    /** Server-wide admission-control aggregates. */
    WorkerLoad &load;
    /** Wire chaos config (rate 0 = off). */
    const ChaosConfig &chaos;
    /** Server-unique connection ordinal; keys chaos draws. */
    std::uint64_t serial = 0;
    /** Builds the INFO payload (server-wide view). */
    std::function<std::string()> infoText;
    /** Called once, on the loop thread, after the fd is closed; the
     *  owner drops its shared_ptr here. */
    std::function<void(int fd)> onClosed;
};

class Connection : public std::enable_shared_from_this<Connection>
{
  public:
    /** Takes ownership of @p fd (must be non-blocking). */
    Connection(ConnectionContext ctx, int fd);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Register with the loop.  Call once, after shared_ptr
     *  construction (the handler keeps the connection alive). */
    void open();

    /**
     * Graceful-drain entry (loop thread only): stop reading, let
     * every claimed reply slot complete and flush, then close.  Bytes
     * already received but not yet decoded into a command are
     * dropped -- the drain contract is one reply per *accepted*
     * command, and a command is accepted when its frame decodes.
     * Idempotent.
     */
    void beginDrain();

    /** Hard-deadline close (loop thread only): drop everything,
     *  close the fd now.  Idempotent. */
    void abort();

    /** Pending work that beginDrain() would wait for (loop thread
     *  only): unflushed replies or unfinished async completions. */
    bool drainPending() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct ReplySlot
    {
        std::string data;
        Clock::time_point start;
        bool ready = false;
    };

    void onEvents(std::uint32_t events);
    void onReadable();
    void onWritable();

    /** Either backpressure bound tripped: stop decoding/reading. */
    bool stalled() const;

    /** Decode pass + one flush (again while the flush lifts a write
     *  stall), then re-arm interest and close if done. */
    void pump();

    /** Decode + execute commands already fed to the parser, until it
     *  runs dry, the connection stalls, or a protocol error latches.
     *  Reentrancy-safe (synchronous replies land mid-loop). */
    void processBuffered();

    void execute(RespCommand &&cmd);
    void executeGet(const std::string &keyText);
    void executeSet(const std::string &keyText,
                    const std::string &valueText);

    /** Claim the next in-order reply slot; returns its id. */
    std::uint64_t allocSlot();
    /** Deliver @p reply into @p slot and move the ready prefix into
     *  outBuf_; sends it unless inside a decode pass. */
    void fillSlot(std::uint64_t slot, std::string reply);
    /** Shorthand: alloc + fill for synchronously answered verbs. */
    void reply(std::string text);

    void flushReady();
    void flushOutput();
    void updateInterest();
    void maybeClose();
    void closeNow();

    /** Should this data command be refused with -BUSY right now? */
    bool shouldShed() const;

    /** Fire/re-arm the idle + read-deadline watcher. */
    void checkDeadlines();
    void armDeadlineTimer();
    /** Start/stop the partial-frame clock after a decode pass. */
    void notePartialFrame();

    ConnectionContext ctx_;
    int fd_;
    RespParser parser_;
    std::deque<ReplySlot> slots_;
    std::uint64_t baseSlot_ = 0;  ///< id of slots_.front()
    std::uint64_t nextSlot_ = 0;
    std::size_t unfilled_ = 0;    ///< slots awaiting completion
    std::string outBuf_;
    std::size_t outPos_ = 0;
    std::uint32_t interest_ = 0;  ///< currently registered mask
    bool peerClosed_ = false;     ///< read side saw EOF
    bool closeAfterReply_ = false;
    bool closed_ = false;
    bool processing_ = false;     ///< inside processBuffered()

    std::uint64_t lastActivityNs_ = 0;
    /** Monotonic time the current partial frame started; 0 = no
     *  partial frame outstanding. */
    std::uint64_t partialSinceNs_ = 0;
    EventLoop::TimerId deadlineTimer_ = 0; ///< 0 = not armed
    std::uint64_t cmdSeq_ = 0;   ///< commands executed (chaos key)
    std::uint64_t writeSeq_ = 0; ///< send() attempts (chaos key)
};

} // namespace csr::serve::net

#endif // CSR_SERVE_NET_CONNECTION_H
