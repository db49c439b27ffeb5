#include "serve/net/Connection.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "robust/Errors.h"
#include "serve/net/NetCommon.h"
#include "telemetry/Telemetry.h"
#include "util/Random.h"

namespace csr::serve::net
{

namespace
{

constexpr std::size_t kReadChunk = 16 * 1024;

std::uint64_t
monotonicNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
msToNs(double ms)
{
    return static_cast<std::uint64_t>(ms * 1.0e6);
}

std::string
upperOf(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (c >= 'a' && c <= 'z')
            c = static_cast<char>(c - 'a' + 'A');
    return out;
}

/** True when @p s is a decimal uint64 (no sign, no spaces). */
bool
parseU64(const std::string &s, std::uint64_t &value)
{
    if (s.empty() || s.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        if (v > (UINT64_MAX - 9) / 10)
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    value = v;
    return true;
}

/**
 * Wire key -> cache key.  Decimal keys map to themselves, so the
 * network client's deterministic streams hit the very same Addrs an
 * in-process harness run uses (that is what makes server-side totals
 * comparable).  Anything else -- "user:17", "π" -- is FNV-1a-hashed,
 * so arbitrary redis-cli traffic works too, just without the
 * identity guarantee.
 */
Addr
wireKeyOf(const std::string &text)
{
    std::uint64_t direct = 0;
    if (parseU64(text, direct))
        return direct;
    std::uint64_t h = 1469598103934665603ull; // FNV-1a 64 offset
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return hashMix64(h);
}

std::string
bulkOf(const std::string &payload)
{
    std::string out;
    out.reserve(payload.size() + 16);
    out += '$';
    out += std::to_string(payload.size());
    out += "\r\n";
    out += payload;
    out += "\r\n";
    return out;
}

std::string
errorOf(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const Error &e) {
        return "-ERR " + std::string(e.kind()) + ": " + e.what() +
               "\r\n";
    } catch (const std::exception &e) {
        return std::string("-ERR ") + e.what() + "\r\n";
    }
}

} // namespace

Connection::Connection(ConnectionContext ctx, int fd)
    : ctx_(std::move(ctx)), fd_(fd), parser_(ctx_.tuning.limits)
{
}

Connection::~Connection()
{
    // Normally closeNow() already ran; this catches a worker being
    // torn down with connections still open.
    if (!closed_ && fd_ >= 0)
        ::close(fd_);
}

void
Connection::open()
{
    auto self = shared_from_this();
    interest_ = EPOLLIN;
    ctx_.loop.add(fd_, interest_,
                  [self](std::uint32_t events) { self->onEvents(events); });
    lastActivityNs_ = monotonicNowNs();
    armDeadlineTimer();
    CSR_TRACE_INSTANT_V("net", "conn.open", fd_);
}

void
Connection::onEvents(std::uint32_t events)
{
    if (closed_)
        return;
    if (events & (EPOLLERR | EPOLLHUP)) {
        closeNow();
        return;
    }
    if (events & EPOLLOUT)
        onWritable();
    if (closed_)
        return;
    if (events & EPOLLIN)
        onReadable();
}

bool
Connection::stalled() const
{
    return unfilled_ >= ctx_.tuning.maxPendingOps ||
           outBuf_.size() - outPos_ >= ctx_.tuning.writeWatermark;
}

void
Connection::onReadable()
{
    char chunk[kReadChunk];
    bool sawBytes = false;
    while (true) {
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n > 0) {
            sawBytes = true;
            ctx_.stats.bytesIn.fetch_add(
                static_cast<std::uint64_t>(n),
                std::memory_order_relaxed);
            parser_.feed(chunk, static_cast<std::size_t>(n));
            if (static_cast<std::size_t>(n) < sizeof(chunk))
                break;
            continue;
        }
        if (n == 0) {
            peerClosed_ = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeNow();
        return;
    }

    if (sawBytes)
        lastActivityNs_ = monotonicNowNs();
    pump();
}

void
Connection::pump()
{
    // One decode pass, then one flush for every reply it produced.
    // A pass that stopped on the write watermark gets another go once
    // the flush drains outBuf_: the bytes it left in the parser will
    // never see another EPOLLIN.
    while (true) {
        processBuffered();
        if (closed_)
            return;
        const bool wasStalled = stalled();
        flushOutput();
        if (closed_)
            return;
        if (!wasStalled || stalled() || parser_.buffered() == 0)
            break;
    }
    updateInterest();
    maybeClose();
}

void
Connection::processBuffered()
{
    // Reentrancy guard: a synchronous verb's reply lands via
    // fillSlot() while we are still inside this loop, and fillSlot
    // would otherwise try to resume parsing recursively.
    if (processing_)
        return;
    processing_ = true;
    RespCommand cmd;
    while (!closed_ && !closeAfterReply_ && !stalled()) {
        const RespParseStatus status = parser_.next(cmd);
        if (status == RespParseStatus::NeedMore)
            break;
        if (status == RespParseStatus::ProtocolError) {
            ctx_.stats.protocolErrors.fetch_add(
                1, std::memory_order_relaxed);
            reply("-ERR Protocol error: " + parser_.error() + "\r\n");
            closeAfterReply_ = true;
            break;
        }
        execute(std::move(cmd));
    }
    processing_ = false;
    if (!closed_)
        notePartialFrame();
}

void
Connection::execute(RespCommand &&cmd)
{
    const std::uint64_t cmdIndex = cmdSeq_++;
    if (chaosDecide(ctx_.chaos, ChaosSite::ConnReset, ctx_.serial,
                    cmdIndex)) {
        // Mid-command reset: the peer's connection dies with this
        // command unanswered.  Lossy by design -- only fires behind
        // --chaos-resets (chaosDecide gates it).
        ctx_.stats.chaosResets.fetch_add(1,
                                         std::memory_order_relaxed);
        closeNow();
        return;
    }
    const std::string verb = upperOf(cmd.argv.at(0));
    if ((verb == "GET" || verb == "SET" || verb == "DEL") &&
        shouldShed()) {
        // Admission control: refuse data commands while the
        // server-wide aggregates sit past their watermarks.  PING and
        // INFO stay exempt so health checks and operators can still
        // get through to a struggling server.
        ctx_.stats.shedOps.fetch_add(1, std::memory_order_relaxed);
        reply("-BUSY shed: server overloaded, retry later\r\n");
        return;
    }
    if (verb == "GET" && cmd.argv.size() == 2) {
        ctx_.stats.cmdGet.fetch_add(1, std::memory_order_relaxed);
        executeGet(cmd.argv[1]);
    } else if (verb == "SET" && cmd.argv.size() == 3) {
        ctx_.stats.cmdSet.fetch_add(1, std::memory_order_relaxed);
        executeSet(cmd.argv[1], cmd.argv[2]);
    } else if (verb == "DEL" && cmd.argv.size() == 2) {
        ctx_.stats.cmdDel.fetch_add(1, std::memory_order_relaxed);
        const bool was = ctx_.service.del(wireKeyOf(cmd.argv[1]));
        reply(was ? ":1\r\n" : ":0\r\n");
    } else if (verb == "PING" && cmd.argv.size() <= 2) {
        ctx_.stats.cmdPing.fetch_add(1, std::memory_order_relaxed);
        reply(cmd.argv.size() == 2 ? bulkOf(cmd.argv[1])
                                   : "+PONG\r\n");
    } else if (verb == "INFO" && cmd.argv.size() == 1) {
        ctx_.stats.cmdInfo.fetch_add(1, std::memory_order_relaxed);
        reply(bulkOf(ctx_.infoText()));
    } else if (verb == "GET" || verb == "SET" || verb == "DEL" ||
               verb == "PING" || verb == "INFO") {
        ctx_.stats.errorReplies.fetch_add(1,
                                          std::memory_order_relaxed);
        reply("-ERR wrong number of arguments for '" + verb +
              "'\r\n");
    } else {
        ctx_.stats.errorReplies.fetch_add(1,
                                          std::memory_order_relaxed);
        reply("-ERR unknown command '" + cmd.argv[0] +
              "' (supported: GET SET DEL PING INFO)\r\n");
    }
}

void
Connection::executeGet(const std::string &keyText)
{
    const Addr key = wireKeyOf(keyText);
    const std::uint64_t slot = allocSlot();
    auto self = weak_from_this();
    EventLoop *loop = &ctx_.loop;
    ctx_.service.getAsync(
        key,
        [self, loop, slot](const ServeOpResult &result,
                           std::exception_ptr error) {
            // Render the reply here: `result` is only valid for the
            // duration of this callback.
            std::string text =
                error ? errorOf(error)
                      : bulkOf(std::to_string(result.value));
            auto deliver = [self, slot,
                            text = std::move(text)]() mutable {
                if (auto conn = self.lock())
                    conn->fillSlot(slot, std::move(text));
            };
            if (loop->inLoopThread())
                deliver();
            else
                loop->post(std::move(deliver));
        });
}

void
Connection::executeSet(const std::string &keyText,
                       const std::string &valueText)
{
    std::uint64_t value = 0;
    if (!parseU64(valueText, value)) {
        ctx_.stats.errorReplies.fetch_add(1,
                                          std::memory_order_relaxed);
        reply("-ERR value must be a decimal unsigned 64-bit "
              "integer\r\n");
        return;
    }
    // Writes are write-through and synchronous by design (the store
    // latency is itself a cost observation); a simulated backend
    // makes this a pure compute step.
    try {
        ctx_.service.put(wireKeyOf(keyText), value);
        reply("+OK\r\n");
    } catch (const Error &e) {
        ctx_.stats.errorReplies.fetch_add(1,
                                          std::memory_order_relaxed);
        reply("-ERR " + std::string(e.kind()) + ": " + e.what() +
              "\r\n");
    }
}

std::uint64_t
Connection::allocSlot()
{
    slots_.push_back(ReplySlot{std::string(), Clock::now(), false});
    ++unfilled_;
    ctx_.load.pendingOps.fetch_add(1, std::memory_order_relaxed);
    return nextSlot_++;
}

void
Connection::reply(std::string text)
{
    fillSlot(allocSlot(), std::move(text));
}

void
Connection::fillSlot(std::uint64_t slot, std::string reply_text)
{
    if (closed_)
        return;
    const std::size_t idx =
        static_cast<std::size_t>(slot - baseSlot_);
    ReplySlot &s = slots_[idx];
    s.data = std::move(reply_text);
    s.ready = true;
    --unfilled_;
    ctx_.load.pendingOps.fetch_sub(1, std::memory_order_relaxed);
    ctx_.stats.wireLatencyNs.add(
        std::chrono::duration<double, std::nano>(Clock::now() -
                                                 s.start)
            .count());
    flushReady();
    // Inside a decode pass the pass's caller sends once at the end.
    if (processing_)
        return;
    // A completion outside one (a posted async fill) sends now.  A
    // drained slot queue may also lift backpressure, and bytes
    // already sitting in the parser will never get another EPOLLIN,
    // so pump() resumes decoding them first.
    pump();
}

void
Connection::flushReady()
{
    while (!slots_.empty() && slots_.front().ready) {
        ctx_.load.bufferedBytes.fetch_add(slots_.front().data.size(),
                                          std::memory_order_relaxed);
        outBuf_ += slots_.front().data;
        slots_.pop_front();
        ++baseSlot_;
    }
}

void
Connection::flushOutput()
{
    while (outPos_ < outBuf_.size()) {
        std::size_t len = outBuf_.size() - outPos_;
        bool shortWrite = false;
        if (ctx_.chaos.enabled() &&
            chaosDecide(ctx_.chaos, ChaosSite::ShortWrite,
                        ctx_.serial, writeSeq_)) {
            // TIMING fault: send at most half of what is queued (but
            // at least one byte) and stop -- the remainder waits for
            // EPOLLOUT, exercising the partial-flush resume paths.
            const double draw =
                chaosDraw(ctx_.chaos, ChaosSite::ShortWrite,
                          ctx_.serial ^ 0x5Cu, writeSeq_);
            len = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(len) * 0.5 * draw));
            shortWrite = true;
        }
        ++writeSeq_;
        ctx_.stats.sends.fetch_add(1, std::memory_order_relaxed);
        const ssize_t n =
            ::send(fd_, outBuf_.data() + outPos_, len, MSG_NOSIGNAL);
        if (n > 0) {
            ctx_.stats.bytesOut.fetch_add(
                static_cast<std::uint64_t>(n),
                std::memory_order_relaxed);
            ctx_.load.bufferedBytes.fetch_sub(
                static_cast<std::uint64_t>(n),
                std::memory_order_relaxed);
            outPos_ += static_cast<std::size_t>(n);
            if (shortWrite) {
                ctx_.stats.chaosShortWrites.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeNow();
        return;
    }
    if (outPos_ == outBuf_.size()) {
        outBuf_.clear();
        outPos_ = 0;
    } else if (outPos_ >= 64 * 1024) {
        outBuf_.erase(0, outPos_);
        outPos_ = 0;
    }
}

void
Connection::updateInterest()
{
    const bool blocked = stalled();
    std::uint32_t want = 0;
    if (!peerClosed_ && !closeAfterReply_ && !blocked)
        want |= EPOLLIN;
    if (outPos_ < outBuf_.size())
        want |= EPOLLOUT;
    if (want == interest_)
        return;
    if (blocked && (interest_ & EPOLLIN) && !(want & EPOLLIN))
        ctx_.stats.backpressureStalls.fetch_add(
            1, std::memory_order_relaxed);
    ctx_.loop.mod(fd_, want);
    interest_ = want;
}

void
Connection::onWritable()
{
    // Draining the write buffer may lift backpressure; pump() then
    // re-examines bytes already buffered in the parser even though no
    // new EPOLLIN will fire for them.
    pump();
}

void
Connection::maybeClose()
{
    if (closed_)
        return;
    const bool drained =
        unfilled_ == 0 && slots_.empty() && outPos_ == outBuf_.size();
    if ((peerClosed_ || closeAfterReply_) && drained)
        closeNow();
}

void
Connection::closeNow()
{
    if (closed_)
        return;
    // The onClosed callback drops the owner's shared_ptr; keep
    // ourselves alive until this frame unwinds.
    auto self = shared_from_this();
    closed_ = true;
    if (deadlineTimer_ != 0) {
        ctx_.loop.cancelTimer(deadlineTimer_);
        deadlineTimer_ = 0;
    }
    // Return our outstanding charges to the server-wide aggregates:
    // slots that will never fill, reply bytes that will never send.
    if (unfilled_ > 0)
        ctx_.load.pendingOps.fetch_sub(unfilled_,
                                       std::memory_order_relaxed);
    if (outPos_ < outBuf_.size())
        ctx_.load.bufferedBytes.fetch_sub(outBuf_.size() - outPos_,
                                          std::memory_order_relaxed);
    const int fd = fd_;
    fd_ = -1;
    ctx_.loop.del(fd);
    ::close(fd);
    CSR_TRACE_INSTANT_V("net", "conn.close", fd);
    ctx_.stats.connectionsClosed.fetch_add(1,
                                           std::memory_order_relaxed);
    ctx_.onClosed(fd);
}

void
Connection::beginDrain()
{
    if (closed_)
        return;
    // closeAfterReply_ is exactly the drain contract the reply path
    // already honours: stop decoding new commands (processBuffered's
    // loop condition), keep filling + flushing claimed slots, close
    // once everything queued has hit the socket.
    closeAfterReply_ = true;
    partialSinceNs_ = 0;
    updateInterest();
    maybeClose();
}

void
Connection::abort()
{
    closeNow();
}

bool
Connection::drainPending() const
{
    return unfilled_ != 0 || !slots_.empty() ||
           outPos_ != outBuf_.size();
}

bool
Connection::shouldShed() const
{
    const NetTuning &t = ctx_.tuning;
    if (t.shedPendingOps != 0 &&
        ctx_.load.pendingOps.load(std::memory_order_relaxed) >=
            t.shedPendingOps)
        return true;
    if (t.shedWriteBytes != 0 &&
        ctx_.load.bufferedBytes.load(std::memory_order_relaxed) >=
            t.shedWriteBytes)
        return true;
    return false;
}

void
Connection::notePartialFrame()
{
    // A partial frame only counts against the peer while the parser
    // is genuinely waiting on it: bytes held back by our own
    // backpressure or a latched close are not the peer's fault.
    if (parser_.buffered() > 0 && !stalled() && !closeAfterReply_) {
        if (partialSinceNs_ == 0) {
            partialSinceNs_ = monotonicNowNs();
            // The read deadline may be nearer than whatever the timer
            // was armed for (typically the idle check); re-arm.
            if (deadlineTimer_ != 0) {
                ctx_.loop.cancelTimer(deadlineTimer_);
                deadlineTimer_ = 0;
            }
            armDeadlineTimer();
        }
    } else {
        partialSinceNs_ = 0;
    }
}

void
Connection::checkDeadlines()
{
    deadlineTimer_ = 0;
    if (closed_)
        return;
    const std::uint64_t now = monotonicNowNs();
    const NetTuning &t = ctx_.tuning;
    if (t.readDeadlineMs > 0 && partialSinceNs_ != 0 &&
        now - partialSinceNs_ >= msToNs(t.readDeadlineMs)) {
        ctx_.stats.deadlineClosed.fetch_add(
            1, std::memory_order_relaxed);
        closeNow();
        return;
    }
    if (t.idleTimeoutMs > 0 && !drainPending() &&
        parser_.buffered() == 0 &&
        now - lastActivityNs_ >= msToNs(t.idleTimeoutMs)) {
        ctx_.stats.idleClosed.fetch_add(1, std::memory_order_relaxed);
        closeNow();
        return;
    }
    armDeadlineTimer();
}

void
Connection::armDeadlineTimer()
{
    if (deadlineTimer_ != 0 || closed_)
        return;
    const NetTuning &t = ctx_.tuning;
    if (t.idleTimeoutMs <= 0 && t.readDeadlineMs <= 0)
        return;
    // Fire at the earliest applicable deadline, computed from the
    // timestamps as of now.  Activity after arming just makes the
    // timer fire early; checkDeadlines() then re-arms with the
    // remaining time, so nothing needs cancelling on the hot path.
    const std::uint64_t now = monotonicNowNs();
    std::uint64_t delay = UINT64_MAX;
    if (t.idleTimeoutMs > 0) {
        const std::uint64_t deadline =
            lastActivityNs_ + msToNs(t.idleTimeoutMs);
        delay = deadline > now ? deadline - now : 0;
    }
    if (t.readDeadlineMs > 0) {
        const std::uint64_t since =
            partialSinceNs_ != 0 ? partialSinceNs_ : now;
        const std::uint64_t deadline =
            since + msToNs(t.readDeadlineMs);
        delay = std::min(delay,
                         deadline > now ? deadline - now : 0);
    }
    // Floor keeps a just-expired deadline from hot-looping the timer.
    delay = std::max<std::uint64_t>(delay, 1'000'000);
    auto self = weak_from_this();
    deadlineTimer_ = ctx_.loop.addTimer(delay, [self] {
        if (auto conn = self.lock())
            conn->checkDeadlines();
    });
}

} // namespace csr::serve::net
