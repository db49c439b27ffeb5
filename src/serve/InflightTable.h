/**
 * @file
 * Single-flight miss coalescing: one backend fetch per missing key,
 * no matter how many threads miss on it concurrently.
 *
 * The first thread to miss on a key becomes the *leader*: it claims
 * an InflightFetch entry under the stripe mutex, releases the mutex,
 * performs the backend fetch, then re-acquires the mutex to install
 * the block and publish the result.  Threads that miss on the same
 * key while the fetch is in flight become *waiters*: they park on the
 * entry's condition variable (off the stripe mutex, so the stripe keeps
 * serving other keys) and, once woken, fold the leader's measured
 * latency into their own EWMA observation of the key -- the paper's
 * cost signal sees one sample per requester, exactly as if each had
 * paid the fetch, while the backend sees a single call (the stampede
 * protection every production cache tier wants).
 *
 * Two ways to join a flight.  awaitFetchFor() parks the calling
 * thread with a *bounded* condvar wait -- a wedged leader (backend
 * hang, lost completion) times the waiter out instead of parking a
 * network connection forever; the caller turns that into a typed
 * csr::TimeoutError.  subscribeFetch() registers a completion
 * callback instead of blocking: the network event loop's miss path,
 * where a net worker must never sleep on someone else's fetch.
 *
 * Moving the fetch outside the stripe mutex is itself the second half
 * of the tentpole: under the old code a shard was serialized for the
 * whole backend round trip; now it is held only for the map/array
 * bookkeeping on either side.
 */

#ifndef CSR_SERVE_INFLIGHTTABLE_H
#define CSR_SERVE_INFLIGHTTABLE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/Types.h"

namespace csr::serve
{

/** One in-flight backend fetch; waiters park on cv until done. */
struct InflightFetch
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::uint64_t value = 0;
    double latencyNs = 0.0;
    /** Set instead of value/latencyNs when the leader's fetch threw;
     *  every waiter, parked or subscribed, sees it on the published
     *  entry. */
    std::exception_ptr error;
    /** Non-blocking waiters (subscribeFetch); drained exactly once by
     *  the completing thread, after done is set, with no lock held. */
    std::vector<std::function<void()>> subscribers;
};

/**
 * Publish the leader's outcome -- @p value and @p latency_ns, or
 * @p error when its fetch failed -- and wake every waiter, parked and
 * subscribed alike.  Called with the stripe mutex NOT held (the entry
 * has its own mutex), after the leader has erased the entry from the
 * table (so a later miss on the key elects a fresh leader rather than
 * joining a finished flight).  Only the first publish counts: a late
 * leader completing a flight the drain already failed changes nothing,
 * so waiters may read the fields once they have seen `done`.
 */
inline void
publishFetch(InflightFetch &fetch, std::uint64_t value, double latency_ns,
             std::exception_ptr error)
{
    std::vector<std::function<void()>> subscribers;
    {
        std::lock_guard<std::mutex> lock(fetch.mutex);
        if (fetch.done)
            return;
        fetch.value = value;
        fetch.latencyNs = latency_ns;
        fetch.error = std::move(error);
        fetch.done = true;
        subscribers.swap(fetch.subscribers);
    }
    fetch.cv.notify_all();
    for (auto &fn : subscribers)
        fn();
}

/**
 * Block until the leader publishes, for at most @p timeout_ns
 * (0 = unbounded, the historical behaviour), then inspect the
 * entry's value/latencyNs/error fields.  @return false when the wait
 * timed out with the fetch still in flight -- the entry is untouched,
 * so the leader can still complete it for everyone else; the caller
 * decides how loudly to give up.  Stripe mutex must NOT be held.
 */
inline bool
awaitFetchFor(InflightFetch &fetch, std::uint64_t timeout_ns)
{
    std::unique_lock<std::mutex> lock(fetch.mutex);
    const auto ready = [&fetch] { return fetch.done; };
    if (timeout_ns == 0) {
        fetch.cv.wait(lock, ready);
        return true;
    }
    return fetch.cv.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                             ready);
}

/**
 * Join a flight without blocking: @p fn runs exactly once after the
 * leader publishes (inspect the entry's value/latencyNs/error fields
 * then), on the completing thread -- or inline, right here, when the
 * flight already completed.  The network miss path: the callback
 * re-enters the owning event loop instead of a thread parking.
 * Stripe mutex must NOT be held (callers registering under the stripe
 * mutex would lock-invert against publishFetch's callers).
 */
inline void
subscribeFetch(InflightFetch &fetch, std::function<void()> fn)
{
    {
        std::unique_lock<std::mutex> lock(fetch.mutex);
        if (!fetch.done) {
            fetch.subscribers.push_back(std::move(fn));
            return;
        }
    }
    fn();
}

/**
 * The per-stripe table of in-flight fetches.  All methods must be
 * called with the stripe mutex held; the entries themselves outlive
 * erase() through shared ownership, so waiters that joined before
 * the leader finished still see the published result.
 */
class InflightTable
{
  public:
    /** Join @p key's in-flight fetch, or claim leadership of a new
     *  one.  Second element is true for the leader. */
    std::pair<std::shared_ptr<InflightFetch>, bool>
    claim(Addr key)
    {
        auto [it, inserted] = map_.try_emplace(key);
        if (inserted)
            it->second = std::make_shared<InflightFetch>();
        return {it->second, inserted};
    }

    /** Leader-only: retire the entry once the block is installed. */
    void
    erase(Addr key)
    {
        map_.erase(key);
    }

    /**
     * Drain-path: remove and return every entry at once.  The caller
     * (holding the stripe mutex) then publishes a failure to each one
     * with the mutex released, unparking all waiters -- how a draining
     * server guarantees no connection stays parked on a flight whose
     * leader will never complete.
     */
    std::vector<std::shared_ptr<InflightFetch>>
    takeAll()
    {
        std::vector<std::shared_ptr<InflightFetch>> flights;
        flights.reserve(map_.size());
        for (auto &[key, flight] : map_)
            flights.push_back(std::move(flight));
        map_.clear();
        return flights;
    }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<Addr, std::shared_ptr<InflightFetch>> map_;
};

} // namespace csr::serve

#endif // CSR_SERVE_INFLIGHTTABLE_H
