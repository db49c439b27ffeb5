/**
 * @file
 * ScriptedBackend: the serve tests' backend with scripted faults.
 *
 * A SyntheticBackend (values and latencies stay a pure function of
 * key and salt) whose calls a test can hold and fail on purpose:
 *
 *  - while hold() is in force, fetch() and store() block their caller
 *    and an async fetch keeps its completion, until release() -- how a
 *    test parks a single-flight leader, or, since put() calls store()
 *    under the stripe mutex, keeps a stripe busy;
 *  - failNext makes the next fetch throw InjectedFaultError.
 *
 * A held call gives up waiting after kMaxHold, so a regression that
 * makes the code under test wait on what the hold guards fails the
 * test instead of hanging it.
 *
 * Only the sync fetch() is scripted, so fetchAsync() runs the Backend
 * base-class adapter on top of it.
 */

#ifndef CSR_TESTS_SERVETESTBACKEND_H
#define CSR_TESTS_SERVETESTBACKEND_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "robust/Errors.h"
#include "serve/SyntheticBackend.h"

namespace csr::serve
{

class ScriptedBackend : public SyntheticBackend
{
  public:
    static constexpr std::chrono::seconds kMaxHold{10};

    ScriptedBackend() : SyntheticBackend(SyntheticBackendConfig{}) {}

    BackendResult
    fetch(Addr key, std::uint64_t salt) override
    {
        enter();
        if (failNext.exchange(false))
            throw InjectedFaultError("scripted backend failure");
        return SyntheticBackend::fetch(key, salt);
    }

    void
    fetchAsync(Addr key, std::uint64_t salt, FetchCallback done) override
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (held_) {
            parked_.push_back([this, key, salt, done] {
                Backend::fetchAsync(key, salt, done);
            });
            return;
        }
        lock.unlock();
        Backend::fetchAsync(key, salt, std::move(done));
    }

    BackendResult
    store(Addr key, std::uint64_t value, std::uint64_t salt) override
    {
        enter();
        return SyntheticBackend::store(key, value, salt);
    }

    void
    hold()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        held_ = true;
    }

    /** Unblock held calls, then run the parked completions. */
    void
    release()
    {
        std::vector<std::function<void()>> parked;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = false;
            parked.swap(parked_);
        }
        cv_.notify_all();
        for (auto &fn : parked)
            fn();
    }

    /** Sync fetch() and store() calls entered so far. */
    std::uint64_t
    calls()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

    /** Block until @p n sync calls have entered in all. */
    void
    awaitCalls(std::uint64_t n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return calls_ >= n; });
    }

    std::atomic<bool> failNext{false};

  private:
    void
    enter()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++calls_;
        cv_.notify_all();
        cv_.wait_for(lock, kMaxHold, [this] { return !held_; });
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool held_ = false;
    std::uint64_t calls_ = 0;
    std::vector<std::function<void()>> parked_;
};

} // namespace csr::serve

#endif // CSR_TESTS_SERVETESTBACKEND_H
