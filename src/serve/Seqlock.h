/**
 * @file
 * Per-shard sequence lock for the lock-free hit path.
 *
 * Writers (which additionally hold the shard mutex, so they never
 * race each other) bump the version to odd before mutating the
 * probed state -- tag lane, valid words, value lane -- and back to
 * even afterwards.  Readers snapshot the version, read the state
 * with relaxed atomics (util/Atomics.h), and validate that the
 * version is unchanged and even; on failure the whole read is
 * discarded and retried (or falls back to the mutex).
 *
 * Memory ordering follows Boehm's seqlock construction: the
 * write-begin bump is an acq_rel RMW so the subsequent data stores
 * cannot be hoisted above it, the write-end bump is a release so the
 * data stores are visible before the even version, the reader's
 * begin load is an acquire so the data loads cannot float above it,
 * and validation issues an acquire fence so the re-read of the
 * version cannot complete before the data loads (under TSan, which
 * does not model fences, an acq_rel fetch_add(0) does that job).  All
 * participating accesses are atomic, which also makes the protocol
 * TSan-clean.
 */

#ifndef CSR_SERVE_SEQLOCK_H
#define CSR_SERVE_SEQLOCK_H

#include <atomic>
#include <cstdint>

#include "util/Atomics.h"

namespace csr::serve
{

class Seqlock
{
  public:
    /** Snapshot the version before an optimistic read. */
    std::uint64_t
    readBegin() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /** True when a read begun at @p begin saw a stable snapshot. */
    bool
    readValidate(std::uint64_t begin) const
    {
#if defined(CSR_TSAN)
        // TSan does not model fences (GCC rejects them under
        // -fsanitize=thread): validate with Boehm's read-don't-modify-
        // write instead, whose release half keeps the data loads
        // before it.
        return (begin & 1) == 0 &&
               seq_.fetch_add(0, std::memory_order_acq_rel) == begin;
#else
        std::atomic_thread_fence(std::memory_order_acquire);
        return (begin & 1) == 0 &&
               seq_.load(std::memory_order_relaxed) == begin;
#endif
    }

    /** Version is odd while a writer is inside a write section. */
    void
    writeBegin()
    {
        seq_.fetch_add(1, std::memory_order_acq_rel);
    }

    void
    writeEnd()
    {
        seq_.fetch_add(1, std::memory_order_release);
    }

    /** Completed write sections (diagnostics). */
    std::uint64_t
    writeCount() const
    {
        return seq_.load(std::memory_order_relaxed) / 2;
    }

  private:
    /** Mutable for the TSan build's read-side fetch_add(0). */
    mutable std::atomic<std::uint64_t> seq_{0};
};

/** RAII write section; the caller must hold the shard mutex. */
class SeqlockWriteGuard
{
  public:
    explicit SeqlockWriteGuard(Seqlock &lock) : lock_(lock)
    {
        lock_.writeBegin();
    }

    ~SeqlockWriteGuard() { lock_.writeEnd(); }

    SeqlockWriteGuard(const SeqlockWriteGuard &) = delete;
    SeqlockWriteGuard &operator=(const SeqlockWriteGuard &) = delete;

  private:
    Seqlock &lock_;
};

} // namespace csr::serve

#endif // CSR_SERVE_SEQLOCK_H
