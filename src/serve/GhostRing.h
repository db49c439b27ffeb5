/**
 * @file
 * GhostRing -- the bounded history of keys that left a serve stripe.
 *
 * A resident key's state lives in its line: the EWMA cost estimate in
 * the CacheModel cost lane, the sample count and value in the
 * stripe's lanes.  When the line leaves the cache (eviction or DEL)
 * that state moves into a fixed FIFO ring of `assoc` slots per set --
 * the online analogue of the paper's ETD, which keeps s-1 ghost tags
 * per set (PAPER.md section 2.4).  A miss or write-allocate of a
 * ghosted key takes its entry back, so the key resumes its estimate,
 * its fetch salt and, while the breaker is open, its stale value; a
 * key pushed out by `assoc` younger ghosts of its set starts over.  A
 * key is thus resident, in its set's ring, or nowhere, and a stripe's
 * per-key state is bounded by twice its lines.
 *
 * Tags sit in their own contiguous lane, probed with the same SIMD
 * sweep as CacheModel::lookup; the payload sits beside it.  Only ever
 * touched under the stripe mutex.
 */

#ifndef CSR_SERVE_GHOSTRING_H
#define CSR_SERVE_GHOSTRING_H

#include <cstdint>
#include <vector>

#include "cache/SimdScan.h"
#include "util/Types.h"

namespace csr::serve
{

/** One key's state: its EWMA backend latency, the samples behind it
 *  (also the key's backend salt) and its last value. */
struct KeyHistory
{
    double ewmaNs = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t value = 0;

    /** Fold a measured latency into the EWMA. */
    void
    observe(double latency_ns, double alpha)
    {
        ewmaNs = samples == 0 ? latency_ns
                              : alpha * latency_ns + (1.0 - alpha) * ewmaNs;
        ++samples;
    }
};

class GhostRing
{
  public:
    /** find()'s answer for a tag with no ghost. */
    static constexpr int kNone = -1;

    GhostRing(std::uint32_t num_sets, std::uint32_t assoc)
        : assoc_(assoc), wordsPerSet_((assoc + 63) / 64),
          tags_(static_cast<std::size_t>(num_sets) * assoc, 0),
          entries_(tags_.size()),
          valid_(static_cast<std::size_t>(num_sets) * wordsPerSet_, 0),
          head_(num_sets, 0)
    {
    }

    /** Slot of @p tag's ghost in @p set, or kNone. */
    int
    find(std::uint32_t set, Addr tag) const
    {
        const Addr *tags = &tags_[idx(set, 0)];
        for (std::uint32_t w = 0; w < wordsPerSet_; ++w) {
            const std::uint32_t lo = w * 64;
            const std::uint32_t n = assoc_ - lo < 64 ? assoc_ - lo : 64;
            const std::uint64_t hit = simd::tagEqMask(tags + lo, n, tag) &
                                      valid_[set * wordsPerSet_ + w];
            if (hit)
                return static_cast<int>(lo) + __builtin_ctzll(hit);
        }
        return kNone;
    }

    KeyHistory &entry(std::uint32_t set, int slot)
    {
        return entries_[idx(set, slot)];
    }

    const KeyHistory &entry(std::uint32_t set, int slot) const
    {
        return entries_[idx(set, slot)];
    }

    Addr tagAt(std::uint32_t set, int slot) const
    {
        return tags_[idx(set, slot)];
    }

    bool
    isValid(std::uint32_t set, int slot) const
    {
        return (valid_[word(set, slot)] >> (slot & 63)) & 1u;
    }

    /** Drop the ghost in @p slot (its key was re-admitted). */
    void
    erase(std::uint32_t set, int slot)
    {
        valid_[word(set, slot)] &= ~(std::uint64_t{1} << (slot & 63));
    }

    /** Record @p tag's @p history in @p set's next slot, overwriting
     *  the ghost pushed `assoc` pushes ago.  The caller guarantees
     *  @p tag is neither resident nor already ghosted. */
    void
    push(std::uint32_t set, Addr tag, const KeyHistory &history)
    {
        const int slot = static_cast<int>(head_[set]);
        head_[set] = (head_[set] + 1) & (assoc_ - 1);
        tags_[idx(set, slot)] = tag;
        entries_[idx(set, slot)] = history;
        valid_[word(set, slot)] |= std::uint64_t{1} << (slot & 63);
    }

    /** Valid ghosts across all sets. */
    std::uint64_t
    size() const
    {
        std::uint64_t n = 0;
        for (const std::uint64_t bits : valid_)
            n += static_cast<std::uint64_t>(__builtin_popcountll(bits));
        return n;
    }

  private:
    std::size_t
    idx(std::uint32_t set, int slot) const
    {
        return static_cast<std::size_t>(set) * assoc_ +
               static_cast<std::size_t>(slot);
    }

    /** Index of the valid word holding @p slot's bit. */
    std::size_t
    word(std::uint32_t set, int slot) const
    {
        return static_cast<std::size_t>(set) * wordsPerSet_ +
               (static_cast<std::uint32_t>(slot) >> 6);
    }

    std::uint32_t assoc_; ///< slots per set; a power of two
    std::uint32_t wordsPerSet_;
    std::vector<Addr> tags_;           // per (set, slot), contiguous
    std::vector<KeyHistory> entries_;  // per (set, slot)
    std::vector<std::uint64_t> valid_; // per-set bitmask words
    std::vector<std::uint32_t> head_;  // per set: the next slot to fill
};

} // namespace csr::serve

#endif // CSR_SERVE_GHOSTRING_H
