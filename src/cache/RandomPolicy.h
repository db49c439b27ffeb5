/**
 * @file
 * Random replacement -- a sanity baseline for the evaluation harness.
 */

#ifndef CSR_CACHE_RANDOMPOLICY_H
#define CSR_CACHE_RANDOMPOLICY_H

#include <algorithm>
#include <vector>

#include "cache/StackPolicyBase.h"
#include "util/Random.h"

namespace csr
{

/**
 * Uniform-random victim selection among resident ways.  Each draw is
 * a function of (seed, set, that set's draw count), so a set's victims
 * depend only on that set's own accesses: like every other policy's
 * state, they are the same whatever order the sets are replayed in.
 */
class RandomPolicy : public StackPolicyBase
{
  public:
    explicit RandomPolicy(const CacheGeometry &geom,
                          std::uint64_t seed = 0xC5CADAull)
        : StackPolicyBase(geom), seed_(seed), draws_(geom.numSets(), 0)
    {
    }

    std::string name() const override { return "Random"; }

    int
    selectVictim(std::uint32_t set) override
    {
        const int n = stackSize(set);
        csr_assert(n > 0, "victim requested on empty set");
        const std::uint64_t draw =
            hashMix64(hashMix64(seed_ ^ set) + draws_[set]++);
        return wayAt(set, 1 + static_cast<int>(
                                  draw % static_cast<std::uint64_t>(n)));
    }

    void
    reset() override
    {
        StackPolicyBase::reset();
        std::fill(draws_.begin(), draws_.end(), 0);
    }

  private:
    std::uint64_t seed_;
    /** Victims drawn so far, per set. */
    std::vector<std::uint64_t> draws_;
};

} // namespace csr

#endif // CSR_CACHE_RANDOMPOLICY_H
