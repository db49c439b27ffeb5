/**
 * @file
 * GreedyDual (GD) replacement, adapted to processor caches.
 *
 * GreedyDual [Young, Algorithmica'94; Cao & Irani, USITS'97] is the
 * cost-centric prior art the paper compares against (Section 2.1):
 *
 *   - every cached block carries a credit H, initialized to its miss
 *     cost when the block is brought in;
 *   - the victim is the block with the least H, regardless of recency;
 *   - when a block is victimized, its H is subtracted from the H of
 *     every block remaining in the set (the classic "inflate L"
 *     formulation, implemented by deflation to keep values bounded);
 *   - on a hit, the block's H is restored to its full miss cost.
 *
 * Ties on H are broken toward the LRU end of the recency stack, which
 * is the only other way locality enters the decision besides the
 * restore-on-hit rule.
 */

#ifndef CSR_CACHE_GREEDYDUALPOLICY_H
#define CSR_CACHE_GREEDYDUALPOLICY_H

#include <vector>

#include "cache/StackPolicyBase.h"

namespace csr
{

/**
 * GreedyDual for set-associative processor caches.
 *
 * Uses the CacheModel's cost field as the block's *full* miss cost and
 * keeps the depreciating credit H separately (the paper's Section 5
 * accounting: GD needs one fixed and one computed cost field per
 * block, i.e. 2s cost fields per set).
 */
class GreedyDualPolicy : public StackPolicyBase
{
  public:
    explicit GreedyDualPolicy(const CacheGeometry &geom)
        : StackPolicyBase(geom),
          credit_(static_cast<std::size_t>(geom.numSets()) * geom.assoc(),
                  0.0)
    {
        usesHitHook_ = true;
    }

    std::string name() const override { return "GD"; }

    int
    selectVictim(std::uint32_t set) override
    {
        const int n = stackSize(set);
        csr_assert(n > 0, "victim requested on empty set");
        // Scan from the LRU end so that equal credits evict the
        // least-recently-used block.
        int victim = wayAt(set, n);
        Cost min_credit = credit_[idx(set, victim)];
        for (int pos = n; pos >= 1; --pos) {
            const int way = wayAt(set, pos);
            if (credit_[idx(set, way)] < min_credit) {
                min_credit = credit_[idx(set, way)];
                victim = way;
            }
        }
        // Deflate every surviving block by the victim's credit.
        for (int pos = 1; pos <= n; ++pos) {
            const int way = wayAt(set, pos);
            if (way == victim)
                continue;
            Cost &h = credit_[idx(set, way)];
            h = h > min_credit ? h - min_credit : 0.0;
        }
        ++counters_.gdEvictions;
        return victim;
    }

    void
    fill(std::uint32_t set, int way, Addr tag, Cost cost) override
    {
        StackPolicyBase::fill(set, way, tag, cost);
        credit_[idx(set, way)] = cost;
    }

    void
    updateCost(std::uint32_t set, int way, Cost cost) override
    {
        // The CacheModel has already refreshed the stored cost; only
        // the credit needs resetting to the new full miss cost.
        credit_[idx(set, way)] = cost;
    }

    void
    reset() override
    {
        StackPolicyBase::reset();
        std::fill(credit_.begin(), credit_.end(), 0.0);
    }

    /** Current credit of a resident way (introspection for tests). */
    Cost creditOf(std::uint32_t set, int way) const
    {
        return credit_[idx(set, way)];
    }

  protected:
    void
    onHit(std::uint32_t set, int way, int old_pos) override
    {
        (void)old_pos;
        // Restore the full miss cost on every hit.
        credit_[idx(set, way)] = costOf(set, way);
    }

  private:
    std::vector<Cost> credit_;
};

} // namespace csr

#endif // CSR_CACHE_GREEDYDUALPOLICY_H
