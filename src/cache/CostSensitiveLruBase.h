/**
 * @file
 * Shared machinery of the paper's LRU-based cost-sensitive policies
 * (BCL, DCL, ACL): the depreciated reservation cost Acost, the victim
 * scan of Figure 1, and reservation success/failure bookkeeping.
 */

#ifndef CSR_CACHE_COSTSENSITIVELRUBASE_H
#define CSR_CACHE_COSTSENSITIVELRUBASE_H

#include <vector>

#include "cache/StackPolicyBase.h"
#include "telemetry/Telemetry.h"

namespace csr
{

/**
 * Base of BCL / DCL / ACL.
 *
 * Maintains one computed cost field per set, Acost, attached to the
 * blockframe currently at the LRU position.  Whenever a block enters
 * the LRU position, Acost is (re)loaded with that block's miss cost
 * (Figure 1, upon_entering_LRU_position).  Derived policies decide
 * when and by how much Acost is depreciated.
 *
 * The victim scan (findReservationVictim) implements Figure 1's
 * find_victim loop: walk the LRU stack from the second-LRU position
 * toward the MRU and return the first block whose cost is strictly
 * lower than Acost; if none exists the LRU block itself is the victim.
 * Skipped higher-cost, low-locality blocks are thereby implicitly
 * reserved, which is how one *or several* simultaneous reservations
 * fall out of the same loop (Section 2.3).
 */
class CostSensitiveLruBase : public StackPolicyBase
{
  public:
    /**
     * @param geom                cache geometry
     * @param depreciation_factor multiplier applied to a sacrificed
     *        block's cost when depreciating Acost.  The paper uses 2
     *        ("using twice the cost instead of once the cost is safer
     *        because it accelerates the depreciation"); the ablation
     *        bench sweeps this.
     */
    CostSensitiveLruBase(const CacheGeometry &geom,
                         double depreciation_factor = 2.0)
        : StackPolicyBase(geom), depreciationFactor_(depreciation_factor),
          acost_(geom.numSets(), 0.0), reserved_(geom.numSets(), 0)
    {
        usesLruHook_ = true;
        usesHitHook_ = true;
        // The whole BCL/DCL/ACL onHit chain only acts on hits at the
        // LRU position (reservation success, ETD drop), so access()
        // may skip the dispatch for every hit above it.
        hitHookLruOnly_ = true;
    }

    /** Current depreciated cost of the reserved LRU block of a set. */
    Cost acostOf(std::uint32_t set) const { return acost_[set]; }

    /** True while the set's LRU blockframe is under reservation. */
    bool isReserved(std::uint32_t set) const { return reserved_[set] != 0; }

    double depreciationFactor() const { return depreciationFactor_; }

    void
    reset() override
    {
        StackPolicyBase::reset();
        std::fill(acost_.begin(), acost_.end(), 0.0);
        std::fill(reserved_.begin(), reserved_.end(), 0);
    }

  protected:
    /**
     * Figure 1 victim scan.  Returns the way to victimize; when it is
     * not the LRU way, a reservation is (re)started for the LRU block
     * and the reservation counter bookkeeping is updated.  Does NOT
     * depreciate Acost -- BCL does that inline, DCL on ETD hits.
     */
    int
    findReservationVictim(std::uint32_t set)
    {
        const int n = stackSize(set);
        csr_assert(n > 0, "victim requested on empty set");
        // Positions n-1 (second-LRU) down to 1 (MRU); position n is
        // the LRU block being considered for reservation.
        for (int pos = n - 1; pos >= 1; --pos) {
            const int way = wayAt(set, pos);
            if (costOf(set, way) < acost_[set]) {
                if (!reserved_[set]) {
                    reserved_[set] = 1;
                    ++counters_.reservationStart;
                    CSR_TRACE_INSTANT_V("policy", "reservation.open",
                                        acost_[set]);
                }
                ++counters_.reservationSacrifice;
                return way;
            }
        }
        // No cheaper block: the LRU block is evicted.  If it was under
        // reservation, the reservation has failed.
        if (reserved_[set]) {
            reserved_[set] = 0;
            ++counters_.reservationFail;
            CSR_TRACE_INSTANT("policy", "reservation.expired");
            onReservationFailed(set);
        }
        return wayAt(set, n);
    }

    /** Depreciate Acost by depreciationFactor_ * cost, clamped at 0. */
    void
    depreciate(std::uint32_t set, Cost cost)
    {
        const Cost amount = depreciationFactor_ * cost;
        acost_[set] = acost_[set] > amount ? acost_[set] - amount : 0.0;
        CSR_TRACE_INSTANT_V("policy", "reservation.depreciated",
                            acost_[set]);
    }

    /** Hook: a reservation ended because the reserved block was
     *  evicted (ACL decrements its counter here). */
    virtual void onReservationFailed(std::uint32_t set) { (void)set; }

    /** Hook: a reservation ended because the reserved block was hit
     *  (ACL increments its counter here). */
    virtual void onReservationSucceeded(std::uint32_t set) { (void)set; }

    void
    onLruChanged(std::uint32_t set, int lru_way) override
    {
        // A new block occupies the LRU position: load Acost with its
        // miss cost (Figure 1).  An empty set clears Acost.
        acost_[set] = lru_way == kInvalidWay ? 0.0 : costOf(set, lru_way);
    }

    void
    onHit(std::uint32_t set, int way, int old_pos) override
    {
        // old_pos was computed before promotion, so the LRU position
        // at the time of the access was stackSize(set).
        if (old_pos == stackSize(set) && reserved_[set]) {
            reserved_[set] = 0;
            ++counters_.reservationSuccess;
            CSR_TRACE_INSTANT("policy", "reservation.success");
            onReservationSucceeded(set);
        }
        (void)way;
    }

    void
    onInvalidateWay(std::uint32_t set, Addr tag, int way) override
    {
        // External invalidation of the reserved LRU block ends the
        // reservation without scoring it as success or failure.
        if (reserved_[set] && way == lruWay(set)) {
            reserved_[set] = 0;
            ++counters_.reservationInvalidated;
        }
        (void)tag;
    }

  private:
    double depreciationFactor_;
    std::vector<Cost> acost_;
    std::vector<std::uint8_t> reserved_;
};

} // namespace csr

#endif // CSR_CACHE_COSTSENSITIVELRUBASE_H
