/**
 * @file
 * ACL -- the Adaptive Cost-sensitive LRU algorithm (Section 2.5).
 */

#ifndef CSR_CACHE_ACLPOLICY_H
#define CSR_CACHE_ACLPOLICY_H

#include <vector>

#include "cache/DclPolicy.h"

namespace csr
{

/**
 * Adaptive Cost-sensitive LRU.
 *
 * DCL extended with a per-set two-bit saturating counter (Figure 2)
 * that enables reservations while greater than zero:
 *
 *   - a reservation success (hit on the reserved LRU block)
 *     increments the counter, a failure (eviction of the reserved
 *     block) decrements it;
 *   - the counter starts at zero, so every set starts with
 *     reservations disabled;
 *   - while disabled, victim selection is pure LRU, but an evicted
 *     LRU block enters the ETD whenever some other cached block had
 *     a lower cost (i.e. whenever DCL would have reserved it).  A
 *     subsequent access hitting that ETD entry is strong evidence a
 *     reservation would have saved cost: all ETD entries are dropped
 *     and the counter jumps to two, re-enabling reservations.
 *
 * The ETD is cleared on every enable/disable transition because its
 * meaning differs between modes (sacrificed blocks vs. missed
 * reservation opportunities).
 */
class AclPolicy : public DclPolicy
{
  public:
    /** Saturation limit of the two-bit counter. */
    static constexpr std::uint32_t kCounterMax = 3;
    /** Counter value installed when an ETD hit re-enables a set. */
    static constexpr std::uint32_t kEnableValue = 2;

    explicit AclPolicy(const CacheGeometry &geom,
                       unsigned etd_alias_bits = 0,
                       double depreciation_factor = 2.0)
        : DclPolicy(geom, etd_alias_bits, depreciation_factor),
          counter_(geom.numSets(), 0)
    {
    }

    std::string
    name() const override
    {
        return etd_.aliasBits() ? "ACL(alias)" : "ACL";
    }

    /** Reservations are enabled while the counter is positive. */
    bool enabled(std::uint32_t set) const { return counter_[set] > 0; }

    /** Automaton state (0..3) of a set -- introspection for tests. */
    std::uint32_t counterOf(std::uint32_t set) const
    {
        return counter_[set];
    }

    int
    selectVictim(std::uint32_t set) override
    {
        if (enabled(set))
            return DclPolicy::selectVictim(set);

        // Disabled: pure LRU, but watch for the opportunity we are
        // passing up.  The evicted LRU block enters the ETD if any
        // other cached block is cheaper (the reservation condition).
        const int n = stackSize(set);
        csr_assert(n > 0, "victim requested on empty set");
        const int lru = wayAt(set, n);
        const Cost lru_cost = costOf(set, lru);
        for (int pos = n - 1; pos >= 1; --pos) {
            if (costOf(set, wayAt(set, pos)) < lru_cost) {
                etd_.insert(set, tagOf(set, lru), lru_cost);
                ++counters_.aclWatchInsert;
                break;
            }
        }
        return lru;
    }

    void
    reset() override
    {
        DclPolicy::reset();
        std::fill(counter_.begin(), counter_.end(), 0);
    }

  protected:
    void
    onMissAccess(std::uint32_t set, Addr tag) override
    {
        if (enabled(set)) {
            DclPolicy::onMissAccess(set, tag);
            return;
        }
        if (etd_.lookupAndInvalidate(set, tag)) {
            // We would have saved this miss by reserving: re-enable.
            etd_.invalidateAll(set);
            counter_[set] = kEnableValue;
            ++counters_.aclReenable;
            CSR_TRACE_INSTANT_V("policy", "acl.reenable", kEnableValue);
        }
    }

    void
    onHit(std::uint32_t set, int way, int old_pos) override
    {
        if (enabled(set)) {
            DclPolicy::onHit(set, way, old_pos);
        } else {
            // Keep the base reservation bookkeeping consistent (no
            // reservation can be active while disabled, so this is a
            // recency-only update).
            CostSensitiveLruBase::onHit(set, way, old_pos);
        }
    }

    void
    onReservationSucceeded(std::uint32_t set) override
    {
        if (counter_[set] < kCounterMax)
            ++counter_[set];
        CSR_TRACE_INSTANT_V("policy", "acl.counter_up", counter_[set]);
    }

    void
    onReservationFailed(std::uint32_t set) override
    {
        if (counter_[set] > 0)
            --counter_[set];
        CSR_TRACE_INSTANT_V("policy", "acl.counter_down", counter_[set]);
        if (counter_[set] == 0) {
            // Mode switch: the ETD's meaning changes, drop stale
            // sacrifice records.
            etd_.invalidateAll(set);
            ++counters_.aclDisable;
            CSR_TRACE_INSTANT("policy", "acl.disable");
        }
    }

  private:
    std::vector<std::uint32_t> counter_;
};

} // namespace csr

#endif // CSR_CACHE_ACLPOLICY_H
