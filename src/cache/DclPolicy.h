/**
 * @file
 * DCL -- the Dynamic Cost-sensitive LRU algorithm (Section 2.4).
 */

#ifndef CSR_CACHE_DCLPOLICY_H
#define CSR_CACHE_DCLPOLICY_H

#include "cache/CostSensitiveLruBase.h"
#include "cache/ExtendedTagDirectory.h"

namespace csr
{

/**
 * Dynamic Cost-sensitive LRU.
 *
 * Victim selection is identical to BCL (Figure 1 scan), but the
 * reserved block's cost is depreciated only when a block sacrificed
 * in its place is *actually re-referenced* before the reserved block,
 * which the ETD detects:
 *
 *   - sacrificing a non-LRU block allocates an ETD entry with the
 *     victim's tag and cost;
 *   - an access that misses in the cache but hits in the ETD
 *     depreciates Acost by 2x the entry's cost and invalidates the
 *     entry;
 *   - a hit on the LRU block (the reservation paid off) invalidates
 *     every ETD entry of the set;
 *   - a coherence invalidation scrubs a matching ETD entry.
 *
 * Tag aliasing (storing only a few low-order tag bits in the ETD) is
 * supported via @p etd_alias_bits; false matches merely accelerate
 * depreciation (Section 4.3 finds the effect marginal).
 */
class DclPolicy : public CostSensitiveLruBase
{
  public:
    /**
     * @param geom                cache geometry (the ETD gets
     *                            assoc-1 entries per set)
     * @param etd_alias_bits      0 = full tags, else low-bit aliasing
     * @param depreciation_factor see CostSensitiveLruBase
     */
    explicit DclPolicy(const CacheGeometry &geom,
                       unsigned etd_alias_bits = 0,
                       double depreciation_factor = 2.0)
        : CostSensitiveLruBase(geom, depreciation_factor),
          etd_(geom.numSets(),
               geom.assoc() > 1 ? geom.assoc() - 1 : 1,
               etd_alias_bits)
    {
        usesMissHook_ = true;
    }

    std::string
    name() const override
    {
        return etd_.aliasBits() ? "DCL(alias)" : "DCL";
    }

    int
    selectVictim(std::uint32_t set) override
    {
        const int victim = findReservationVictim(set);
        if (victim != lruWay(set)) {
            // Remember the sacrificed block; its return will be the
            // evidence that the reservation cost a real miss.
            etd_.insert(set, tagOf(set, victim), costOf(set, victim));
            ++counters_.etdInsert;
        }
        return victim;
    }

    const ExtendedTagDirectory &etd() const { return etd_; }

    void
    reset() override
    {
        CostSensitiveLruBase::reset();
        etd_.reset();
    }

    void
    checkInvariants() const override
    {
        CostSensitiveLruBase::checkInvariants();
        etd_.checkInvariants();
    }

  protected:
    void
    onMissAccess(std::uint32_t set, Addr tag) override
    {
        if (auto cost = etd_.lookupAndInvalidate(set, tag)) {
            // The sacrificed block came back before the reserved one:
            // charge the reservation.
            CSR_TRACE_INSTANT_V("policy", "etd.hit", *cost);
            depreciate(set, *cost);
            ++counters_.etdHit;
        }
    }

    void
    onHit(std::uint32_t set, int way, int old_pos) override
    {
        const bool was_lru = old_pos == stackSize(set);
        CostSensitiveLruBase::onHit(set, way, old_pos);
        if (was_lru) {
            // Hit on the (possibly reserved) LRU block: the pending
            // evidence is moot, drop it.
            etd_.invalidateAll(set);
        }
    }

    void
    onInvalidateWay(std::uint32_t set, Addr tag, int way) override
    {
        CostSensitiveLruBase::onInvalidateWay(set, tag, way);
        etd_.invalidateTag(set, tag);
    }

    void
    onInvalidateAbsent(std::uint32_t set, Addr tag) override
    {
        etd_.invalidateTag(set, tag);
    }

    ExtendedTagDirectory etd_;
};

} // namespace csr

#endif // CSR_CACHE_DCLPOLICY_H
