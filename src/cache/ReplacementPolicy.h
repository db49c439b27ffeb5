/**
 * @file
 * Abstract interface for (cost-sensitive) replacement policies.
 *
 * The CacheModel that owns the per-(set, way) tag/cost state drives
 * the policy through a fixed protocol for every access to a set:
 *
 *   1. access(set, tag, hit_way)  -- always, before any fill.  On a hit,
 *      hit_way is the resident way; on a miss it is kInvalidWay.  This
 *      is where recency updates, ETD lookups and cost depreciation
 *      happen (the paper checks the ETD "upon every cache access").
 *   2. on a miss that must evict, selectVictim(set) -- only when the
 *      set has no invalid way.  Returns the way to evict.  The owner
 *      evicts it, then the policy is told about the new block via
 *   3. fill(set, way, tag, cost) -- the new block is installed with its
 *      predicted next-miss cost.
 *
 * External invalidations (coherence) call invalidate(); this also
 * scrubs any ETD record of the tag, per Section 2.4 of the paper.
 * Costs of resident lines can be refreshed via updateCost() when a
 * dynamic cost model produces a new prediction.
 *
 * Policies are stateful per set but know nothing about addresses
 * beyond (set, tag) pairs, so the same objects serve the trace-driven
 * L2 and the NUMA cache controller.
 */

#ifndef CSR_CACHE_REPLACEMENTPOLICY_H
#define CSR_CACHE_REPLACEMENTPOLICY_H

#include <cstdint>
#include <memory>
#include <string>

#include "cache/CacheGeometry.h"
#include "util/Types.h"

namespace csr
{

class CacheModel;

/**
 * Events of the paper's mechanisms: reservations (Figure 1), ETD
 * inserts and hits, ACL's enable/disable automaton (Figure 2) and
 * GD's evictions.  Each policy counts the events it has; every other
 * field stays 0.
 */
struct PolicyCounters
{
    std::uint64_t aclDisable = 0;
    std::uint64_t aclReenable = 0;
    std::uint64_t aclWatchInsert = 0;
    std::uint64_t reservationFail = 0;
    std::uint64_t reservationInvalidated = 0;
    std::uint64_t reservationSacrifice = 0;
    std::uint64_t reservationStart = 0;
    std::uint64_t reservationSuccess = 0;
    std::uint64_t etdHit = 0;
    std::uint64_t etdInsert = 0;
    std::uint64_t gdEvictions = 0;

    bool operator==(const PolicyCounters &) const = default;
};

/**
 * The one list of PolicyCounters, in name order: calls
 * @p visit(name, field...) per counter with its dotted name and that
 * member of each object in @p o.  A new counter is one row here.
 */
template <typename Visit, typename... T>
void
forEachPolicyCounter(Visit &&visit, T &...o)
{
    visit("acl.disable", o.aclDisable...);
    visit("acl.reenable", o.aclReenable...);
    visit("acl.watch.insert", o.aclWatchInsert...);
    visit("csl.reservation.fail", o.reservationFail...);
    visit("csl.reservation.invalidated", o.reservationInvalidated...);
    visit("csl.reservation.sacrifice", o.reservationSacrifice...);
    visit("csl.reservation.start", o.reservationStart...);
    visit("csl.reservation.success", o.reservationSuccess...);
    visit("dcl.etd.hit", o.etdHit...);
    visit("dcl.etd.insert", o.etdInsert...);
    visit("gd.evictions", o.gdEvictions...);
}

/**
 * Base class of all replacement policies.
 */
class ReplacementPolicy
{
  public:
    explicit ReplacementPolicy(const CacheGeometry &geom) : geom_(geom) {}
    virtual ~ReplacementPolicy() = default;

    ReplacementPolicy(const ReplacementPolicy &) = delete;
    ReplacementPolicy &operator=(const ReplacementPolicy &) = delete;

    /**
     * Attach the policy to the CacheModel that owns the per-(set, way)
     * tag/cost state it reads.  Called once by the model's
     * constructor; policies must be driven through a CacheModel.
     */
    virtual void bind(CacheModel &model) { model_ = &model; }

    /** Short identifier, e.g. "LRU", "BCL". */
    virtual std::string name() const = 0;

    /**
     * Notify the policy of an access to (set, tag).
     *
     * @param set     set index
     * @param tag     tag of the accessed block
     * @param hit_way resident way on a hit, kInvalidWay on a miss
     */
    virtual void access(std::uint32_t set, Addr tag, int hit_way) = 0;

    /**
     * Choose the way to evict from a full set.  Never returns
     * kInvalidWay.  May mutate reservation state (e.g. depreciate the
     * reserved block's cost in BCL).
     */
    virtual int selectVictim(std::uint32_t set) = 0;

    /**
     * A new block was installed.  @p way is either the victim returned
     * by selectVictim() or a previously invalid way.
     *
     * @param cost predicted cost of the block's *next* miss
     */
    virtual void fill(std::uint32_t set, int way, Addr tag, Cost cost) = 0;

    /**
     * External invalidation.  @p way is the resident way being
     * invalidated, or kInvalidWay when the block is not resident (the
     * call is still made so the ETD entry, if any, can be scrubbed).
     */
    virtual void invalidate(std::uint32_t set, Addr tag, int way) = 0;

    /** Refresh the predicted next-miss cost of a resident line.  The
     *  default ignores the update (cost-blind policies). */
    virtual void
    updateCost(std::uint32_t set, int way, Cost cost)
    {
        (void)set;
        (void)way;
        (void)cost;
    }

    /** Reset all recency / reservation / ETD state and the
     *  counters. */
    virtual void reset() = 0;

    /** --validate hook: verify internal state against the bound
     *  model, throwing InvariantError on corruption.  The default
     *  has nothing to check. */
    virtual void checkInvariants() const {}

    const CacheGeometry &geometry() const { return geom_; }

    const PolicyCounters &counters() const { return counters_; }

  protected:
    CacheGeometry geom_;
    PolicyCounters counters_;
    /** The owning CacheModel; set by bind(). */
    CacheModel *model_ = nullptr;
};

/** Owning handle used throughout the simulators. */
using PolicyPtr = std::unique_ptr<ReplacementPolicy>;

} // namespace csr

#endif // CSR_CACHE_REPLACEMENTPOLICY_H
