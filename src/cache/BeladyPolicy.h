/**
 * @file
 * Offline (oracle) replacement policies.
 *
 * BeladyPolicy is the classic OPT/MIN algorithm that minimizes miss
 * *count*; CostAwareBeladyPolicy is a greedy cost-weighted variant.
 * Neither is part of the paper's online proposal -- they are reference
 * oracles for the bench_offline_bound extension experiment, standing in
 * for the offline optimum the paper discusses via its companion work
 * [Jeong & Dubois, SPAA'99].  Neither bounds cost: the true
 * cost-optimal schedule (CSOPT) requires search over reservation
 * schedules, the greedy variant here is a documented heuristic that can
 * save less than OPT, and an exact CSOPT is meant to replace both.
 */

#ifndef CSR_CACHE_BELADYPOLICY_H
#define CSR_CACHE_BELADYPOLICY_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/StackPolicyBase.h"

namespace csr
{

/**
 * Belady's OPT.  Must be primed with the exact future stream of block
 * addresses that will be presented to access(), in order; the policy
 * advances an internal cursor on every access and evicts the resident
 * block whose next use is farthest in the future (never-reused blocks
 * first).
 *
 * Because an L1 filter above the cache would make the access stream
 * depend on the L2's own evictions (through inclusion victims),
 * offline policies should only be used on caches fed a fixed stream
 * (the offline bench runs L2-only configurations).
 */
class BeladyPolicy : public StackPolicyBase
{
  public:
    explicit BeladyPolicy(const CacheGeometry &geom)
        : StackPolicyBase(geom)
    {
    }

    std::string name() const override { return "OPT"; }

    /**
     * Register the future access stream (block addresses, i.e. byte
     * addresses already divided by the block size).  Resets the
     * cursor.
     */
    void
    prepare(const std::vector<Addr> &block_stream)
    {
        occurrences_.clear();
        cursors_.clear();
        for (std::size_t i = 0; i < block_stream.size(); ++i)
            occurrences_[block_stream[i]].push_back(i);
        streamLen_ = block_stream.size();
        time_ = 0;
    }

    void
    access(std::uint32_t set, Addr tag, int hit_way) override
    {
        StackPolicyBase::access(set, tag, hit_way);
        ++time_;
    }

    int
    selectVictim(std::uint32_t set) override
    {
        const int n = stackSize(set);
        csr_assert(n > 0, "victim requested on empty set");
        int victim = kInvalidWay;
        double best = -1.0;
        for (int pos = 1; pos <= n; ++pos) {
            const int way = wayAt(set, pos);
            const Addr block = geom_.blockAddrOf(set, tagOf(set, way));
            const std::size_t next = nextUse(block);
            const double score = this->score(set, way, next);
            if (score > best) {
                best = score;
                victim = way;
            }
        }
        return victim;
    }

    void
    reset() override
    {
        StackPolicyBase::reset();
        time_ = 0;
        cursors_.clear();
    }

  protected:
    /**
     * Victim score; highest wins.  OPT scores by next-use distance
     * alone (never-reused == streamLen_ sorts above everything).
     */
    virtual double
    score(std::uint32_t set, int way, std::size_t next_use)
    {
        (void)set;
        (void)way;
        return static_cast<double>(next_use);
    }

    /** Index of the block's next use strictly after the current access
     *  (which has already advanced the cursor), or streamLen_ if it is
     *  never used again. */
    std::size_t
    nextUse(Addr block)
    {
        auto it = occurrences_.find(block);
        if (it == occurrences_.end())
            return streamLen_;
        const auto &occ = it->second;
        std::size_t &cur = cursors_[block]; // default 0
        while (cur < occ.size() && occ[cur] < time_)
            ++cur;
        return cur < occ.size() ? occ[cur] : streamLen_;
    }

    std::size_t streamLen_ = 0;
    std::size_t time_ = 0;

  private:
    std::unordered_map<Addr, std::vector<std::size_t>> occurrences_;
    std::unordered_map<Addr, std::size_t> cursors_;
};

/**
 * Greedy cost-weighted oracle: evicts the block with the largest
 * next-use-distance / cost ratio, i.e. prefers victims that are both
 * far in the future and cheap to bring back.  Never-reused blocks are
 * always evicted first (their miss cost is never paid).
 */
class CostAwareBeladyPolicy : public BeladyPolicy
{
  public:
    explicit CostAwareBeladyPolicy(const CacheGeometry &geom)
        : BeladyPolicy(geom)
    {
    }

    std::string name() const override { return "CostOPT~"; }

  protected:
    double
    score(std::uint32_t set, int way, std::size_t next_use) override
    {
        if (next_use >= streamLen_)
            return 2.0 * static_cast<double>(streamLen_ + 1);
        const double distance =
            static_cast<double>(next_use) - static_cast<double>(time_);
        const Cost cost = costOf(set, way);
        return distance / (cost > 0.0 ? cost : 0.5);
    }
};

} // namespace csr

#endif // CSR_CACHE_BELADYPOLICY_H
