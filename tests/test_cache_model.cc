/**
 * @file
 * CacheModel protocol tests.
 *
 * The centerpiece is a golden-equivalence check: every policy is
 * driven through a fixed synthetic trace via the shared CacheModel
 * protocol (access / fillVictimOrFree / invalidateTag / updateCost),
 * and the resulting victim sequence (FNV-hashed), aggregate miss cost
 * and hit/miss counts must match constants captured from the
 * pre-CacheModel implementation, where drivers hand-rolled the same
 * protocol against a separate TagArray.  Any behavioral drift in the
 * refactored access path -- victim choice, hook order, eviction
 * notification -- changes the hash.  The offline oracles run as
 * TraceStudy's whole-trace pass on the same stream and pin cost, hits
 * and misses.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/CacheModel.h"
#include "cache/DclPolicy.h"
#include "cache/GreedyDualPolicy.h"
#include "cache/PolicyFactory.h"
#include "sim/TraceStudy.h"

using namespace csr;

namespace
{

struct Lcg
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

double
blockCost(std::uint64_t block)
{
    return 1.0 + static_cast<double>((block * 2654435761ULL >> 7) & 7);
}

struct GoldenResult
{
    std::uint64_t hash;
    double aggCost;
    std::uint64_t hits;
    std::uint64_t misses;
};

constexpr std::uint64_t kBlocks = 512;
constexpr int kAccesses = 30000;

/** The golden block stream: 60% of accesses to 64 hot blocks. */
std::vector<Addr>
goldenStream()
{
    Lcg rng{12345};
    std::vector<Addr> stream;
    for (int i = 0; i < kAccesses; ++i) {
        const std::uint64_t r = rng.next() % 100;
        stream.push_back(r < 60 ? rng.next() % 64
                                : 64 + rng.next() % (kBlocks - 64));
    }
    return stream;
}

GoldenResult
runPolicy(PolicyKind kind, bool with_invalidations)
{
    const CacheGeometry geom(4096, 4, 64);
    CacheModel model(geom, makePolicy(kind, geom, PolicyParams{}));

    const std::vector<Addr> stream = goldenStream();
    std::vector<std::uint64_t> inval_blocks;
    Lcg aux{98765};
    for (int i = 0; i < kAccesses; ++i)
        inval_blocks.push_back(aux.next() % kBlocks);

    GoldenResult res{kFnvOffset, 0.0, 0, 0};
    for (int i = 0; i < kAccesses; ++i) {
        const Addr addr = stream[static_cast<std::size_t>(i)] * 64;
        const std::uint32_t set = geom.setIndex(addr);
        const Addr tag = geom.tag(addr);
        const int hit_way = model.access(set, tag);
        if (hit_way != kInvalidWay) {
            mix(res.hash, 1);
            ++res.hits;
        } else {
            const double cost = blockCost(addr / geom.blockBytes());
            bool evicted = false;
            const int way = model.fillVictimOrFree(
                set, tag, cost, 0,
                [&](int, Addr victim_tag, std::uint32_t) {
                    mix(res.hash, 2);
                    mix(res.hash, victim_tag);
                    evicted = true;
                });
            if (!evicted)
                mix(res.hash, 3);
            mix(res.hash, static_cast<std::uint64_t>(way));
            res.aggCost += cost;
            ++res.misses;
        }
        if (with_invalidations && i % 97 == 0) {
            const Addr iaddr =
                inval_blocks[static_cast<std::size_t>(i)] * 64;
            const int way =
                model.invalidateTag(geom.setIndex(iaddr), geom.tag(iaddr));
            mix(res.hash, way == kInvalidWay ? 4 : 5);
        }
        if (with_invalidations && i % 131 == 0) {
            // Refresh the cost of a pseudo-random resident line.
            const std::uint32_t set2 =
                static_cast<std::uint32_t>(i / 131) % geom.numSets();
            const int way =
                static_cast<int>(static_cast<std::uint32_t>(i / 131) %
                                 geom.assoc());
            if (model.isValid(set2, way)) {
                const double cost = 1.0 + static_cast<double>(i % 131 % 9);
                model.updateCost(set2, way, cost);
                mix(res.hash, 6);
            }
        }
    }
    return res;
}

struct GoldenCase
{
    const char *name;
    PolicyKind kind;
    bool invals;
    GoldenResult expected;
};

// Captured from the pre-CacheModel (TagArray-era) implementation.
const GoldenCase kGolden[] = {
    {"Lru", PolicyKind::Lru, true,
     {0xe7da2336858f1d3eULL, 88855.0, 10318, 19682}},
    // Recaptured when RandomPolicy's draws became per set.
    {"Random", PolicyKind::Random, true,
     {0x40ffe2b993d90ac2ULL, 92158.0, 9615, 20385}},
    {"Lfu", PolicyKind::Lfu, true,
     {0x1f6cea5acd4c5ba6ULL, 68802.0, 14782, 15218}},
    {"Gd", PolicyKind::GreedyDual, true,
     {0xcfd924888d2641d5ULL, 84060.0, 10080, 19920}},
    {"Bcl", PolicyKind::Bcl, true,
     {0x27f2aa695ef6ca69ULL, 85222.0, 10117, 19883}},
    {"Dcl", PolicyKind::Dcl, true,
     {0x54c26213b7d0cdf1ULL, 83848.0, 9858, 20142}},
    {"Acl", PolicyKind::Acl, true,
     {0x7ca6a5430ae98641ULL, 84924.0, 10052, 19948}},
};

/** blockCost as a cost model, for the oracle pass. */
class BlockCost : public CostModel
{
  public:
    Cost missCost(Addr block) const override { return blockCost(block); }
    std::string describe() const override { return "blockCost"; }
};

/** The offline oracles on the golden stream (no invalidations): the
 *  counts the deleted Belady policies printed through CacheModel. */
const GoldenCase kOracleGolden[] = {
    {"Opt", PolicyKind::Opt, false, {0, 58769.0, 16914, 13086}},
    {"CostOpt", PolicyKind::CostOpt, false, {0, 55411.0, 16353, 13647}},
};

TEST(CacheModelGolden, VictimSequencesMatchPreRefactorImplementation)
{
    for (const GoldenCase &c : kGolden) {
        SCOPED_TRACE(c.name);
        const GoldenResult r = runPolicy(c.kind, c.invals);
        EXPECT_EQ(r.hash, c.expected.hash);
        EXPECT_DOUBLE_EQ(r.aggCost, c.expected.aggCost);
        EXPECT_EQ(r.hits, c.expected.hits);
        EXPECT_EQ(r.misses, c.expected.misses);
    }

    SampledTrace trace;
    for (const Addr block : goldenStream())
        trace.records.push_back({block * 64, 0, false});
    TraceSimConfig config;
    config.useL1 = false;
    config.l2Bytes = 4096;
    config.l2Assoc = 4;
    const TraceStudy study(trace, config);
    const BlockCost model;
    for (const GoldenCase &c : kOracleGolden) {
        SCOPED_TRACE(c.name);
        const TraceSimResult r = study.run(c.kind, model);
        EXPECT_DOUBLE_EQ(r.aggregateCost, c.expected.aggCost);
        EXPECT_EQ(r.l2Hits, c.expected.hits);
        EXPECT_EQ(r.l2Misses, c.expected.misses);
    }
}

TEST(CacheModel, InvalidateNonResidentTagScrubsEtd)
{
    // 4 sets x 4 ways.  Make the first-filled block (the LRU one)
    // expensive so DCL reserves it and sacrifices the cheap second-LRU
    // block, whose tag then lands in the ETD.
    const CacheGeometry g(1024, 4, 64);
    auto policy = std::make_unique<DclPolicy>(g);
    const DclPolicy *dcl = policy.get();
    CacheModel model(g, std::move(policy));
    const std::uint32_t set = 0;

    model.access(set, 0);
    model.fillVictimOrFree(set, 0, 8.0);
    for (Addr t = 1; t < 4; ++t) {
        model.access(set, t);
        model.fillVictimOrFree(set, t, 1.0);
    }
    model.access(set, 4);
    model.fillVictimOrFree(set, 4, 1.0);

    // Tag 1 (second-LRU, cost 1 < Acost 8) was sacrificed: it is gone
    // from the cache but retained by the ETD.
    EXPECT_EQ(model.lookup(set, 1), kInvalidWay);
    ASSERT_TRUE(dcl->etd().contains(set, 1));

    // A coherence invalidation of the now non-resident tag must still
    // reach the policy and scrub the ETD entry (Section 2.4).
    EXPECT_EQ(model.invalidateTag(set, 1), kInvalidWay);
    EXPECT_FALSE(dcl->etd().contains(set, 1));
}

TEST(CacheModel, UpdateCostRefreshesModelAndGreedyDualCredit)
{
    const CacheGeometry g(1024, 4, 64);
    auto policy = std::make_unique<GreedyDualPolicy>(g);
    const GreedyDualPolicy *gd = policy.get();
    CacheModel model(g, std::move(policy));
    const std::uint32_t set = 1;

    for (Addr t = 0; t < 4; ++t) {
        model.access(set, 10 + t);
        model.fillVictimOrFree(set, 10 + t, 4.0);
    }
    const int way = model.lookup(set, 12);
    ASSERT_NE(way, kInvalidWay);

    model.updateCost(set, way, 0.5);
    EXPECT_DOUBLE_EQ(model.costAt(set, way), 0.5);
    EXPECT_DOUBLE_EQ(gd->creditOf(set, way), 0.5);

    // The refreshed (now lowest) credit redirects GD's next victim
    // choice to that way.
    model.access(set, 99);
    bool evicted = false;
    Addr victim_tag = 0;
    model.fillVictimOrFree(set, 99, 4.0, 0,
                           [&](int, Addr vt, std::uint32_t) {
                               evicted = true;
                               victim_tag = vt;
                           });
    EXPECT_TRUE(evicted);
    EXPECT_EQ(victim_tag, Addr{12});
}

} // namespace
