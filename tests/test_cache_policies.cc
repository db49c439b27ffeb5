/**
 * @file
 * Unit tests for the replacement-policy framework and the paper's
 * algorithms (GD, BCL, DCL, ACL), including hand-verified scenario
 * walk-throughs of Figure 1 / Section 2 semantics, ETD behaviour,
 * the ACL automaton, the policy factory, and the Section 5 hardware
 * overhead model.  The offline oracles are TraceStudy's; their tests
 * live in test_trace_sim.cc.
 */

#include <gtest/gtest.h>

#include "cache/AclPolicy.h"
#include "cache/BclPolicy.h"
#include "cache/DclPolicy.h"
#include "cache/ExtendedTagDirectory.h"
#include "cache/GreedyDualPolicy.h"
#include "cache/HwOverhead.h"
#include "cache/LfuPolicy.h"
#include "cache/LruPolicy.h"
#include "cache/PolicyFactory.h"
#include "cache/RandomPolicy.h"
#include "robust/Errors.h"
#include "util/Random.h"

#include "TestHelpers.h"

namespace csr
{
namespace
{

using test::MiniCache;
using test::blk;
using test::singleSet;

/** Cost table where block n costs what the test assigns (default 1). */
TableCost
costs(std::initializer_list<std::pair<Addr, Cost>> entries)
{
    TableCost t(1.0);
    for (const auto &[block, cost] : entries)
        t.set(block, cost);
    return t;
}

// ---------------------------------------------------------------------------
// CacheGeometry / CacheModel
// ---------------------------------------------------------------------------

TEST(CacheGeometry, PaperL2Decomposition)
{
    CacheGeometry g(16 * 1024, 4, 64); // the paper's L2
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.blockBits(), 6);
    EXPECT_EQ(g.setBits(), 6);
    const Addr addr = 0xABCDEF40;
    EXPECT_EQ(g.blockAddr(addr), addr >> 6);
    EXPECT_EQ(g.setIndex(addr), (addr >> 6) & 63);
    EXPECT_EQ(g.tag(addr), addr >> 12);
    EXPECT_EQ(g.blockAddrOf(g.setIndex(addr), g.tag(addr)),
              g.blockAddr(addr));
}

TEST(CacheGeometry, DirectMapped)
{
    CacheGeometry g(4 * 1024, 1, 64); // the paper's L1
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.assoc(), 1u);
}

TEST(CacheModel, InstallLookupInvalidate)
{
    CacheGeometry g = singleSet(4);
    CacheModel model(g); // policy-less raw store
    EXPECT_EQ(model.lookup(0, 7), kInvalidWay);
    EXPECT_EQ(model.findFreeWay(0), 0);
    model.install(0, 0, 7);
    model.install(0, 1, 8);
    EXPECT_EQ(model.lookup(0, 7), 0);
    EXPECT_EQ(model.lookup(0, 8), 1);
    EXPECT_EQ(model.findFreeWay(0), 2);
    EXPECT_EQ(model.countValid(), 2u);
    EXPECT_EQ(model.validCountOf(0), 2);
    model.invalidateWay(0, 0);
    EXPECT_EQ(model.lookup(0, 7), kInvalidWay);
    EXPECT_EQ(model.findFreeWay(0), 0);
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed)
{
    TableCost flat(1.0);
    MiniCache cache(singleSet(4),
                    std::make_unique<LruPolicy>(singleSet(4)), flat);
    for (Addr n : {1, 2, 3, 4})
        EXPECT_FALSE(cache.access(blk(n)));
    EXPECT_TRUE(cache.access(blk(1))); // promote 1
    EXPECT_FALSE(cache.access(blk(5)));
    // Victim must be 2 (the LRU after 1's promotion).
    EXPECT_FALSE(cache.isResident(blk(2)));
    for (Addr n : {1, 3, 4, 5})
        EXPECT_TRUE(cache.isResident(blk(n))) << "block " << n;
}

TEST(Lru, InvalidationFreesWay)
{
    TableCost flat(1.0);
    MiniCache cache(singleSet(2),
                    std::make_unique<LruPolicy>(singleSet(2)), flat);
    cache.access(blk(1));
    cache.access(blk(2));
    cache.invalidate(blk(1));
    EXPECT_FALSE(cache.isResident(blk(1)));
    // Next miss fills the freed way without evicting 2.
    cache.access(blk(3));
    EXPECT_TRUE(cache.isResident(blk(2)));
    EXPECT_TRUE(cache.isResident(blk(3)));
}

TEST(Lru, StackIsPermutationUnderRandomOps)
{
    CacheGeometry g(1024, 4, 64); // 4 sets x 4 ways
    auto policy = std::make_unique<LruPolicy>(g);
    LruPolicy *lru = policy.get();
    TableCost flat(1.0);
    MiniCache cache(g, std::move(policy), flat);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const Addr addr = blk(rng.nextBelow(64));
        if (rng.nextBool(0.1))
            cache.invalidate(addr);
        else
            cache.access(addr);
    }
    for (std::uint32_t set = 0; set < g.numSets(); ++set) {
        const auto &stack = lru->stackOf(set);
        std::set<int> seen(stack.begin(), stack.end());
        EXPECT_EQ(seen.size(), stack.size()) << "duplicate way in stack";
        std::uint32_t valid = 0;
        for (std::uint32_t w = 0; w < g.assoc(); ++w)
            valid += cache.model().isValid(set, static_cast<int>(w)) ? 1 : 0;
        EXPECT_EQ(valid, stack.size()) << "stack != valid lines";
    }
}

// ---------------------------------------------------------------------------
// GreedyDual
// ---------------------------------------------------------------------------

TEST(GreedyDual, EvictsMinCreditAndDeflates)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<GreedyDualPolicy>(singleSet(4));
    GreedyDualPolicy *gd = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5));
    // Min credit is 1 (blocks 2,3,4); ties break toward the LRU end,
    // so block 2 goes; survivors are deflated by 1.
    EXPECT_FALSE(cache.isResident(blk(2)));
    EXPECT_TRUE(cache.isResident(blk(1)));
    const std::uint32_t set = 0;
    const int way1 = cache.model().lookup(set, cache.geometry().tag(blk(1)));
    EXPECT_DOUBLE_EQ(gd->creditOf(set, way1), 3.0);
}

TEST(GreedyDual, HitRestoresFullCost)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<GreedyDualPolicy>(singleSet(4));
    GreedyDualPolicy *gd = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // deflates block 1 to 3
    EXPECT_TRUE(cache.access(blk(1)));
    const int way1 = cache.model().lookup(0, cache.geometry().tag(blk(1)));
    EXPECT_DOUBLE_EQ(gd->creditOf(0, way1), 4.0);
}

TEST(GreedyDual, HighCostBlockSurvivesManyEvictions)
{
    auto table = costs({{1, 8.0}});
    MiniCache cache(singleSet(4),
                    std::make_unique<GreedyDualPolicy>(singleSet(4)),
                    table);
    cache.access(blk(1));
    for (Addr n = 2; n <= 8; ++n)
        cache.access(blk(n));
    // Seven cheap fills later the cost-8 block is still resident:
    // deflation only happens when the victim's own credit is
    // non-zero, which occurs once every few evictions here.
    EXPECT_TRUE(cache.isResident(blk(1)));
    // Keep streaming cheap blocks: the credit eventually drains and
    // the expensive block goes.
    for (Addr n = 9; n <= 40; ++n)
        cache.access(blk(n));
    EXPECT_FALSE(cache.isResident(blk(1)));
}

// ---------------------------------------------------------------------------
// BCL (Figure 1 semantics)
// ---------------------------------------------------------------------------

TEST(Bcl, ReservationAndTwoXDepreciation)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);

    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 4.0); // Acost = cost of LRU (blk 1)

    // Miss 5: the scan finds block 2 (second-LRU, cost 1 < 4);
    // Acost is depreciated by 2*1.
    cache.access(blk(5));
    EXPECT_FALSE(cache.isResident(blk(2)));
    EXPECT_TRUE(cache.isResident(blk(1)));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 2.0);
    EXPECT_TRUE(bcl->isReserved(0));

    // Miss 6 sacrifices block 3; Acost hits 0.
    cache.access(blk(6));
    EXPECT_FALSE(cache.isResident(blk(3)));
    EXPECT_TRUE(cache.isResident(blk(1)));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 0.0);

    // Miss 7: nothing is cheaper than Acost=0, so the reserved LRU
    // block finally goes -- a failed reservation.
    cache.access(blk(7));
    EXPECT_FALSE(cache.isResident(blk(1)));
    EXPECT_FALSE(bcl->isReserved(0));
    EXPECT_EQ(bcl->counters().reservationStart, 1u);
    EXPECT_EQ(bcl->counters().reservationSacrifice, 2u);
    EXPECT_EQ(bcl->counters().reservationFail, 1u);
}

TEST(Bcl, AcostReloadsWhenNewBlockEntersLruPosition)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 4.0);
    // Hit on the LRU block: block 2 becomes LRU, Acost = its cost.
    EXPECT_TRUE(cache.access(blk(1)));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 1.0);
    // With Acost=1 nothing is strictly cheaper: pure LRU behaviour.
    cache.access(blk(5));
    EXPECT_FALSE(cache.isResident(blk(2)));
}

TEST(Bcl, ReservationSuccessOnLruHit)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // reserves block 1
    EXPECT_TRUE(bcl->isReserved(0));
    EXPECT_TRUE(cache.access(blk(1))); // the bet pays off
    EXPECT_FALSE(bcl->isReserved(0));
    EXPECT_EQ(bcl->counters().reservationSuccess, 1u);
    // Block 3 is the new LRU.
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 1.0);
}

TEST(Bcl, ScanSkipsExpensiveNonLruBlocks)
{
    // LRU block costs 3; the second-LRU costs 4 (skipped: implicit
    // secondary reservation); the third-LRU costs 1 and is sacrificed.
    auto table = costs({{1, 4.0}, {2, 3.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {2, 1, 3, 4})
        cache.access(blk(n)); // stack [4,3,1,2], LRU=2, Acost=3
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 3.0);
    cache.access(blk(5));
    EXPECT_FALSE(cache.isResident(blk(3)));
    EXPECT_TRUE(cache.isResident(blk(1)));
    EXPECT_TRUE(cache.isResident(blk(2)));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 1.0); // 3 - 2*1
}

TEST(Bcl, InvalidationOfReservedBlockEndsReservationNeutrally)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // reserve block 1
    EXPECT_TRUE(bcl->isReserved(0));
    cache.invalidate(blk(1));
    EXPECT_FALSE(bcl->isReserved(0));
    EXPECT_EQ(bcl->counters().reservationSuccess, 0u);
    EXPECT_EQ(bcl->counters().reservationFail, 0u);
    EXPECT_EQ(bcl->counters().reservationInvalidated, 1u);
}

TEST(Bcl, DepreciationFactorIsConfigurable)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4), 1.0);
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5));
    EXPECT_DOUBLE_EQ(bcl->acostOf(0), 3.0); // 4 - 1*1
}

TEST(Bcl, InfiniteRatioNeverDepreciates)
{
    // Infinite cost ratio: low cost 0, high cost 1 (Section 3.1).
    auto table = costs({{1, 1.0}, {2, 0.0}, {3, 0.0}, {4, 0.0},
                        {5, 0.0}, {6, 0.0}, {7, 0.0}, {8, 0.0}});
    auto policy = std::make_unique<BclPolicy>(singleSet(4));
    BclPolicy *bcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    // Zero-cost sacrifices never deplete Acost: the high-cost block
    // is reserved for as long as zero-cost blocks exist.
    for (Addr n = 5; n <= 8; ++n) {
        cache.access(blk(n));
        EXPECT_TRUE(cache.isResident(blk(1)));
        EXPECT_DOUBLE_EQ(bcl->acostOf(0), 1.0);
    }
}

// ---------------------------------------------------------------------------
// ETD
// ---------------------------------------------------------------------------

TEST(Etd, InsertLookupInvalidate)
{
    ExtendedTagDirectory etd(2, 3);
    EXPECT_FALSE(etd.contains(0, 10));
    etd.insert(0, 10, 2.0);
    EXPECT_TRUE(etd.contains(0, 10));
    EXPECT_FALSE(etd.contains(1, 10)); // per-set isolation
    auto hit = etd.lookupAndInvalidate(0, 10);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(*hit, 2.0);
    EXPECT_FALSE(etd.contains(0, 10)); // consumed
    EXPECT_FALSE(etd.lookupAndInvalidate(0, 10).has_value());
}

TEST(Etd, LruAllocationEvictsOldest)
{
    ExtendedTagDirectory etd(1, 3);
    etd.insert(0, 1, 1.0);
    etd.insert(0, 2, 1.0);
    etd.insert(0, 3, 1.0);
    etd.insert(0, 4, 1.0); // evicts tag 1 (oldest)
    EXPECT_FALSE(etd.contains(0, 1));
    EXPECT_TRUE(etd.contains(0, 2));
    EXPECT_TRUE(etd.contains(0, 4));
    EXPECT_EQ(etd.validCount(0), 3u);
}

TEST(Etd, DuplicateInsertRefreshesInPlace)
{
    ExtendedTagDirectory etd(1, 3);
    etd.insert(0, 1, 1.0);
    etd.insert(0, 1, 5.0);
    EXPECT_EQ(etd.validCount(0), 1u);
    auto hit = etd.lookupAndInvalidate(0, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(*hit, 5.0);
}

TEST(Etd, InvalidateAllAndTag)
{
    ExtendedTagDirectory etd(1, 3);
    etd.insert(0, 1, 1.0);
    etd.insert(0, 2, 1.0);
    etd.invalidateTag(0, 1);
    EXPECT_FALSE(etd.contains(0, 1));
    EXPECT_TRUE(etd.contains(0, 2));
    etd.invalidateAll(0);
    EXPECT_EQ(etd.validCount(0), 0u);
}

TEST(Etd, TagAliasingCausesFalseMatches)
{
    ExtendedTagDirectory etd(1, 3, /*alias_bits=*/2);
    etd.insert(0, 0b0010, 1.0);
    // 0b0110 aliases to the same low 2 bits (0b10).
    EXPECT_TRUE(etd.contains(0, 0b0110));
    auto hit = etd.lookupAndInvalidate(0, 0b0110);
    EXPECT_TRUE(hit.has_value());
}

// ---------------------------------------------------------------------------
// DCL
// ---------------------------------------------------------------------------

TEST(Dcl, DepreciationOnlyOnEtdHit)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<DclPolicy>(singleSet(4));
    DclPolicy *dcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    const CacheGeometry g = singleSet(4);

    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // sacrifice block 2 -> ETD
    EXPECT_FALSE(cache.isResident(blk(2)));
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 4.0); // NOT depreciated (vs BCL)
    EXPECT_TRUE(dcl->etd().contains(0, g.tag(blk(2))));

    cache.access(blk(6)); // sacrifice block 3 -> ETD
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 4.0);

    // Block 2 returns: the reservation provably cost a miss; only now
    // is Acost depreciated (by 2x the entry's cost).
    cache.access(blk(2));
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 2.0);
    EXPECT_FALSE(dcl->etd().contains(0, g.tag(blk(2))));
    EXPECT_EQ(dcl->counters().etdHit, 1u);

    // Block 3 returns too: Acost is exhausted mid-access, so the
    // refill evicts the reserved LRU block (failure).  A new block
    // then occupies the LRU position and Acost reloads to its cost.
    cache.access(blk(3));
    EXPECT_FALSE(cache.isResident(blk(1)));
    EXPECT_EQ(dcl->counters().reservationFail, 1u);
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 1.0); // cost of the new LRU block
}

TEST(Dcl, LruHitInvalidatesAllEtdEntries)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<DclPolicy>(singleSet(4));
    DclPolicy *dcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5));
    cache.access(blk(6));
    EXPECT_EQ(dcl->etd().validCount(0), 2u);
    EXPECT_TRUE(cache.access(blk(1))); // hit on the reserved LRU block
    EXPECT_EQ(dcl->etd().validCount(0), 0u);
    EXPECT_EQ(dcl->counters().reservationSuccess, 1u);
}

TEST(Dcl, CoherenceInvalidationScrubsEtd)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<DclPolicy>(singleSet(4));
    DclPolicy *dcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    const CacheGeometry g = singleSet(4);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // block 2 -> ETD
    cache.invalidate(blk(2));
    EXPECT_FALSE(dcl->etd().contains(0, g.tag(blk(2))));
    // Invalidating a block that is nowhere must not crash.
    cache.invalidate(blk(42));
}

TEST(Dcl, EtdTagsExclusiveWithCacheTags)
{
    CacheGeometry g(1024, 4, 64);
    auto table = costs({{1, 8.0}, {5, 8.0}, {9, 4.0}});
    auto policy = std::make_unique<DclPolicy>(g);
    DclPolicy *dcl = policy.get();
    MiniCache cache(g, std::move(policy), table);
    Rng rng(1234);
    for (int i = 0; i < 4000; ++i) {
        const Addr addr = blk(rng.nextBelow(48));
        if (rng.nextBool(0.05))
            cache.invalidate(addr);
        else
            cache.access(addr);
        // Exclusivity invariant (full tags only): no resident tag may
        // also be valid in the ETD.
        for (std::uint32_t set = 0; set < g.numSets(); ++set) {
            for (std::uint32_t w = 0; w < g.assoc(); ++w) {
                const int way = static_cast<int>(w);
                if (cache.model().isValid(set, way)) {
                    ASSERT_FALSE(dcl->etd().contains(
                        set, cache.model().tagAt(set, way)))
                        << "resident tag also in ETD";
                }
            }
        }
    }
}

TEST(Dcl, AliasedEtdFalseMatchDepreciatesEarly)
{
    // With 2 low tag bits, blocks 2 and 6 alias (10 vs 110).
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<DclPolicy>(singleSet(4),
                                              /*etd_alias_bits=*/2);
    DclPolicy *dcl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // block 2 (tag 2) -> ETD, masked to 0b10
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 4.0);
    // Block 6 (tag 0b110) falsely matches and depreciates Acost.
    cache.access(blk(6));
    EXPECT_DOUBLE_EQ(dcl->acostOf(0), 2.0);
    EXPECT_EQ(dcl->counters().etdHit, 1u);
}

TEST(Dcl, NamesReflectAliasing)
{
    EXPECT_EQ(DclPolicy(singleSet(4)).name(), "DCL");
    EXPECT_EQ(DclPolicy(singleSet(4), 4).name(), "DCL(alias)");
    EXPECT_EQ(AclPolicy(singleSet(4)).name(), "ACL");
    EXPECT_EQ(AclPolicy(singleSet(4), 4).name(), "ACL(alias)");
}

// ---------------------------------------------------------------------------
// ACL (Figure 2 automaton)
// ---------------------------------------------------------------------------

TEST(Acl, StartsDisabledAndEvictsLruDespiteCost)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<AclPolicy>(singleSet(4));
    AclPolicy *acl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    EXPECT_EQ(acl->counterOf(0), 0u);
    EXPECT_FALSE(acl->enabled(0));
    cache.access(blk(5));
    // Disabled: pure LRU -- the expensive block 1 goes, but it is
    // remembered in the ETD because cheaper blocks existed.
    EXPECT_FALSE(cache.isResident(blk(1)));
    EXPECT_TRUE(acl->etd().contains(0, singleSet(4).tag(blk(1))));
}

TEST(Acl, EtdHitWhileDisabledReenablesWithCounterTwo)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<AclPolicy>(singleSet(4));
    AclPolicy *acl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5)); // evicts 1, watches it in ETD
    cache.access(blk(1)); // the missed opportunity returns
    EXPECT_EQ(acl->counterOf(0), 2u);
    EXPECT_TRUE(acl->enabled(0));
    EXPECT_EQ(acl->etd().validCount(0), 0u);
    EXPECT_EQ(acl->counters().aclReenable, 1u);
}

TEST(Acl, SuccessIncrementsAndFailureDecrementsCounter)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<AclPolicy>(singleSet(4));
    AclPolicy *acl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);

    // Enable via the watch path.
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5));
    cache.access(blk(1));
    ASSERT_EQ(acl->counterOf(0), 2u);

    // Walk block 1 down to the LRU position with cheap fills.
    for (Addr n : {6, 7, 8})
        cache.access(blk(n));
    ASSERT_TRUE(cache.isResident(blk(1)));
    ASSERT_DOUBLE_EQ(acl->acostOf(0), 4.0);

    // Enabled reservation: miss 9 sacrifices a cheap block...
    cache.access(blk(9));
    EXPECT_TRUE(acl->isReserved(0));
    // ...and the reserved block is hit: success, counter -> 3.
    EXPECT_TRUE(cache.access(blk(1)));
    EXPECT_EQ(acl->counterOf(0), 3u);

    // Walk block 1 back down, then make the reservation fail.
    for (Addr n : {10, 11, 12})
        cache.access(blk(n));
    ASSERT_DOUBLE_EQ(acl->acostOf(0), 4.0);
    cache.access(blk(13)); // reserve, sacrifice one cheap block
    EXPECT_TRUE(acl->isReserved(0));
    // The sacrificed blocks come back (ETD hits): Acost drains, and
    // the next scans evict the reserved block -> failure.
    cache.access(blk(10));
    cache.access(blk(11));
    EXPECT_FALSE(cache.isResident(blk(1)));
    EXPECT_EQ(acl->counterOf(0), 2u);
    EXPECT_EQ(acl->counters().reservationFail, 1u);
}

TEST(Acl, CounterSaturatesAtThree)
{
    auto table = costs({{1, 4.0}});
    auto policy = std::make_unique<AclPolicy>(singleSet(4));
    AclPolicy *acl = policy.get();
    MiniCache cache(singleSet(4), std::move(policy), table);
    for (Addr n : {1, 2, 3, 4})
        cache.access(blk(n));
    cache.access(blk(5));
    cache.access(blk(1)); // counter = 2
    // Two successful reservations in a row.
    for (int round = 0; round < 3; ++round) {
        for (Addr n : {20, 21, 22})
            cache.access(blk(n + static_cast<Addr>(round) * 10));
        cache.access(blk(30 + static_cast<Addr>(round)));
        cache.access(blk(1)); // success
    }
    EXPECT_EQ(acl->counterOf(0), 3u); // saturated, not 5
}

TEST(Acl, UniformCostsNeverEnable)
{
    CacheGeometry g(1024, 4, 64);
    auto policy = std::make_unique<AclPolicy>(g);
    AclPolicy *acl = policy.get();
    TableCost flat(1.0);
    MiniCache cache(g, std::move(policy), flat);
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        cache.access(blk(rng.nextBelow(64)));
    for (std::uint32_t set = 0; set < g.numSets(); ++set)
        EXPECT_EQ(acl->counterOf(set), 0u);
}

// ---------------------------------------------------------------------------
// Uniform-cost equivalence with LRU (BCL / DCL / ACL)
// ---------------------------------------------------------------------------

class UniformCostEquivalence
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(UniformCostEquivalence, MatchesLruHitMissSequence)
{
    CacheGeometry g(2048, 4, 64); // 8 sets x 4 ways
    TableCost flat(1.0);
    MiniCache lru(g, makePolicy(PolicyKind::Lru, g), flat);
    MiniCache alg(g, makePolicy(GetParam(), g), flat);
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = blk(rng.nextBelow(200));
        if (rng.nextBool(0.03)) {
            lru.invalidate(addr);
            alg.invalidate(addr);
            continue;
        }
        ASSERT_EQ(lru.access(addr), alg.access(addr))
            << "diverged at access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(CostSensitive, UniformCostEquivalence,
                         ::testing::Values(PolicyKind::Bcl, PolicyKind::Dcl,
                                           PolicyKind::Acl),
                         [](const auto &info) {
                             return policyKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Cross-policy stress invariants
// ---------------------------------------------------------------------------

class PolicyStress : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(PolicyStress, SurvivesRandomOpsWithInvariants)
{
    CacheGeometry g(2048, 4, 64);
    auto policy = makePolicy(GetParam(), g);
    auto *stack = dynamic_cast<StackPolicyBase *>(policy.get());
    auto *csl = dynamic_cast<CostSensitiveLruBase *>(policy.get());
    ASSERT_NE(stack, nullptr);
    TableCost table(1.0);
    Rng cost_rng(50);
    for (Addr b = 0; b < 256; ++b)
        table.set(b, static_cast<Cost>(1 + cost_rng.nextBelow(8)));
    MiniCache cache(g, std::move(policy), table);
    Rng rng(51);
    for (int i = 0; i < 30000; ++i) {
        const Addr addr = blk(rng.nextBelow(256));
        if (rng.nextBool(0.08))
            cache.invalidate(addr);
        else
            cache.access(addr);
        if (i % 997 == 0) {
            for (std::uint32_t set = 0; set < g.numSets(); ++set) {
                const auto &order = stack->stackOf(set);
                std::set<int> seen(order.begin(), order.end());
                ASSERT_EQ(seen.size(), order.size());
                std::uint32_t valid = 0;
                for (std::uint32_t w = 0; w < g.assoc(); ++w)
                    valid += cache.model().isValid(set,
                                                   static_cast<int>(w))
                                 ? 1
                                 : 0;
                ASSERT_EQ(valid, order.size());
                if (csl) {
                    ASSERT_GE(csl->acostOf(set), 0.0);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyStress,
                         ::testing::Values(PolicyKind::Lru,
                                           PolicyKind::Lfu,
                                           PolicyKind::GreedyDual,
                                           PolicyKind::Bcl, PolicyKind::Dcl,
                                           PolicyKind::Acl),
                         [](const auto &info) {
                             return policyKindName(info.param);
                         });

// ---------------------------------------------------------------------------
// Policy factory
// ---------------------------------------------------------------------------

TEST(PolicyFactory, ParseRoundTrip)
{
    EXPECT_EQ(parsePolicyKind("lru"), PolicyKind::Lru);
    EXPECT_EQ(parsePolicyKind("GD"), PolicyKind::GreedyDual);
    EXPECT_EQ(parsePolicyKind("Bcl"), PolicyKind::Bcl);
    EXPECT_EQ(parsePolicyKind("DCL"), PolicyKind::Dcl);
    EXPECT_EQ(parsePolicyKind("acl"), PolicyKind::Acl);
    EXPECT_EQ(parsePolicyKind("opt"), PolicyKind::Opt);
    EXPECT_EQ(parsePolicyKind("belady"), PolicyKind::Opt);
    EXPECT_EQ(parsePolicyKind("costopt"), PolicyKind::CostOpt);
    // "csopt" is reserved for the exact cost-optimal schedule, which
    // the greedy CostOPT~ is not.
    EXPECT_EQ(parsePolicyKind("csopt"), std::nullopt);
}

TEST(PolicyFactory, CreatesEveryKind)
{
    CacheGeometry g = singleSet(4);
    for (PolicyKind kind :
         {PolicyKind::Lru, PolicyKind::Random, PolicyKind::Lfu,
          PolicyKind::GreedyDual, PolicyKind::Bcl, PolicyKind::Dcl,
          PolicyKind::Acl}) {
        PolicyPtr policy = makePolicy(kind, g);
        ASSERT_NE(policy, nullptr);
        EXPECT_FALSE(policy->name().empty());
    }
    // The offline oracles need the whole future: only TraceStudy runs
    // them, and the factory's refusal names the online policies.
    for (PolicyKind kind : {PolicyKind::Opt, PolicyKind::CostOpt}) {
        try {
            makePolicy(kind, g);
            ADD_FAILURE() << policyKindName(kind) << " was built";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(policyKindName(kind)),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(onlinePolicyNamesJoined()),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(PolicyFactory, PaperPoliciesOrder)
{
    const auto &kinds = paperPolicies();
    ASSERT_EQ(kinds.size(), 4u);
    EXPECT_EQ(kinds[0], PolicyKind::GreedyDual);
    EXPECT_EQ(kinds[1], PolicyKind::Bcl);
    EXPECT_EQ(kinds[2], PolicyKind::Dcl);
    EXPECT_EQ(kinds[3], PolicyKind::Acl);
}

// ---------------------------------------------------------------------------
// Hardware overhead model (Section 5)
// ---------------------------------------------------------------------------

TEST(HwOverhead, PaperDynamicCostExample)
{
    // 4-way, 25-bit tags, 8-bit cost fields, 64-byte blocks.
    HwOverheadParams p;
    EXPECT_EQ(hwBaselineBitsPerSet(p), 4u * (512 + 25));
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Bcl, p), 5u * 8);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::GreedyDual, p), 8u * 8);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Dcl, p),
              8u * 8 + 3u * 26);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Acl, p),
              8u * 8 + 3u * 26 + 3);
    // Paper: ~1.9%, ~2.7%, ~6.6%, ~6.7%.
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Bcl, p), 1.9, 0.1);
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Dcl, p), 6.6, 0.1);
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Acl, p), 6.7, 0.15);
}

TEST(HwOverhead, PaperStaticCostExample)
{
    HwOverheadParams p;
    p.staticCostTable = true;
    // Paper: 0.4%, 1.5%, 4.0%, 4.1%.
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Bcl, p), 0.4, 0.05);
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::GreedyDual, p), 1.5, 0.05);
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Dcl, p), 4.0, 0.05);
    EXPECT_NEAR(hwOverheadPercent(PolicyKind::Acl, p), 4.1, 0.1);
}

TEST(HwOverhead, PaperQuantizedLatencyExample)
{
    // Section 5's second example: 2-bit fixed costs, 3-bit computed
    // costs, 5 bits per ETD entry (4-bit aliased tag + valid).
    HwOverheadParams p;
    p.fixedCostBits = 2;
    p.computedCostBits = 3;
    p.etdTagBits = 4;
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Bcl, p), 11u);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::GreedyDual, p), 20u);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Dcl, p), 32u);
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Acl, p), 35u);
}

TEST(HwOverhead, LruIsZero)
{
    HwOverheadParams p;
    EXPECT_EQ(hwOverheadBitsPerSet(PolicyKind::Lru, p), 0u);
    EXPECT_EQ(hwOverheadPercent(PolicyKind::Lru, p), 0.0);
}

} // namespace
} // namespace csr
