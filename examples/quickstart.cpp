/**
 * @file
 * Quickstart: the csr library in ~60 lines.
 *
 * Builds the paper's 16 KB 4-way L2, attaches the DCL cost-sensitive
 * replacement policy, replays a synthetic access pattern in which
 * some blocks are 8x more expensive to re-fetch than others, and
 * compares the aggregate miss cost against plain LRU.
 *
 *   $ ./examples/quickstart
 */

#include <iostream>

#include "cache/CacheModel.h"
#include "cache/PolicyFactory.h"
#include "cost/StaticCostModels.h"
#include "robust/Errors.h"
#include "util/Random.h"

using namespace csr;

namespace
{

/** Replay `accesses` through a cache with the given policy and return
 *  the aggregate miss cost.  The CacheModel runs the same access
 *  protocol every csr simulator uses; see CacheModel.h. */
double
replay(PolicyKind kind, const std::vector<Addr> &accesses,
       const CostModel &cost)
{
    const CacheGeometry geom(16 * 1024, 4, 64); // paper's L2
    CacheModel cache(geom, makePolicy(kind, geom));
    double aggregate = 0.0;

    for (Addr addr : accesses) {
        const std::uint32_t set = geom.setIndex(addr);
        const Addr tag = geom.tag(addr);
        if (cache.access(set, tag) != kInvalidWay) // recency + ETD lookup
            continue; // hits are free
        const Cost c = cost.missCost(geom.blockAddr(addr));
        aggregate += c;
        cache.fillVictimOrFree(set, tag, c); // may reserve a block
    }
    return aggregate;
}

} // namespace

int
main()
try {
    // A cost function: blocks whose address hashes into the top 20%
    // cost 8, the rest cost 1 (think: remote vs local memory).
    RandomTwoCost cost(CostRatio::finite(8), /*haf=*/0.2);

    // A workload with reuse just past the cache's reach: loop over a
    // 24 KB working set (the 16 KB cache thrashes under LRU), plus
    // random noise.
    Rng rng(1);
    std::vector<Addr> accesses;
    for (int round = 0; round < 400; ++round) {
        for (Addr block = 0; block < 384; ++block) // 24 KB sweep
            accesses.push_back(block * 64);
        for (int i = 0; i < 64; ++i)               // pollution
            accesses.push_back((0x100000 + rng.nextBelow(4096)) * 64);
    }

    const double lru = replay(PolicyKind::Lru, accesses, cost);
    std::cout << "aggregate miss cost, LRU : " << lru << "\n";
    for (PolicyKind kind : paperPolicies()) {
        const double c = replay(kind, accesses, cost);
        std::cout << "aggregate miss cost, " << policyKindName(kind)
                  << (policyKindName(kind).size() < 3 ? "  : " : " : ")
                  << c << "  (savings "
                  << 100.0 * (lru - c) / lru << "%)\n";
    }
    std::cout << "\nCost-sensitive replacement keeps the expensive "
                 "blocks cached\nthrough the sweep; LRU treats every "
                 "miss as equal.\n";
    return 0;
} catch (const Error &e) {
    std::cerr << "quickstart: " << e.kind() << ": " << e.what() << "\n";
    return e.exitCode();
}
