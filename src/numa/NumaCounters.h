/**
 * @file
 * Event counters of the CC-NUMA simulator's components.
 */

#ifndef CSR_NUMA_NUMACOUNTERS_H
#define CSR_NUMA_NUMACOUNTERS_H

#include <cstdint>

namespace csr
{

/**
 * One struct for every component's counters: a Processor counts the
 * proc fields, a CacheController the cache ones (coherence actions
 * on its lines included), a DirectoryController the dir ones and the
 * MeshNetwork the net ones.  NumaSystem::run sums them field by field.
 */
struct NumaCounters
{
    std::uint64_t cohDowngrade = 0;
    std::uint64_t cohFetchInv = 0;
    std::uint64_t cohFetchStale = 0;
    std::uint64_t cohInv = 0;
    std::uint64_t cohInvAbsent = 0;
    std::uint64_t l1Hit = 0;
    std::uint64_t l2Fill = 0;
    std::uint64_t l2Hint = 0;
    std::uint64_t l2Hit = 0;
    std::uint64_t l2MissRead = 0;
    std::uint64_t l2MissWrite = 0;
    std::uint64_t l2MshrCoalesce = 0;
    std::uint64_t l2SilentEvict = 0;
    std::uint64_t l2Writeback = 0;

    std::uint64_t dirGetS = 0;
    std::uint64_t dirGetX = 0;
    std::uint64_t dirInvs = 0; ///< invalidations sent
    std::uint64_t dirMemAccess = 0;
    std::uint64_t dirPutE = 0;
    std::uint64_t dirPutERace = 0;
    std::uint64_t dirPutEStale = 0;
    std::uint64_t dirPutM = 0;
    std::uint64_t dirPutMRace = 0;
    std::uint64_t dirPutMStale = 0;
    std::uint64_t dirPutS = 0;
    std::uint64_t dirPutSStale = 0;
    std::uint64_t dirQueued = 0;
    std::uint64_t dirStaleFetchResp = 0;

    std::uint64_t netFlits = 0;
    std::uint64_t netHopTotal = 0;
    std::uint64_t netLocal = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netQueueNs = 0;

    std::uint64_t procL1Hit = 0;
    std::uint64_t procL2Hit = 0;
    std::uint64_t procMiss = 0;
    std::uint64_t procStall = 0;
};

/**
 * The one list of NumaCounters, in name order: calls
 * @p visit(name, field...) per counter with its dotted name and that
 * member of each object in @p o.  A new counter is one row here.
 */
template <typename Visit, typename... T>
void
forEachNumaCounter(Visit &&visit, T &...o)
{
    visit("cache.coh.downgrade", o.cohDowngrade...);
    visit("cache.coh.fetch_inv", o.cohFetchInv...);
    visit("cache.coh.fetch_stale", o.cohFetchStale...);
    visit("cache.coh.inv", o.cohInv...);
    visit("cache.coh.inv_absent", o.cohInvAbsent...);
    visit("cache.l1.hit", o.l1Hit...);
    visit("cache.l2.fill", o.l2Fill...);
    visit("cache.l2.hint", o.l2Hint...);
    visit("cache.l2.hit", o.l2Hit...);
    visit("cache.l2.miss.read", o.l2MissRead...);
    visit("cache.l2.miss.write", o.l2MissWrite...);
    visit("cache.l2.mshr.coalesce", o.l2MshrCoalesce...);
    visit("cache.l2.silent_evict", o.l2SilentEvict...);
    visit("cache.l2.writeback", o.l2Writeback...);
    visit("dir.gets", o.dirGetS...);
    visit("dir.getx", o.dirGetX...);
    visit("dir.invs", o.dirInvs...);
    visit("dir.mem_access", o.dirMemAccess...);
    visit("dir.pute", o.dirPutE...);
    visit("dir.pute_race", o.dirPutERace...);
    visit("dir.pute_stale", o.dirPutEStale...);
    visit("dir.putm", o.dirPutM...);
    visit("dir.putm_race", o.dirPutMRace...);
    visit("dir.putm_stale", o.dirPutMStale...);
    visit("dir.puts", o.dirPutS...);
    visit("dir.puts_stale", o.dirPutSStale...);
    visit("dir.queued", o.dirQueued...);
    visit("dir.stale_fetch_resp", o.dirStaleFetchResp...);
    visit("net.flits", o.netFlits...);
    visit("net.hop_total", o.netHopTotal...);
    visit("net.local", o.netLocal...);
    visit("net.messages", o.netMessages...);
    visit("net.queue_ns", o.netQueueNs...);
    visit("proc.l1hit", o.procL1Hit...);
    visit("proc.l2hit", o.procL2Hit...);
    visit("proc.miss", o.procMiss...);
    visit("proc.stall", o.procStall...);
}

} // namespace csr

#endif // CSR_NUMA_NUMACOUNTERS_H
