/**
 * @file
 * Home-node directory controller (blocking MESI directory).
 *
 * Each node is home for the blocks first-touched by ... whichever
 * processor touched them first (the HomeMap implements the per-block
 * first-touch placement of Table 4).  The home serializes coherence:
 * at most one transaction per block is in flight; requests arriving
 * for a busy block queue FIFO.  Invalidation acknowledgements are
 * collected at the home before the write reply is sent.
 *
 * Directory states: Uncached, Shared{sharers}, Exclusive{owner}
 * (the owner may hold the line E or M; dirtiness is discovered on
 * Fetch).  With replacement hints off, the directory tolerates stale
 * owner/sharer info: Fetch/Inv to nodes that silently evicted are
 * answered with FetchStale/InvAck.
 */

#ifndef CSR_NUMA_DIRECTORY_H
#define CSR_NUMA_DIRECTORY_H

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "numa/Event.h"
#include "numa/Network.h"
#include "numa/NumaConfig.h"
#include "numa/NumaCounters.h"
#include "numa/Protocol.h"

namespace csr
{

/**
 * Global first-touch home assignment (one instance per system).
 */
class HomeMap
{
  public:
    /** Home of a block; assigns @p toucher as home on first touch. */
    ProcId
    homeOf(Addr block, ProcId toucher)
    {
        auto [it, inserted] = map_.try_emplace(block, toucher);
        (void)inserted;
        return it->second;
    }

    /** Home if already assigned, else the toucher-independent
     *  fallback of kInvalidAddr-like sentinel (used by stats). */
    bool
    known(Addr block) const
    {
        return map_.find(block) != map_.end();
    }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<Addr, ProcId> map_;
};

/** Directory state of one block at its home. */
struct DirEntry
{
    enum class State : std::uint8_t
    {
        Uncached,
        Shared,
        Exclusive,
    };

    State state = State::Uncached;
    ProcId owner = 0;
    std::vector<ProcId> sharers; // small; nodes <= 16
};

/**
 * Per-miss service record, consumed by the Table 3 latency
 * correlator and by tests.
 */
struct MissService
{
    ProcId requester = 0;
    Addr block = 0;
    bool write = false;                 ///< GetX vs GetS
    DirEntry::State stateAtArrival = DirEntry::State::Uncached;
    bool ownerWasDirty = false;         ///< E-state miss hit a dirty copy
    Tick unloadedLatency = 0;           ///< analytic zero-contention ns
};

/** The home-side controller of one node. */
class DirectoryController
{
  public:
    using MissObserver = std::function<void(const MissService &)>;

    DirectoryController(ProcId node, const NumaConfig &config,
                        EventQueue &events, MeshNetwork &network);

    /** Handle a home-bound message (requests, hints, acks). */
    void receive(const Message &msg);

    /** Observer invoked once per serviced GetS/GetX. */
    void setMissObserver(MissObserver observer)
    {
        observer_ = std::move(observer);
    }

    const NumaCounters &counters() const { return counters_; }

    /** Directory state introspection (tests). */
    const DirEntry *entryOf(Addr block) const;
    bool busy(Addr block) const { return txns_.count(block) != 0; }
    /** In-flight transactions (stall diagnostics). */
    std::size_t pendingTransactions() const { return txns_.size(); }
    const std::unordered_map<Addr, DirEntry> &entries() const
    {
        return dir_;
    }

  private:
    /** In-flight transaction bookkeeping. */
    struct Txn
    {
        Message req;
        DirEntry::State stateAtArrival = DirEntry::State::Uncached;
        std::uint32_t pendingAcks = 0;
        bool waitingFetch = false;
        bool memDone = false;
        bool dataFromOwner = false; ///< PutM/FetchResp(dirty) arrived
        bool ownerWasDirty = false;
    };

    void startTransaction(const Message &req);
    void handleGetS(Txn &txn);
    void handleGetX(Txn &txn);
    void handleAck(const Message &msg);
    void handleFetchDone(const Message &msg);
    void handlePutM(const Message &msg);
    void handlePutS(const Message &msg);
    void handlePutE(const Message &msg);

    /** Try to finish the transaction (all acks + mem + fetch done). */
    void maybeComplete(Addr block);
    /** Send the data reply, update the directory, pop the queue. */
    void complete(Addr block);

    /** Schedule a DRAM access; cb fires at completion (read) --
     *  writes pass a null cb. */
    void accessMemory(Addr block, std::function<void()> cb);

    void
    sendToCache(MsgType type, Addr block, ProcId dst, ProcId requester,
                Tick timestamp, bool dirty = false);

    /** Analytic unloaded service latency for the Table 3 classes. */
    Tick unloadedServiceLatency(const Txn &txn) const;

    ProcId node_;
    NumaConfig config_;
    EventQueue &events_;
    MeshNetwork &network_;
    std::unordered_map<Addr, DirEntry> dir_;
    std::unordered_map<Addr, Txn> txns_;
    std::unordered_map<Addr, std::deque<Message>> waiting_;
    std::vector<Tick> bankFree_;
    MissObserver observer_;
    NumaCounters counters_;
};

} // namespace csr

#endif // CSR_NUMA_DIRECTORY_H
