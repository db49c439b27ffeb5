#include "numa/Directory.h"

#include <algorithm>

#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

DirectoryController::DirectoryController(ProcId node,
                                         const NumaConfig &config,
                                         EventQueue &events,
                                         MeshNetwork &network)
    : node_(node), config_(config), events_(events), network_(network),
      bankFree_(config.memBanks, 0)
{
}

const DirEntry *
DirectoryController::entryOf(Addr block) const
{
    auto it = dir_.find(block);
    return it == dir_.end() ? nullptr : &it->second;
}

void
DirectoryController::receive(const Message &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX: {
        // Busy means: a transaction in flight, or a queued successor
        // waiting out the directory-occupancy delay before starting.
        auto wit = waiting_.find(msg.block);
        const bool queued = wit != waiting_.end() && !wit->second.empty();
        if (txns_.count(msg.block) || queued) {
            waiting_[msg.block].push_back(msg);
            ++counters_.dirQueued;
        } else {
            startTransaction(msg);
        }
        break;
      }
      case MsgType::InvAck:
        handleAck(msg);
        break;
      case MsgType::FetchResp:
      case MsgType::FetchStale:
        handleFetchDone(msg);
        break;
      case MsgType::PutM:
        handlePutM(msg);
        break;
      case MsgType::PutS:
        handlePutS(msg);
        break;
      case MsgType::PutE:
        handlePutE(msg);
        break;
      default:
        csr_panic("directory received %s", msgTypeName(msg.type).c_str());
    }
}

void
DirectoryController::startTransaction(const Message &req)
{
    Txn txn;
    txn.req = req;
    txn.stateAtArrival = dir_[req.block].state;
    auto [it, inserted] = txns_.emplace(req.block, txn);
    csr_assert(inserted, "transaction already in flight");
    ++(req.type == MsgType::GetS ? counters_.dirGetS : counters_.dirGetX);
    CSR_TRACE_INSTANT("numa", req.type == MsgType::GetS ? "dir.txn.gets"
                                                        : "dir.txn.getx");

    if (req.type == MsgType::GetS)
        handleGetS(it->second);
    else
        handleGetX(it->second);
}

void
DirectoryController::handleGetS(Txn &txn)
{
    DirEntry &entry = dir_[txn.req.block];
    const Addr block = txn.req.block;

    switch (entry.state) {
      case DirEntry::State::Uncached:
      case DirEntry::State::Shared:
        accessMemory(block, [this, block] {
            auto it = txns_.find(block);
            csr_assert(it != txns_.end(), "mem done without txn");
            it->second.memDone = true;
            maybeComplete(block);
        });
        break;
      case DirEntry::State::Exclusive:
        if (entry.owner == txn.req.src) {
            // Owner silently evicted a clean-exclusive line (no-hints
            // mode) and now re-reads: memory is valid.
            accessMemory(block, [this, block] {
                txns_.at(block).memDone = true;
                maybeComplete(block);
            });
        } else {
            txn.waitingFetch = true;
            sendToCache(MsgType::Fetch, block, entry.owner, txn.req.src,
                        txn.req.timestamp);
        }
        break;
    }
}

void
DirectoryController::handleGetX(Txn &txn)
{
    DirEntry &entry = dir_[txn.req.block];
    const Addr block = txn.req.block;

    switch (entry.state) {
      case DirEntry::State::Uncached:
        accessMemory(block, [this, block] {
            txns_.at(block).memDone = true;
            maybeComplete(block);
        });
        break;
      case DirEntry::State::Shared: {
        std::uint32_t invs = 0;
        for (ProcId sharer : entry.sharers) {
            if (sharer == txn.req.src)
                continue;
            sendToCache(MsgType::Inv, block, sharer, txn.req.src,
                        txn.req.timestamp);
            ++invs;
        }
        txn.pendingAcks = invs;
        counters_.dirInvs += invs;
        accessMemory(block, [this, block] {
            txns_.at(block).memDone = true;
            maybeComplete(block);
        });
        break;
      }
      case DirEntry::State::Exclusive:
        if (entry.owner == txn.req.src) {
            // Silent clean eviction followed by a write re-request.
            accessMemory(block, [this, block] {
                txns_.at(block).memDone = true;
                maybeComplete(block);
            });
        } else {
            txn.waitingFetch = true;
            sendToCache(MsgType::FetchInv, block, entry.owner,
                        txn.req.src, txn.req.timestamp);
        }
        break;
    }
}

void
DirectoryController::handleAck(const Message &msg)
{
    auto it = txns_.find(msg.block);
    csr_assert(it != txns_.end(), "InvAck without transaction");
    csr_assert(it->second.pendingAcks > 0, "unexpected InvAck");
    --it->second.pendingAcks;
    maybeComplete(msg.block);
}

void
DirectoryController::handleFetchDone(const Message &msg)
{
    auto it = txns_.find(msg.block);
    if (it == txns_.end()) {
        // A FetchStale can trail a transaction that a racing PutM
        // already completed; it is harmless.
        ++counters_.dirStaleFetchResp;
        return;
    }
    Txn &txn = it->second;
    csr_assert(txn.waitingFetch, "fetch response without fetch");
    txn.waitingFetch = false;

    if (msg.type == MsgType::FetchResp) {
        txn.ownerWasDirty = msg.dirty;
        if (msg.dirty) {
            txn.dataFromOwner = true;
            accessMemory(msg.block, nullptr); // writeback, off path
            txn.memDone = true;
            maybeComplete(msg.block);
            return;
        }
        // Clean copy at the owner: memory is valid, read it.
    }
    // FetchStale, or clean FetchResp: read memory (unless a racing
    // PutM already delivered the data).
    if (txn.dataFromOwner) {
        txn.memDone = true;
        maybeComplete(msg.block);
        return;
    }
    const Addr block = msg.block;
    accessMemory(block, [this, block] {
        txns_.at(block).memDone = true;
        maybeComplete(block);
    });
}

void
DirectoryController::handlePutM(const Message &msg)
{
    DirEntry &entry = dir_[msg.block];
    auto it = txns_.find(msg.block);
    if (it != txns_.end()) {
        // Racing with a Fetch/FetchInv for the same block: use the
        // writeback as the data; the FetchStale will complete us.
        it->second.dataFromOwner = true;
        it->second.ownerWasDirty = true;
        accessMemory(msg.block, nullptr);
        ++counters_.dirPutMRace;
        return;
    }
    if (entry.state == DirEntry::State::Exclusive &&
        entry.owner == msg.src) {
        accessMemory(msg.block, nullptr);
        entry.state = DirEntry::State::Uncached;
        entry.sharers.clear();
        ++counters_.dirPutM;
    } else {
        ++counters_.dirPutMStale;
    }
}

void
DirectoryController::handlePutS(const Message &msg)
{
    DirEntry &entry = dir_[msg.block];
    auto it = std::find(entry.sharers.begin(), entry.sharers.end(),
                        msg.src);
    if (it != entry.sharers.end()) {
        entry.sharers.erase(it);
        if (entry.sharers.empty() &&
            entry.state == DirEntry::State::Shared &&
            txns_.find(msg.block) == txns_.end()) {
            entry.state = DirEntry::State::Uncached;
        }
        ++counters_.dirPutS;
    } else {
        ++counters_.dirPutSStale;
    }
}

void
DirectoryController::handlePutE(const Message &msg)
{
    DirEntry &entry = dir_[msg.block];
    if (txns_.count(msg.block)) {
        // The in-flight Fetch will be answered with FetchStale; the
        // completion path rebuilds the entry.
        ++counters_.dirPutERace;
        return;
    }
    if (entry.state == DirEntry::State::Exclusive &&
        entry.owner == msg.src) {
        entry.state = DirEntry::State::Uncached;
        entry.sharers.clear();
        ++counters_.dirPutE;
    } else {
        ++counters_.dirPutEStale;
    }
}

void
DirectoryController::maybeComplete(Addr block)
{
    auto it = txns_.find(block);
    csr_assert(it != txns_.end(), "maybeComplete without txn");
    const Txn &txn = it->second;
    if (txn.pendingAcks == 0 && !txn.waitingFetch && txn.memDone)
        complete(block);
}

void
DirectoryController::complete(Addr block)
{
    const Txn txn = txns_.at(block);
    DirEntry &entry = dir_[block];
    const ProcId req = txn.req.src;

    if (txn.req.type == MsgType::GetS) {
        if (txn.stateAtArrival == DirEntry::State::Exclusive &&
            entry.owner != req) {
            // Downgrade: previous owner (if it still holds the line)
            // plus the requester now share it.
            entry.state = DirEntry::State::Shared;
            entry.sharers.clear();
            entry.sharers.push_back(entry.owner);
            entry.sharers.push_back(req);
            CSR_TRACE_INSTANT("numa", "coh.E_to_S");
            sendToCache(MsgType::DataS, block, req, req,
                        txn.req.timestamp);
        } else if (txn.stateAtArrival == DirEntry::State::Shared) {
            if (std::find(entry.sharers.begin(), entry.sharers.end(),
                          req) == entry.sharers.end()) {
                entry.sharers.push_back(req);
            }
            entry.state = DirEntry::State::Shared;
            CSR_TRACE_INSTANT("numa", "coh.S_to_S");
            sendToCache(MsgType::DataS, block, req, req,
                        txn.req.timestamp);
        } else {
            // Uncached (or silent self re-read): grant exclusive.
            entry.state = DirEntry::State::Exclusive;
            entry.owner = req;
            entry.sharers.clear();
            CSR_TRACE_INSTANT("numa", "coh.U_to_E");
            sendToCache(MsgType::DataE, block, req, req,
                        txn.req.timestamp);
        }
    } else {
        entry.state = DirEntry::State::Exclusive;
        entry.owner = req;
        entry.sharers.clear();
        CSR_TRACE_INSTANT("numa", "coh.to_M");
        sendToCache(MsgType::DataM, block, req, req, txn.req.timestamp);
    }

    if (observer_) {
        MissService service;
        service.requester = req;
        service.block = block;
        service.write = txn.req.type == MsgType::GetX;
        service.stateAtArrival = txn.stateAtArrival;
        service.ownerWasDirty = txn.ownerWasDirty;
        service.unloadedLatency = unloadedServiceLatency(txn);
        observer_(service);
    }

    txns_.erase(block);

    // Serve the next queued request for this block, paying the
    // directory occupancy again.  The message stays in the queue
    // until it actually starts so that the block reads as busy and
    // newly arriving requests keep queueing FIFO behind it.
    auto wit = waiting_.find(block);
    if (wit != waiting_.end() && !wit->second.empty()) {
        events_.scheduleIn(config_.dirProcessNs, [this, block] {
            auto it = waiting_.find(block);
            csr_assert(it != waiting_.end() && !it->second.empty(),
                       "queued request vanished");
            Message next = it->second.front();
            it->second.pop_front();
            if (it->second.empty())
                waiting_.erase(it);
            startTransaction(next);
        });
    }
}

void
DirectoryController::accessMemory(Addr block, std::function<void()> cb)
{
    const std::size_t bank = block % config_.memBanks;
    const Tick start = std::max(events_.now() + config_.dirProcessNs,
                                bankFree_[bank]);
    bankFree_[bank] = start + config_.memAccessNs;
    ++counters_.dirMemAccess;
    if (cb)
        events_.schedule(start + config_.memAccessNs, std::move(cb));
}

void
DirectoryController::sendToCache(MsgType type, Addr block, ProcId dst,
                                 ProcId requester, Tick timestamp,
                                 bool dirty)
{
    Message msg;
    msg.type = type;
    msg.block = block;
    msg.src = node_;
    msg.dst = dst;
    msg.requester = requester;
    msg.timestamp = timestamp;
    msg.dirty = dirty;
    network_.send(msg);
}

Tick
DirectoryController::unloadedServiceLatency(const Txn &txn) const
{
    const ProcId req = txn.req.src;
    const Tick req_leg = network_.unloadedLatency(req, node_, false);
    const Tick data_leg = network_.unloadedLatency(node_, req, true);
    Tick service = config_.dirProcessNs + config_.memAccessNs;
    if (txn.stateAtArrival == DirEntry::State::Exclusive &&
        txn.ownerWasDirty) {
        // Three-hop: the fetch round trip to the (former) owner
        // replaces part of the memory access but adds two legs.  Use
        // the average owner distance for the class value so that the
        // class depends only on (type, state, dirtiness).
        service += 2 * network_.unloadedLatency(node_, (node_ + 1) %
                                                config_.numNodes(),
                                                true);
    }
    return req_leg + service + data_leg;
}

} // namespace csr
