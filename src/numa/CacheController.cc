#include "numa/CacheController.h"

#include "telemetry/Telemetry.h"
#include "util/Logging.h"

namespace csr
{

CacheController::CacheController(ProcId node, const NumaConfig &config,
                                 EventQueue &events, MeshNetwork &network,
                                 HomeMap &homes)
    : node_(node), config_(config), events_(events), network_(network),
      homes_(homes), l1Geom_(config.l1Bytes, 1, config.blockBytes),
      l2Geom_(config.l2Bytes, config.l2Assoc, config.blockBytes),
      l1_(l1Geom_),
      l2_(l2Geom_, makePolicy(config.policy, l2Geom_, config.policyParams)),
      predictor_(config.defaultPredictedLatency)
{
}

bool
CacheController::hasLine(Addr block) const
{
    const Addr addr = byteOf(block);
    return l2_.lookup(l2Geom_.setIndex(addr), l2Geom_.tag(addr)) !=
           kInvalidWay;
}

LineState
CacheController::lineState(Addr block) const
{
    const Addr addr = byteOf(block);
    const std::uint32_t set = l2Geom_.setIndex(addr);
    const int way = l2_.lookup(set, l2Geom_.tag(addr));
    csr_assert(way != kInvalidWay, "lineState of absent block");
    return static_cast<LineState>(l2_.auxAt(set, way));
}

AccessOutcome
CacheController::access(Addr byte_addr, bool write, MissDone done)
{
    const Addr block = blockOf(byte_addr);
    const std::uint32_t set = l2Geom_.setIndex(byte_addr);
    const Addr tag = l2Geom_.tag(byte_addr);
    const int way = l2_.lookup(set, tag);
    const bool writable =
        way != kInvalidWay &&
        static_cast<LineState>(l2_.auxAt(set, way)) != LineState::Shared;

    // L1 filter: pure hits only; writes must still consult the L2
    // state (an L1 copy of an S line cannot absorb a store).
    if (way != kInvalidWay && (!write || writable)) {
        const std::uint32_t l1set = l1Geom_.setIndex(byte_addr);
        const bool l1hit =
            l1_.lookup(l1set, l1Geom_.tag(byte_addr)) != kInvalidWay;
        // Recency update (and possible reservation success) in the L2
        // policy happens on every processor access that reaches it;
        // an L1 hit models a filtered access, so only L2 accesses
        // touch the policy.
        if (l1hit) {
            if (write) {
                l2_.setAux(set, way,
                           static_cast<std::uint32_t>(
                               LineState::Modified));
            }
            ++counters_.l1Hit;
            return AccessOutcome::HitL1;
        }
        l2_.noteAccess(set, tag, way);
        if (write) {
            l2_.setAux(set, way,
                       static_cast<std::uint32_t>(LineState::Modified));
        }
        installL1(block);
        ++counters_.l2Hit;
        return AccessOutcome::HitL2;
    }

    // Miss (including upgrade-miss on a Shared line).
    ++(write ? counters_.l2MissWrite : counters_.l2MissRead);
    auto it = mshrs_.find(block);
    if (it != mshrs_.end()) {
        // Coalesce into the outstanding transaction.
        it->second.waiters.emplace_back(write, std::move(done));
        ++counters_.l2MshrCoalesce;
        return AccessOutcome::Miss;
    }

    const bool upgrade = way != kInvalidWay;
    if (upgrade) {
        csr_assert(write, "read upgrade is impossible");
        // Recency: the S line was accessed.
        l2_.noteAccess(set, tag, way);
    } else {
        // ETD lookup happens on every miss (Section 2.4).
        l2_.noteAccess(set, tag, kInvalidWay);
    }

    Mshr mshr;
    mshr.write = write;
    mshr.upgrade = upgrade;
    mshr.issued = events_.now();
    mshr.waiters.emplace_back(write, std::move(done));
    mshrs_.emplace(block, std::move(mshr));
    issueRequest(block, write, upgrade);
    return AccessOutcome::Miss;
}

void
CacheController::issueRequest(Addr block, bool write, bool upgrade)
{
    (void)upgrade;
    sendToHome(write ? MsgType::GetX : MsgType::GetS, block,
               events_.now());
}

void
CacheController::receive(const Message &msg)
{
    const Addr addr = byteOf(msg.block);
    const std::uint32_t set = l2Geom_.setIndex(addr);
    const Addr tag = l2Geom_.tag(addr);

    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
        handleData(msg);
        break;

      case MsgType::Inv: {
        // Invalidate our (shared) copy; the ETD entry, if any, dies
        // with it (Section 2.4).  Ack even when we no longer hold
        // the line (it may have been evicted silently or the hint is
        // still in flight).
        const int way = l2_.invalidateTag(set, tag);
        if (way != kInvalidWay) {
            invalidateL1(msg.block);
            ++counters_.cohInv;
        } else {
            ++counters_.cohInvAbsent;
        }
        Message ack;
        ack.type = MsgType::InvAck;
        ack.block = msg.block;
        ack.src = node_;
        ack.dst = msg.src;
        ack.requester = msg.requester;
        network_.send(ack);
        break;
      }

      case MsgType::Fetch:
      case MsgType::FetchInv: {
        const int way = l2_.lookup(set, tag);
        Message resp;
        resp.block = msg.block;
        resp.src = node_;
        resp.dst = msg.src;
        resp.requester = msg.requester;
        if (way == kInvalidWay) {
            resp.type = MsgType::FetchStale;
            ++counters_.cohFetchStale;
        } else {
            resp.type = MsgType::FetchResp;
            resp.dirty = static_cast<LineState>(l2_.auxAt(set, way)) ==
                         LineState::Modified;
            if (msg.type == MsgType::Fetch) {
                l2_.setAux(set, way,
                           static_cast<std::uint32_t>(
                               LineState::Shared));
                ++counters_.cohDowngrade;
            } else {
                l2_.invalidateTag(set, tag);
                invalidateL1(msg.block);
                ++counters_.cohFetchInv;
            }
        }
        network_.send(resp);
        break;
      }

      default:
        csr_panic("cache received %s", msgTypeName(msg.type).c_str());
    }
}

void
CacheController::handleData(const Message &msg)
{
    auto it = mshrs_.find(msg.block);
    csr_assert(it != mshrs_.end(), "data reply without MSHR");
    Mshr mshr = std::move(it->second);
    mshrs_.erase(it);

    const Tick now = events_.now();
    const auto latency = static_cast<Cost>(now - mshr.issued);
    predictor_.update(msg.block, latency);
    missLatency_.add(latency);
    missLatencyHist_.add(latency);
    ++counters_.l2Fill;
    CSR_TRACE_INSTANT_V("numa", "l2.fill_latency_ns", latency);

    // Replacement cost of the block's next miss: the measured latency,
    // optionally discounted for store misses (penalty weighting,
    // Section 7).
    const Cost cost =
        mshr.write ? latency * config_.storeCostWeight : latency;

    const Addr addr = byteOf(msg.block);
    const std::uint32_t set = l2Geom_.setIndex(addr);
    const Addr tag = l2Geom_.tag(addr);
    const int way = l2_.lookup(set, tag);

    LineState state = LineState::Shared;
    if (msg.type == MsgType::DataE)
        state = LineState::Exclusive;
    if (msg.type == MsgType::DataM)
        state = LineState::Modified;

    if (way != kInvalidWay) {
        // Upgrade completion: the S line is still resident.
        csr_assert(msg.type == MsgType::DataM, "unexpected reply state");
        l2_.setAux(set, way, static_cast<std::uint32_t>(state));
        // Refresh the line's predicted next-miss cost.
        l2_.updateCost(set, way, cost);
        installL1(msg.block);
    } else {
        installLine(msg.block, state, cost);
    }

    // Wake the waiters.  Write waiters that found only an S line
    // re-execute and chain an upgrade transaction.
    for (auto &[is_write, done] : mshr.waiters) {
        if (is_write && state == LineState::Shared) {
            const AccessOutcome outcome =
                access(addr, true, std::move(done));
            (void)outcome;
        } else {
            done(now);
        }
    }
}

void
CacheController::installLine(Addr block, LineState state, Cost cost)
{
    const Addr addr = byteOf(block);
    const std::uint32_t set = l2Geom_.setIndex(addr);
    const Addr tag = l2Geom_.tag(addr);

    l2_.fillVictimOrFree(
        set, tag, cost, static_cast<std::uint32_t>(state),
        [&](int, Addr victim_tag, std::uint32_t victim_aux) {
            disposeVictim(set, victim_tag, victim_aux);
        });
    installL1(block);
}

void
CacheController::disposeVictim(std::uint32_t set, Addr victim_tag,
                               std::uint32_t victim_aux)
{
    const Addr victim_block = l2Geom_.blockAddrOf(set, victim_tag);
    const auto state = static_cast<LineState>(victim_aux);

    if (state == LineState::Modified) {
        sendToHome(MsgType::PutM, victim_block, events_.now());
        ++counters_.l2Writeback;
    } else if (config_.replacementHints) {
        sendToHome(state == LineState::Exclusive ? MsgType::PutE
                                                 : MsgType::PutS,
                   victim_block, events_.now());
        ++counters_.l2Hint;
    } else {
        ++counters_.l2SilentEvict;
    }
    // Note: the policy is NOT told about evictions through
    // invalidate(); selectVictim()/fill() manage the stack, and the
    // ETD must retain the victim's tag (that is DCL's whole point).
    invalidateL1(victim_block);
}

void
CacheController::invalidateL1(Addr block)
{
    const Addr addr = byteOf(block);
    const std::uint32_t set = l1Geom_.setIndex(addr);
    const int way = l1_.lookup(set, l1Geom_.tag(addr));
    if (way != kInvalidWay)
        l1_.invalidateWay(set, way);
}

void
CacheController::installL1(Addr block)
{
    const Addr addr = byteOf(block);
    l1_.install(l1Geom_.setIndex(addr), 0, l1Geom_.tag(addr));
}

void
CacheController::sendToHome(MsgType type, Addr block, Tick timestamp)
{
    Message msg;
    msg.type = type;
    msg.block = block;
    msg.src = node_;
    msg.dst = homes_.homeOf(block, node_);
    msg.requester = node_;
    msg.timestamp = timestamp;
    network_.send(msg);
}

} // namespace csr
