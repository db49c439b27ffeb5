/**
 * @file
 * Directory-controller unit tests.
 *
 * These drive the home-side MESI state machine directly -- the test
 * plays all the cache sides -- to pin down transaction behaviour that
 * the end-to-end runs only exercise statistically: ack collection,
 * fetch forwarding, stale replacement hints, writeback races and the
 * blocking-home queue.
 */

#include <gtest/gtest.h>

#include "numa/Directory.h"

namespace csr
{
namespace
{

/** Harness: one directory at node 0, message capture per node. */
class DirectoryHarness
{
  public:
    DirectoryHarness()
        : network_(config_, events_), dir_(0, config_, events_, network_)
    {
        for (ProcId n = 0; n < config_.numNodes(); ++n) {
            network_.attach(n, [this, n](const Message &msg) {
                if (n == 0 && isHomeBound(msg.type))
                    dir_.receive(msg);
                else
                    inbox_[n].push_back(msg);
            });
        }
    }

    static bool
    isHomeBound(MsgType type)
    {
        switch (type) {
          case MsgType::GetS:
          case MsgType::GetX:
          case MsgType::PutM:
          case MsgType::PutS:
          case MsgType::PutE:
          case MsgType::InvAck:
          case MsgType::FetchResp:
          case MsgType::FetchStale:
            return true;
          default:
            return false;
        }
    }

    /** Send a message from a fake cache and run to quiescence. */
    void
    inject(MsgType type, Addr block, ProcId src, bool dirty = false)
    {
        Message msg;
        msg.type = type;
        msg.block = block;
        msg.src = src;
        msg.dst = 0;
        msg.requester = src;
        msg.dirty = dirty;
        network_.send(msg);
        events_.run();
    }

    /** Reply to a directory-initiated message and run to quiescence. */
    void
    reply(MsgType type, Addr block, ProcId src, bool dirty = false)
    {
        inject(type, block, src, dirty);
    }

    /** Pop all captured messages delivered to a node. */
    std::vector<Message>
    drain(ProcId node)
    {
        auto out = inbox_[node];
        inbox_[node].clear();
        return out;
    }

    NumaConfig config_;
    EventQueue events_;
    MeshNetwork network_;
    DirectoryController dir_;
    std::map<ProcId, std::vector<Message>> inbox_;
};

TEST(Directory, GetSFromUncachedGrantsExclusive)
{
    DirectoryHarness h;
    h.inject(MsgType::GetS, 100, 3);
    const auto msgs = h.drain(3);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].type, MsgType::DataE);
    const DirEntry *entry = h.dir_.entryOf(100);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->state, DirEntry::State::Exclusive);
    EXPECT_EQ(entry->owner, 3u);
}

TEST(Directory, SecondReaderTriggersFetchAndShares)
{
    DirectoryHarness h;
    h.inject(MsgType::GetS, 100, 3);
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    // Node 3 (owner) must see a Fetch.
    auto to3 = h.drain(3);
    ASSERT_EQ(to3.size(), 1u);
    EXPECT_EQ(to3[0].type, MsgType::Fetch);
    // Owner answers clean; requester gets DataS.
    h.reply(MsgType::FetchResp, 100, 3, /*dirty=*/false);
    auto to5 = h.drain(5);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataS);
    EXPECT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Shared);
}

TEST(Directory, GetXCollectsInvAcksBeforeReplying)
{
    DirectoryHarness h;
    // Two readers share the block (via fetch path).
    h.inject(MsgType::GetS, 100, 3);
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    h.reply(MsgType::FetchResp, 100, 3, false);
    h.drain(3);
    h.drain(5);

    // A third node writes.
    h.inject(MsgType::GetX, 100, 7);
    // Sharers 3 and 5 receive Inv; node 7 must NOT have data yet.
    auto to3 = h.drain(3);
    auto to5 = h.drain(5);
    ASSERT_EQ(to3.size(), 1u);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to3[0].type, MsgType::Inv);
    EXPECT_EQ(to5[0].type, MsgType::Inv);
    EXPECT_TRUE(h.drain(7).empty());
    EXPECT_TRUE(h.dir_.busy(100));

    // First ack: still waiting.
    h.reply(MsgType::InvAck, 100, 3);
    EXPECT_TRUE(h.drain(7).empty());
    // Second ack completes the write.
    h.reply(MsgType::InvAck, 100, 5);
    auto to7 = h.drain(7);
    ASSERT_EQ(to7.size(), 1u);
    EXPECT_EQ(to7[0].type, MsgType::DataM);
    EXPECT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Exclusive);
    EXPECT_EQ(h.dir_.entryOf(100)->owner, 7u);
}

TEST(Directory, DirtyFetchWritesBackAndForwards)
{
    DirectoryHarness h;
    h.inject(MsgType::GetX, 100, 3); // node 3 owns (will dirty it)
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    h.drain(5);
    // Owner responds dirty.
    h.reply(MsgType::FetchResp, 100, 3, /*dirty=*/true);
    auto to5 = h.drain(5);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataS);
    const std::uint64_t writes = h.dir_.counters().dirMemAccess;
    EXPECT_GE(writes, 2u); // initial read + writeback at least
}

TEST(Directory, FetchStaleFallsBackToMemory)
{
    DirectoryHarness h;
    h.inject(MsgType::GetS, 100, 3); // 3 owns E
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    h.drain(3); // the Fetch
    // Owner silently evicted (no-hints mode): stale.
    h.reply(MsgType::FetchStale, 100, 3);
    auto to5 = h.drain(5);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataS);
}

TEST(Directory, PutMRaceWithFetchInvCompletesCleanly)
{
    DirectoryHarness h;
    h.inject(MsgType::GetX, 100, 3);
    h.drain(3);
    h.inject(MsgType::GetX, 100, 5); // triggers FetchInv to 3
    h.drain(3);
    // Node 3's PutM crossed the FetchInv in flight.
    h.inject(MsgType::PutM, 100, 3);
    EXPECT_TRUE(h.dir_.busy(100)); // still waiting for the stale resp
    EXPECT_EQ(h.dir_.counters().dirPutMRace, 1u);
    h.reply(MsgType::FetchStale, 100, 3);
    auto to5 = h.drain(5);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataM);
    EXPECT_EQ(h.dir_.entryOf(100)->owner, 5u);
}

TEST(Directory, ReplacementHintsUpdateState)
{
    DirectoryHarness h;
    h.inject(MsgType::GetS, 100, 3); // E{3}
    h.drain(3);
    h.inject(MsgType::PutE, 100, 3);
    EXPECT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Uncached);
    EXPECT_EQ(h.dir_.counters().dirPutE, 1u);

    // Stale hints are counted and ignored.
    h.inject(MsgType::PutE, 100, 5);
    EXPECT_EQ(h.dir_.counters().dirPutEStale, 1u);
    h.inject(MsgType::PutS, 100, 5);
    EXPECT_EQ(h.dir_.counters().dirPutSStale, 1u);
    h.inject(MsgType::PutM, 100, 5);
    EXPECT_EQ(h.dir_.counters().dirPutMStale, 1u);
}

TEST(Directory, PutSRemovesSharerAndEmptiesToUncached)
{
    DirectoryHarness h;
    h.inject(MsgType::GetS, 100, 3);
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    h.reply(MsgType::FetchResp, 100, 3, false);
    h.drain(3);
    h.drain(5);
    ASSERT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Shared);
    h.inject(MsgType::PutS, 100, 3);
    EXPECT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Shared);
    h.inject(MsgType::PutS, 100, 5);
    EXPECT_EQ(h.dir_.entryOf(100)->state, DirEntry::State::Uncached);
}

TEST(Directory, BusyBlockQueuesFifoAndDrains)
{
    DirectoryHarness h;
    h.inject(MsgType::GetX, 100, 3); // E{3}
    h.drain(3);
    // Two more writers while 3 owns it.  The first starts a fetch
    // transaction; the second queues behind it.
    h.inject(MsgType::GetX, 100, 5);
    h.inject(MsgType::GetX, 100, 7);
    EXPECT_EQ(h.dir_.counters().dirQueued, 1u);
    // 3 responds; 5 is served; the queued 7 then FetchInvs 5.
    h.reply(MsgType::FetchResp, 100, 3, true);
    auto to5 = h.drain(5);
    ASSERT_GE(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataM);
    // 5 now gets the FetchInv for the queued transaction.
    ASSERT_EQ(to5.size(), 2u);
    EXPECT_EQ(to5[1].type, MsgType::FetchInv);
    h.reply(MsgType::FetchResp, 100, 5, true);
    auto to7 = h.drain(7);
    ASSERT_EQ(to7.size(), 1u);
    EXPECT_EQ(to7[0].type, MsgType::DataM);
    EXPECT_EQ(h.dir_.entryOf(100)->owner, 7u);
}

TEST(Directory, UpgradeFromSharerSkipsSelfInvalidation)
{
    DirectoryHarness h;
    // Make the block Shared{3,5}.
    h.inject(MsgType::GetS, 100, 3);
    h.drain(3);
    h.inject(MsgType::GetS, 100, 5);
    h.reply(MsgType::FetchResp, 100, 3, false);
    h.drain(3);
    h.drain(5);
    // Sharer 5 upgrades: only 3 must receive an Inv.
    h.inject(MsgType::GetX, 100, 5);
    auto to3 = h.drain(3);
    ASSERT_EQ(to3.size(), 1u);
    EXPECT_EQ(to3[0].type, MsgType::Inv);
    EXPECT_TRUE(h.drain(5).empty()); // no self-inv, no data yet
    h.reply(MsgType::InvAck, 100, 3);
    auto to5 = h.drain(5);
    ASSERT_EQ(to5.size(), 1u);
    EXPECT_EQ(to5[0].type, MsgType::DataM);
}

} // namespace
} // namespace csr
