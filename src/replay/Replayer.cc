#include "replay/Replayer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <exception>
#include <ostream>
#include <thread>
#include <vector>

#include "cache/CacheModel.h"
#include "robust/Errors.h"
#include "util/CliArgs.h"
#include "util/ThreadPool.h"

namespace csr::replay
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One record as the decode stage hands it to its job: the model's
 *  coordinates and the resolved miss cost, computed once. */
struct Entry
{
    Addr tag;
    std::uint64_t costNs;
    std::uint32_t set;
    TraceOp op;
};
static_assert(sizeof(Entry) == 24, "Replayer.h states the ring bound");

/**
 * The decode stage between one TraceReader and the replay jobs.  The
 * decoder decodes block b once, writes its records as Entries grouped
 * by owning job (set % jobs, in trace order within each group) into
 * ring slot b % kSlots, and publishes it; job j replays its run of
 * each block in block order and counts the block done.  The decoder
 * refills a slot only after every job has finished the block in it,
 * so it runs at most kSlots blocks ahead of the slowest job.  Every
 * wait blocks in std::atomic::wait; abort() wakes all of them.
 */
class DecodeStage
{
  public:
    /** Ring slots: the decoder's lookahead, in blocks. */
    static constexpr unsigned kSlots = 8;

    DecodeStage(TraceReader &reader, const CacheGeometry &geom,
                const ReplayConfig &config, unsigned jobs,
                std::uint64_t total_ops)
        : reader_(reader), geom_(geom), blockBytes_(config.blockBytes),
          defaultCostNs_(config.defaultCostNs), jobs_(jobs),
          totalOps_(total_ops),
          blocks_((total_ops + reader.blockSize() - 1) / reader.blockSize()),
          done_(jobs)
    {
        for (Slot &slot : slots_)
            slot.begin.resize(jobs + 1);
    }

    /** The decoder's side.  @throws what TraceReader::readBlock
     *  throws; the caller must then abort(). */
    void
    decode()
    {
        ReplayBlock block;
        for (std::uint64_t b = 0; b < blocks_; ++b) {
            if (!awaitSlot(b))
                return;
            const auto t0 = Clock::now();
            reader_.readBlock(b, block);
            const std::uint64_t left = totalOps_ - b * reader_.blockSize();
            fill(slots_[b % kSlots], block,
                 left < block.size() ? static_cast<std::size_t>(left)
                                     : block.size());
            decodeSec_ += secondsSince(t0);
            published_.fetch_add(1, std::memory_order_release);
            published_.notify_all();
        }
    }

    /**
     * Job @p j's side: calls @p replay(begin, end) on its run of every
     * block, in block order, until the last block or an abort.
     * @return seconds spent blocked waiting for the decoder.
     */
    template <typename Replay>
    double
    consume(unsigned j, Replay &&replay)
    {
        double wait_sec = 0.0;
        for (std::uint64_t b = 0; b < blocks_ && awaitBlock(b, wait_sec);
             ++b) {
            const Slot &slot = slots_[b % kSlots];
            replay(slot.entries.data() + slot.begin[j],
                   slot.entries.data() + slot.begin[j + 1]);
            done_[j].fetch_add(1, std::memory_order_release);
            done_[j].notify_one();
        }
        return wait_sec;
    }

    /** Stop the stage: every waiter wakes and returns. */
    void
    abort()
    {
        published_.fetch_or(kAborted, std::memory_order_acq_rel);
        published_.notify_all();
        for (std::atomic<std::uint64_t> &done : done_) {
            done.fetch_or(kAborted, std::memory_order_acq_rel);
            done.notify_one();
        }
    }

    /** Decoder busy time: readBlock plus partitioning. */
    double decodeSec() const { return decodeSec_; }

  private:
    /** Set in every counter by abort(): a waiter's condition then
     *  holds, and it finds the stage aborted. */
    static constexpr std::uint64_t kAborted = std::uint64_t{1} << 63;

    struct Slot
    {
        /** Job j's run is entries[begin[j], begin[j + 1]). */
        std::vector<Entry> entries;
        std::vector<std::uint32_t> begin;
    };

    bool
    aborted() const
    {
        return published_.load(std::memory_order_acquire) & kAborted;
    }

    /** Block until slot b % kSlots is free; false on abort. */
    bool
    awaitSlot(std::uint64_t b)
    {
        if (b >= kSlots) {
            const std::uint64_t need = b - kSlots + 1;
            for (std::atomic<std::uint64_t> &done : done_) {
                std::uint64_t d;
                while ((d = done.load(std::memory_order_acquire)) < need)
                    done.wait(d, std::memory_order_acquire);
            }
        }
        return !aborted();
    }

    /** Block until block @p b is published, adding the time blocked
     *  to @p wait_sec; false on abort. */
    bool
    awaitBlock(std::uint64_t b, double &wait_sec)
    {
        std::uint64_t p = published_.load(std::memory_order_acquire);
        if (p > b && !(p & kAborted))
            return true;
        const auto t0 = Clock::now();
        while (p <= b && !(p & kAborted)) {
            published_.wait(p, std::memory_order_acquire);
            p = published_.load(std::memory_order_acquire);
        }
        wait_sec += secondsSince(t0);
        return !(p & kAborted);
    }

    /** Write the first @p n records of @p block into @p slot as
     *  Entries, grouped by owning job: a counting sort on set % jobs,
     *  stable, so each set keeps trace order. */
    void
    fill(Slot &slot, const ReplayBlock &block, std::size_t n)
    {
        if (slot.entries.size() < n)
            slot.entries.resize(n);
        Entry *entries = slot.entries.data();
        std::vector<std::uint32_t> &begin = slot.begin;
        if (jobs_ == 1) { // one run: the sort would copy in order
            for (std::size_t i = 0; i < n; ++i)
                entries[i] = entryOf(block, i);
            begin[1] = static_cast<std::uint32_t>(n);
            return;
        }
        owner_.resize(n);
        std::fill(begin.begin(), begin.end(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            owner_[i] = geom_.setIndex(block.key[i] * blockBytes_) % jobs_;
            ++begin[owner_[i] + 1];
        }
        for (unsigned j = 0; j < jobs_; ++j)
            begin[j + 1] += begin[j];
        cursor_.assign(begin.begin(), begin.end() - 1);
        for (std::size_t i = 0; i < n; ++i)
            entries[cursor_[owner_[i]]++] = entryOf(block, i);
    }

    Entry
    entryOf(const ReplayBlock &block, std::size_t i) const
    {
        const Addr addr = block.key[i] * blockBytes_;
        return {geom_.tag(addr),
                block.costHint[i] ? block.costHint[i] : defaultCostNs_,
                geom_.setIndex(addr), static_cast<TraceOp>(block.op[i])};
    }

    TraceReader &reader_;
    const CacheGeometry &geom_;
    const std::uint64_t blockBytes_;
    const std::uint64_t defaultCostNs_;
    const unsigned jobs_;
    const std::uint64_t totalOps_;
    const std::uint64_t blocks_;

    std::array<Slot, kSlots> slots_;
    /** Blocks published (plus kAborted). */
    std::atomic<std::uint64_t> published_{0};
    /** Blocks each job has finished (plus kAborted). */
    std::vector<std::atomic<std::uint64_t>> done_;

    // Decoder-only scratch.
    std::vector<std::uint32_t> owner_;
    std::vector<std::uint32_t> cursor_;
    double decodeSec_ = 0.0;
};

} // namespace

ReplayConfig
ReplayConfig::fromArgs(const CliArgs &args)
{
    ReplayConfig config;
    config.path = args.get("file", "");
    config.cacheBytes = args.getUInt("cache-bytes", config.cacheBytes);
    config.assoc = static_cast<std::uint32_t>(
        args.getUInt("assoc", config.assoc));
    config.blockBytes = static_cast<std::uint32_t>(
        args.getUInt("block-bytes", config.blockBytes));
    if (args.has("policy"))
        config.policy = requirePolicyKind(args.get("policy", ""));
    config.policyParams.etdAliasBits = static_cast<unsigned>(
        args.getUInt("alias-bits", config.policyParams.etdAliasBits));
    config.policyParams.depreciationFactor = args.getDouble(
        "depreciation", config.policyParams.depreciationFactor);
    config.policyParams.seed =
        args.seed(config.policyParams.seed);
    config.jobs = args.jobs();
    config.maxOps = args.getUInt("max-ops", config.maxOps);
    config.defaultCostNs =
        args.getUInt("default-cost", config.defaultCostNs);
    if (args.has("read-mode"))
        config.readMode = requireReadMode(args.get("read-mode", ""));
    config.validate();
    return config;
}

void
ReplayConfig::validate() const
{
    if (path.empty())
        throw ConfigError(
            "replay needs a trace: pass --file PATH (a .csrt file "
            "written by csrtrace)");
    if (policy == PolicyKind::Opt || policy == PolicyKind::CostOpt)
        throw ConfigError(
            std::string("policy '") + policyKindName(policy) +
            "' is offline (needs the future) and cannot replay a "
            "stream; valid: lru random lfu gd bcl dcl acl");
    if (defaultCostNs == 0)
        throw ConfigError("--default-cost must be >= 1 ns (it is the "
                          "miss cost of records without a hint)");
    if (policyParams.depreciationFactor < 1.0)
        throw ConfigError("--depreciation must be >= 1");
    // Geometry errors (non-pow2 sizes, assoc > capacity) surface from
    // the CacheGeometry constructor with their own typed error.
}

ReplayResult
replayTrace(const ReplayConfig &config)
{
    config.validate();
    const CacheGeometry geom(config.cacheBytes, config.assoc,
                             config.blockBytes);

    // The decoder's reader, opened here so header problems surface
    // before any thread spawns, and so totalOps is known.
    TraceReader reader(config.path, config.readMode);
    const std::uint64_t trace_records = reader.recordCount();
    const std::uint64_t total_ops =
        config.maxOps == 0
            ? trace_records
            : (config.maxOps < trace_records ? config.maxOps
                                             : trace_records);

    unsigned jobs =
        config.jobs == 0 ? ThreadPool::defaultThreads() : config.jobs;
    // More jobs than sets would leave workers with an empty partition;
    // harmless, but pointless threads.
    if (static_cast<std::uint64_t>(jobs) > geom.numSets())
        jobs = static_cast<unsigned>(geom.numSets());
    if (jobs == 0)
        jobs = 1;

    DecodeStage stage(reader, geom, config, jobs, total_ops);
    std::vector<ReplayTotals> totals(jobs);
    std::vector<double> wait_sec(jobs);

    // Job j replays, in global trace order, exactly the records whose
    // set satisfies set % jobs == j.  Sets are independent in the
    // model and in every online policy, so the merged counters are
    // byte-identical to a jobs=1 run (see the header comment).  The
    // counters stay on the job's stack until it ends: jobs never
    // write a shared cache line per record.
    const auto run_job = [&](unsigned j) {
        CacheModel model(geom,
                         makePolicy(config.policy, geom,
                                    config.policyParams));
        ReplayTotals t;
        const auto count_eviction = [&t](int, Addr, std::uint32_t) {
            ++t.evictions;
        };
        const auto replay = [&](const Entry *e, const Entry *end) {
            t.ops += static_cast<std::uint64_t>(end - e);
            for (; e != end; ++e) {
                const Cost cost = static_cast<Cost>(e->costNs);
                switch (e->op) {
                  case TraceOp::Get:
                    ++t.gets;
                    if (model.access(e->set, e->tag) != kInvalidWay) {
                        ++t.hits;
                    } else {
                        ++t.misses;
                        t.missCostNs += e->costNs;
                        model.fillVictimOrFree(e->set, e->tag, cost, 0,
                                               count_eviction);
                    }
                    break;
                  case TraceOp::Set: {
                    ++t.sets;
                    t.storeCostNs += e->costNs;
                    const int way = model.access(e->set, e->tag);
                    if (way != kInvalidWay) {
                        ++t.setHits;
                        model.updateCost(e->set, way, cost);
                    } else {
                        model.fillVictimOrFree(e->set, e->tag, cost, 0,
                                               count_eviction);
                    }
                    break;
                  }
                  case TraceOp::Del:
                    ++t.dels;
                    model.invalidateTag(e->set, e->tag);
                    break;
                }
            }
        };
        wait_sec[j] = stage.consume(j, replay);
        totals[j] = t;
    };

    // Task 0 is the decoder and task 1 + j is job j; job 0 runs on
    // this thread.  A failing task aborts the stage, so every other
    // task returns too, and the decoder's error is rethrown first.
    std::vector<std::exception_ptr> errors(jobs + 1);
    const auto task = [&](std::size_t i) {
        try {
            if (i == 0)
                stage.decode();
            else
                run_job(static_cast<unsigned>(i - 1));
        } catch (...) {
            errors[i] = std::current_exception();
            stage.abort();
        }
    };
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> threads;
        threads.reserve(jobs);
        try {
            threads.emplace_back(task, 0);
            for (std::size_t i = 2; i <= jobs; ++i)
                threads.emplace_back(task, i);
        } catch (...) {
            stage.abort();
            throw; // the started threads join on the way out
        }
        task(1);
    }
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);

    ReplayResult result;
    result.traceRecords = trace_records;
    result.jobs = jobs;
    result.wallSec = secondsSince(t0);
    result.decodeSec = stage.decodeSec();
    for (unsigned j = 0; j < jobs; ++j) {
        result.waitSec += wait_sec[j];
        forEachReplayCounter(
            [](const char *, std::uint64_t &sum, std::uint64_t part) {
                sum += part;
            },
            result.totals, totals[j]);
    }
    return result;
}

TextTable
ReplayResult::summaryTable(const std::string &title) const
{
    TextTable table(title);
    table.setHeader({"metric", "value"});
    table.addRow({"trace records", TextTable::count(traceRecords)});
    table.addRow({"replayed ops", TextTable::count(totals.ops)});
    table.addRow({"gets", TextTable::count(totals.gets)});
    table.addRow({"sets", TextTable::count(totals.sets)});
    table.addRow({"dels", TextTable::count(totals.dels)});
    table.addRow({"hits", TextTable::count(totals.hits)});
    table.addRow({"misses", TextTable::count(totals.misses)});
    table.addRow(
        {"hit ratio %", TextTable::num(totals.hitRatio() * 100.0, 4)});
    table.addRow({"set hits", TextTable::count(totals.setHits)});
    table.addRow({"evictions", TextTable::count(totals.evictions)});
    table.addRow(
        {"miss cost ms",
         TextTable::num(static_cast<double>(totals.missCostNs) / 1e6,
                        3)});
    table.addRow(
        {"store cost ms",
         TextTable::num(static_cast<double>(totals.storeCostNs) / 1e6,
                        3)});
    return table;
}

TextTable
ReplayResult::timingTable() const
{
    TextTable table("replay timing (wall clock, non-deterministic)");
    table.setHeader({"metric", "value"});
    table.addRow({"jobs", TextTable::count(jobs)});
    table.addRow({"wall s", TextTable::num(wallSec, 3)});
    table.addRow({"decode s", TextTable::num(decodeSec, 3)});
    table.addRow({"job wait s", TextTable::num(waitSec, 3)});
    table.addRow({"ops/s", TextTable::num(opsPerSec(), 0)});
    table.addRow({"Mops/min", TextTable::num(opsPerMin() / 1e6, 1)});
    return table;
}

void
ReplayResult::writeJsonObject(std::ostream &os,
                              const std::string &policy,
                              int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in = pad + "  ";
    const std::string in2 = in + "  ";
    os << pad << "{\n"
       << in << "\"policy\": \"" << policy << "\",\n"
       << in << "\"traceRecords\": " << traceRecords << ",\n"
       << in << "\"deterministic\": {\n";
    const char *sep = "";
    forEachReplayCounter(
        [&](const char *key, const auto &v) {
            os << sep << in2 << '"' << key
               << "\": " << TextTable::numFull(v);
            sep = ",\n";
        },
        totals);
    os << "\n"
       << in << "},\n"
       // Wall-clock block: check_bench skips the "timing" subtree.
       << in << "\"timing\": {\n"
       << in2 << "\"jobs\": " << jobs << ",\n"
       << in2 << "\"wallSec\": " << TextTable::numFull(wallSec)
       << ",\n"
       << in2 << "\"decodeSec\": " << TextTable::numFull(decodeSec)
       << ",\n"
       << in2 << "\"waitSec\": " << TextTable::numFull(waitSec)
       << ",\n"
       << in2 << "\"opsPerSec\": " << TextTable::numFull(opsPerSec())
       << ",\n"
       << in2 << "\"opsPerMin\": " << TextTable::numFull(opsPerMin())
       << "\n"
       << in << "}\n"
       << pad << "}";
}

} // namespace csr::replay
