/**
 * @file
 * ILP-lite processor model.
 *
 * RSIM models a full dynamically-scheduled pipeline; what the paper's
 * experiment actually needs from it is (a) memory-level parallelism
 * bounded by the active list and the MSHRs, so that miss latency is
 * partially overlappable, and (b) an execution time dominated by the
 * part of aggregate miss latency that cannot be hidden.  This model
 * captures exactly that: the core issues its access stream in order,
 * pays compute gaps and hit latencies synchronously, lets misses
 * proceed in the background, and stalls only when the MSHRs fill or
 * when it has run more than an active-list's worth of work ahead of
 * the oldest outstanding miss.
 */

#ifndef CSR_NUMA_PROCESSOR_H
#define CSR_NUMA_PROCESSOR_H

#include <deque>
#include <memory>

#include "numa/CacheController.h"
#include "numa/Event.h"
#include "numa/NumaConfig.h"
#include "numa/NumaCounters.h"
#include "trace/Workload.h"

namespace csr
{

/** One node's core, driven by a workload access stream. */
class Processor
{
  public:
    Processor(ProcId id, const NumaConfig &config, EventQueue &events,
              CacheController &cache,
              std::unique_ptr<ProcAccessStream> stream);

    /** Schedule the first instruction at tick 0. */
    void start();

    /** True once the stream is exhausted and all misses drained. */
    bool done() const { return finished_ && outstanding_.empty(); }

    /** Tick at which the program completed (valid once done()). */
    Tick finishTime() const { return finishTime_; }

    std::uint64_t opsIssued() const { return opIndex_; }

    const NumaCounters &counters() const { return counters_; }

  private:
    /** Issue ops until a stall condition or the end of the stream. */
    void advance();

    /** A background miss completed. */
    void onMissDone(std::uint64_t op_index, Tick when);

    /** True if issue must pause until a completion event. */
    bool stalled() const;

    ProcId id_;
    NumaConfig config_;
    EventQueue &events_;
    CacheController &cache_;
    std::unique_ptr<ProcAccessStream> stream_;

    MemAccess op_{};
    bool haveOp_ = false;
    bool finished_ = false;
    bool sleeping_ = false;  ///< waiting for a miss completion
    bool wakePending_ = false; ///< an advance() event is scheduled
    Tick localTime_ = 0;     ///< core-local clock (>= event time at issue)
    std::uint64_t opIndex_ = 0;
    std::deque<std::uint64_t> outstanding_; // op indices, oldest first
    std::deque<std::uint64_t> outstandingWrites_;
    Tick finishTime_ = 0;
    NumaCounters counters_;
};

} // namespace csr

#endif // CSR_NUMA_PROCESSOR_H
