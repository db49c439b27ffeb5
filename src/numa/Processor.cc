#include "numa/Processor.h"

#include <algorithm>

#include "util/Logging.h"

namespace csr
{

Processor::Processor(ProcId id, const NumaConfig &config,
                     EventQueue &events, CacheController &cache,
                     std::unique_ptr<ProcAccessStream> stream)
    : id_(id), config_(config), events_(events), cache_(cache),
      stream_(std::move(stream))
{
}

void
Processor::start()
{
    wakePending_ = true;
    events_.schedule(0, [this] {
        wakePending_ = false;
        advance();
    });
}

bool
Processor::stalled() const
{
    if (outstanding_.size() >= config_.mshrs)
        return true;
    // Store ordering (sequential consistency approximation): a write
    // may not issue while storeBufferDepth write misses are pending.
    if (haveOp_ && op_.write &&
        outstandingWrites_.size() >= config_.storeBufferDepth) {
        return true;
    }
    return !outstanding_.empty() &&
           opIndex_ - outstanding_.front() >= config_.activeList;
}

void
Processor::advance()
{
    while (true) {
        if (!haveOp_) {
            if (!stream_->next(op_)) {
                finished_ = true;
                finishTime_ = std::max(finishTime_, localTime_);
                return;
            }
            haveOp_ = true;
            // Pay the compute gap when the op is fetched.
            localTime_ += config_.cycles(op_.gapCycles);
        }

        if (stalled()) {
            sleeping_ = true;
            ++counters_.procStall;
            return; // resumed by onMissDone()
        }

        // The cache must be accessed at real event time; if the local
        // clock is ahead, sleep until it is reached.
        if (localTime_ > events_.now()) {
            if (!wakePending_) {
                wakePending_ = true;
                events_.schedule(localTime_, [this] {
                    wakePending_ = false;
                    advance();
                });
            }
            return;
        }
        localTime_ = events_.now();

        const std::uint64_t index = opIndex_++;
        haveOp_ = false;
        const AccessOutcome outcome = cache_.access(
            op_.addr, op_.write,
            [this, index](Tick when) { onMissDone(index, when); });

        switch (outcome) {
          case AccessOutcome::HitL1:
            localTime_ += config_.cycles(config_.l1HitCycles);
            ++counters_.procL1Hit;
            break;
          case AccessOutcome::HitL2:
            localTime_ += config_.cycles(config_.l2HitCycles);
            ++counters_.procL2Hit;
            break;
          case AccessOutcome::Miss:
            outstanding_.push_back(index);
            if (op_.write)
                outstandingWrites_.push_back(index);
            ++counters_.procMiss;
            break;
        }
    }
}

void
Processor::onMissDone(std::uint64_t op_index, Tick when)
{
    auto it = std::find(outstanding_.begin(), outstanding_.end(),
                        op_index);
    csr_assert(it != outstanding_.end(), "completion for unknown op");
    outstanding_.erase(it);
    auto wit = std::find(outstandingWrites_.begin(),
                         outstandingWrites_.end(), op_index);
    if (wit != outstandingWrites_.end())
        outstandingWrites_.erase(wit);

    if (finished_ && outstanding_.empty()) {
        finishTime_ = std::max({finishTime_, localTime_, when});
        return;
    }
    if (sleeping_) {
        // The core was blocked on this completion: its clock cannot
        // be earlier than the data arrival.
        sleeping_ = false;
        localTime_ = std::max(localTime_, when);
        advance();
    }
}

} // namespace csr
