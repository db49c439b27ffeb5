/**
 * @file
 * The one decode loop of every consumer that reads a .csrt file front
 * to back: the trace study (csrsim trace --load-trace, sweep traces=
 * cells) and csrserve --replay, in process and over the wire.
 *
 * A record means the same thing to all of them: its key is a block
 * number (byte address / block bytes), GET and SET are the sampled
 * client's loads and stores, and a DEL is an invalidating write by
 * someone else.  Each caller keeps only its own projection of
 * (key, op) and its own partitioning.  The replay engine's decode
 * stage reads the same way but partitions whole blocks by cache set
 * (replay/Replayer.h).
 */

#ifndef CSR_REPLAY_FOREACHRECORD_H
#define CSR_REPLAY_FOREACHRECORD_H

#include <cstdint>

#include "replay/Format.h"
#include "replay/TraceReader.h"

namespace csr::replay
{

/** Call fn(key, op) for the first @p count records of @p reader, in
 *  file order.  @throws TraceFormatError from readBlock. */
template <typename Fn>
void
forEachRecord(TraceReader &reader, std::uint64_t count, Fn &&fn)
{
    ReplayBlock block;
    std::uint64_t i = 0;
    for (std::uint64_t b = 0; b < reader.blockCount() && i < count;
         ++b) {
        reader.readBlock(b, block, Projection::Replay);
        for (std::size_t r = 0; r < block.size() && i < count; ++r, ++i)
            fn(block.key[r], static_cast<TraceOp>(block.op[r]));
    }
}

} // namespace csr::replay

#endif // CSR_REPLAY_FOREACHRECORD_H
