/**
 * @file
 * Bridge between .csrt traces and the SampledTrace form of the
 * Section 3 trace study: a generated sampled-processor trace is saved
 * and reloaded as .csrt (csrsim trace --save-trace/--load-trace), and
 * a .csrt file occupies a sweep grid cell next to the paper's
 * synthetic benchmarks (csrsim sweep ... traces=foo.csrt).
 *
 * Every consumer reads a record the same way (replay/ForEachRecord.h):
 * the key is a block number, GET and SET are the sampled processor's
 * loads and stores, and a DEL is another processor's write, the
 * invalidation of Section 3.1.  A file carries no page placement, so
 * a sweep cell over one takes the random cost mapping only.
 */

#ifndef CSR_REPLAY_SWEEPTRACE_H
#define CSR_REPLAY_SWEEPTRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/SampledTrace.h"

namespace csr::replay
{

/** The benchmark label a trace file occupies a sweep cell under:
 *  the basename without the .csrt suffix. */
std::string traceCellName(const std::string &path);

/**
 * Write @p trace's records to @p path as .csrt: key = block number
 * (byte address / trace.blockBytes), the sampled processor's loads
 * and stores become GETs and SETs, other processors' writes DELs,
 * and the timestamp is the record index.
 *
 * @throws ConfigError on an unwritable path, TraceFormatError on a
 *         write failure.
 */
void saveSampledTrace(const std::string &path, const SampledTrace &trace);

/**
 * Read the records of a .csrt file seen from processor @p sampled:
 * each key becomes the byte address key * @p block_bytes, GETs and
 * SETs its loads and stores, each DEL a write by another processor.
 * The remote writer's id is not stored; the simulators only compare
 * a record's processor against the sampled one.
 *
 * @throws ConfigError / TraceFormatError from TraceReader.
 */
std::vector<TraceRecord> loadSampledRecords(const std::string &path,
                                            ProcId sampled,
                                            std::uint32_t block_bytes);

} // namespace csr::replay

#endif // CSR_REPLAY_SWEEPTRACE_H
