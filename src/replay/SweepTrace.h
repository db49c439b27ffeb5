/**
 * @file
 * Bridge between .csrt traces and the SampledTrace form: recorded KV
 * workloads occupy sweep grid cells next to the paper's synthetic
 * benchmarks (csrsim sweep ... traces=foo.csrt), and generated
 * sampled-processor traces are saved and reloaded as .csrt
 * (csrsim trace --save-trace/--load-trace).
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
 * Decode @p path into a SampledTrace: keys become block-granular
 * addresses (key * block_bytes), SETs stores, GETs loads, DELs
 * skipped.  Every record is attributed to the sampled processor 0.
 * KV traces carry no NUMA placement, so homeOf is synthesized
 * deterministically (hashMix64(block) % 16) as a stand-in that gives
 * the first-touch cost mapping something stable to chew on; studies
 * that need real homes must use the synthetic benchmarks.
 *
 * @throws ConfigError / TraceFormatError from TraceReader.
 */
SampledTrace loadReplaySampledTrace(const std::string &path,
                                    std::uint32_t block_bytes);

/**
 * Write @p trace's records to @p path as .csrt: key = byte address,
 * the sampled processor's loads and stores become GETs and SETs,
 * other processors' writes (the invalidations of Section 3.1) become
 * DELs, and the timestamp is the record index.
 *
 * @throws ConfigError on an unwritable path, TraceFormatError on a
 *         write failure.
 */
void saveSampledTrace(const std::string &path, const SampledTrace &trace);

/**
 * Read the records of a .csrt file written by saveSampledTrace(),
 * seen from processor @p sampled: GETs and SETs become its loads and
 * stores, each DEL a write by another processor.  The remote
 * writer's id is not stored; the simulators only compare a record's
 * processor against the sampled one.
 *
 * @throws ConfigError / TraceFormatError from TraceReader.
 */
std::vector<TraceRecord> loadSampledRecords(const std::string &path,
                                            ProcId sampled);

} // namespace csr::replay

#endif // CSR_REPLAY_SWEEPTRACE_H
