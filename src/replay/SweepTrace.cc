#include "replay/SweepTrace.h"

#include <unordered_set>

#include "replay/TraceReader.h"
#include "replay/TraceWriter.h"
#include "robust/FaultInjector.h"
#include "util/Logging.h"
#include "util/Random.h"

namespace csr::replay
{

namespace
{
/** Fan-out of the synthetic home assignment (the paper's CC-NUMA
 *  studies use 16-node machines). */
constexpr std::uint32_t kSyntheticHomes = 16;
} // namespace

std::string
traceCellName(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string suffix = ".csrt";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        base.resize(base.size() - suffix.size());
    return base;
}

SampledTrace
loadReplaySampledTrace(const std::string &path,
                       std::uint32_t block_bytes)
{
    TraceReader reader(path);

    SampledTrace trace;
    trace.benchmark = traceCellName(path);
    trace.sampledProc = 0;
    trace.blockBytes = block_bytes;
    trace.records.reserve(reader.recordCount());

    std::unordered_set<Addr> touched;
    std::uint64_t remote = 0;

    ReplayBlock block;
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i) {
            const auto op = static_cast<TraceOp>(block.op[i]);
            if (op == TraceOp::Del)
                continue; // no load/store equivalent
            TraceRecord rec;
            rec.addr = block.key[i] * block_bytes;
            rec.proc = 0;
            rec.write = op == TraceOp::Set;

            const Addr blk = rec.addr / block_bytes; // == key
            const auto home = static_cast<ProcId>(
                hashMix64(blk) % kSyntheticHomes);
            if (touched.insert(blk).second)
                trace.homeOf.emplace(blk, home);
            if (home != trace.sampledProc)
                ++remote;

            trace.records.push_back(rec);
        }
    }

    trace.sampledRefs = trace.records.size();
    trace.touchedBytes =
        static_cast<std::uint64_t>(touched.size()) * block_bytes;
    trace.remoteAccessFraction =
        trace.sampledRefs
            ? static_cast<double>(remote) /
                  static_cast<double>(trace.sampledRefs)
            : 0.0;
    return trace;
}

void
saveSampledTrace(const std::string &path, const SampledTrace &trace)
{
    TraceWriter writer(path);
    ReplayRecord out;
    for (const TraceRecord &rec : trace.records) {
        const bool sampled = rec.proc == trace.sampledProc;
        csr_assert(sampled || rec.write,
                   "a sampled trace holds only other processors' writes");
        out.key = rec.addr;
        out.op = !sampled ? TraceOp::Del
                 : rec.write ? TraceOp::Set
                             : TraceOp::Get;
        writer.append(out);
        ++out.tsNs;
    }
    writer.finish();
}

std::vector<TraceRecord>
loadSampledRecords(const std::string &path, ProcId sampled)
{
    CSR_FAULT_POINT(FaultSite::TraceLoad,
                    "loadSampledRecords(" + path + ")");
    TraceReader reader(path);
    const auto remote = static_cast<std::uint16_t>(sampled == 0 ? 1 : 0);

    std::vector<TraceRecord> records;
    records.reserve(reader.recordCount());
    ReplayBlock block;
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i) {
            const auto op = static_cast<TraceOp>(block.op[i]);
            TraceRecord rec;
            rec.addr = block.key[i];
            rec.proc = op == TraceOp::Del
                           ? remote
                           : static_cast<std::uint16_t>(sampled);
            rec.write = op != TraceOp::Get;
            records.push_back(rec);
        }
    }
    return records;
}

} // namespace csr::replay
