#include "replay/SweepTrace.h"

#include "replay/ForEachRecord.h"
#include "replay/TraceWriter.h"
#include "robust/FaultInjector.h"
#include "util/Logging.h"

namespace csr::replay
{

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

void
saveSampledTrace(const std::string &path, const SampledTrace &trace)
{
    TraceWriter writer(path);
    ReplayRecord out;
    for (const TraceRecord &rec : trace.records) {
        const bool sampled = rec.proc == trace.sampledProc;
        csr_assert(sampled || rec.write,
                   "a sampled trace holds only other processors' writes");
        out.key = trace.blockOf(rec);
        out.op = !sampled ? TraceOp::Del
                 : rec.write ? TraceOp::Set
                             : TraceOp::Get;
        writer.append(out);
        ++out.tsNs;
    }
    writer.finish();
}

std::vector<TraceRecord>
loadSampledRecords(const std::string &path, ProcId sampled,
                   std::uint32_t block_bytes)
{
    CSR_FAULT_POINT(FaultSite::TraceLoad,
                    "loadSampledRecords(" + path + ")");
    TraceReader reader(path);
    const auto local = static_cast<std::uint16_t>(sampled);
    const auto remote = static_cast<std::uint16_t>(sampled == 0 ? 1 : 0);

    std::vector<TraceRecord> records;
    records.reserve(reader.recordCount());
    forEachRecord(reader, reader.recordCount(),
                  [&](std::uint64_t key, TraceOp op) {
                      TraceRecord rec;
                      rec.addr = key * block_bytes;
                      rec.proc = op == TraceOp::Del ? remote : local;
                      rec.write = op != TraceOp::Get;
                      records.push_back(rec);
                  });
    return records;
}

} // namespace csr::replay
