#include "sim/SweepCheckpoint.h"

#include "robust/CheckpointLog.h"
#include "util/Json.h"
#include "util/Random.h"

namespace csr
{

namespace
{

constexpr std::uint64_t kCheckpointVersion = 1;

std::string
uintField(const char *key, std::uint64_t v)
{
    return std::string("\"") + key + "\":" + std::to_string(v);
}

std::string
bitsField(const char *key, double v)
{
    return std::string("\"") + key + "\":\"" + jsonDoubleBits(v) + "\"";
}

std::string
stringField(const char *key, const std::string &v)
{
    return std::string("\"") + key + "\":\"" + jsonEscape(v) + "\"";
}

} // namespace

std::uint64_t
gridFingerprint(const std::vector<SweepCell> &cells)
{
    std::uint64_t h = hashMix64(0x5EEB0A4Dull ^ cells.size());
    for (const SweepCell &cell : cells)
        h = hashMix64(h ^ cell.hash());
    return h;
}

std::string
checkpointHeaderLine(std::uint64_t fingerprint, std::size_t cell_count)
{
    return "{\"type\":\"header\"," +
           uintField("version", kCheckpointVersion) + "," +
           uintField("fingerprint", fingerprint) + "," +
           uintField("cells", cell_count) + "}";
}

std::string
checkpointCellLine(const SweepCellResult &result)
{
    return "{\"type\":\"cell\"," + uintField("index", result.index) +
           "," + uintField("hash", result.cell.hash()) + "," +
           uintField("sampledRefs", result.sampledRefs) + "," +
           uintField("l2Hits", result.l2Hits) + "," +
           uintField("l2Misses", result.l2Misses) + "," +
           bitsField("aggregateCost", result.aggregateCost) + "," +
           bitsField("lruCost", result.lruCost) + "," +
           bitsField("savingsPct", result.savingsPct) + "}";
}

std::string
checkpointFailureLine(const CellFailure &failure)
{
    return "{\"type\":\"failure\"," + uintField("index", failure.index) +
           "," + uintField("hash", failure.cell.hash()) + "," +
           stringField("kind", failure.kind) + "," +
           stringField("message", failure.message) + "," +
           uintField("attempts", failure.attempts) + "}";
}

SweepCheckpointState
loadSweepCheckpoint(const std::string &path,
                    const std::vector<SweepCell> &cells)
{
    SweepCheckpointState state;
    const std::vector<JsonlRecord> records = readJsonlFile(path);

    for (const JsonlRecord &record : records) {
        if (!record.terminated) {
            // Torn final append of a killed process: drop it.  (The
            // reader only ever sees an unterminated line last, so no
            // valid data can follow it.)
            break;
        }
        const JsonLineView line(record);
        const std::string type = line.getString("type");
        const auto failAt = [&](const std::string &what) {
            throw CheckpointError(
                "checkpoint '" + path + "' line " +
                std::to_string(record.lineNumber) + ": " + what);
        };

        if (!state.headerValid) {
            if (type != "header")
                failAt("first line is not a header");
            if (line.getUInt("version") != kCheckpointVersion)
                failAt("unsupported checkpoint version " +
                       std::to_string(line.getUInt("version")));
            if (line.getUInt("cells") != cells.size() ||
                line.getUInt("fingerprint") != gridFingerprint(cells))
                failAt("checkpoint was written for a different grid");
            state.headerValid = true;
            continue;
        }

        if (type == "header")
            failAt("duplicate header");
        if (type != "cell" && type != "failure")
            failAt("unknown record type '" + type + "'");

        const std::size_t index =
            static_cast<std::size_t>(line.getUInt("index"));
        if (index >= cells.size())
            failAt("cell index " + std::to_string(index) +
                   " out of range");
        if (line.getUInt("hash") != cells[index].hash())
            failAt("cell " + std::to_string(index) +
                   " does not match the grid");
        // Re-run cells append a second line for the same index: a
        // later outcome supersedes an earlier *failure* (the resume
        // path retries failed cells), but nothing may follow a
        // recorded success.
        if (state.results.count(index))
            failAt("duplicate entry for completed cell " +
                   std::to_string(index));

        if (type == "cell") {
            state.failures.erase(index);
            SweepCellResult result;
            result.cell = cells[index];
            result.index = index;
            result.seed = cells[index].hash();
            result.sampledRefs = line.getUInt("sampledRefs");
            result.l2Hits = line.getUInt("l2Hits");
            result.l2Misses = line.getUInt("l2Misses");
            result.aggregateCost = line.getDoubleBits("aggregateCost");
            result.lruCost = line.getDoubleBits("lruCost");
            result.savingsPct = line.getDoubleBits("savingsPct");
            state.results.emplace(index, std::move(result));
        } else {
            CellFailure failure;
            failure.cell = cells[index];
            failure.index = index;
            failure.kind = line.getString("kind");
            failure.message = line.getString("message");
            failure.attempts =
                static_cast<unsigned>(line.getUInt("attempts"));
            state.failures[index] = std::move(failure);
        }
    }
    return state;
}

} // namespace csr
