#include "sim/SweepCheckpoint.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "robust/FaultInjector.h"
#include "util/Random.h"

namespace csr
{

namespace
{

constexpr std::string_view kMagic = "csrsweep";
constexpr std::uint64_t kVersion = 2;

std::string
costText(double v)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

/** @p text with every control byte turned into a space, so that a
 *  record stays on one line. */
std::string
oneLine(std::string text)
{
    for (char &c : text)
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
    return text;
}

/** The whole of @p path; "" when it does not exist. */
std::string
readJournal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (errno == ENOENT)
            return {};
        throw CheckpointError("cannot read checkpoint '" + path +
                              "': " + std::strerror(errno));
    }
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/**
 * Reads line @p number of the journal @p path, which starts at byte
 * @p offset, token by token.  Every error names the path, the line
 * and the byte offset of the token at fault.
 */
struct LineReader
{
    const std::string &path;
    std::string_view text;
    std::size_t number;
    std::size_t offset;
    std::size_t start = 0; ///< of the last token read
    std::size_t pos = 0;   ///< of the next token; > text.size() at the end

    /** The next space-separated token ("" past the end). */
    std::string_view
    next()
    {
        start = std::min(pos, text.size());
        const std::size_t space = text.find(' ', start);
        const std::size_t stop =
            space == std::string_view::npos ? text.size() : space;
        pos = stop + 1;
        return text.substr(start, stop - start);
    }

    /** The next token as a whole decimal std::uint64_t, or as a
     *  finite double. */
    template <typename T>
    T
    next(const char *what)
    {
        const std::string_view token = next();
        T v{};
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), v);
        if (ec != std::errc{} || ptr != token.data() + token.size() ||
            !std::isfinite(static_cast<double>(v)))
            fail(std::string(what) + " '" + std::string(token) +
                 (std::is_integral_v<T> ? "' is not an unsigned integer"
                                        : "' is not a finite number"));
        return v;
    }

    /** Error unless every token has been read. */
    void
    end()
    {
        if (pos <= text.size()) {
            next();
            fail("unexpected field after the last one");
        }
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw CheckpointError("checkpoint '" + path + "' line " +
                              std::to_string(number) + " (byte offset " +
                              std::to_string(offset + start) +
                              "): " + what);
    }
};

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
    return std::string(kMagic) + " " + std::to_string(kVersion) + " " +
           std::to_string(fingerprint) + " " + std::to_string(cell_count);
}

std::string
checkpointCellLine(const SweepCellResult &result)
{
    return "cell " + std::to_string(result.index) + " " +
           std::to_string(result.cell.hash()) + " " +
           std::to_string(result.sampledRefs) + " " +
           std::to_string(result.l2Hits) + " " +
           std::to_string(result.l2Misses) + " " +
           costText(result.aggregateCost) + " " +
           costText(result.lruCost);
}

std::string
checkpointFailureLine(const CellFailure &failure)
{
    return "failure " + std::to_string(failure.index) + " " +
           std::to_string(failure.cell.hash()) + " " +
           std::to_string(failure.attempts) + " " +
           oneLine(failure.kind) + " " + oneLine(failure.message);
}

void
SweepJournal::open(const std::string &path, bool truncate)
{
    file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file_ == nullptr)
        throw ConfigError("cannot open checkpoint '" + path +
                          "' for writing: " + std::strerror(errno));
    path_ = path;
}

void
SweepJournal::append(const std::string &line)
{
    if (file_ == nullptr)
        return;
    // Fires only for callers with an active FaultInjector::Scope
    // (FaultInjector.EveryProbeSiteFires; a sweep appends outside its
    // cells' scopes); an injected fault here behaves like a real
    // failed disk write.
    CSR_FAULT_POINT(FaultSite::CheckpointIO, "journal append");
    const std::string record = line + "\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    if (std::fwrite(record.data(), 1, record.size(), file_) !=
            record.size() ||
        std::fflush(file_) != 0)
        throw CheckpointError("write failure on checkpoint '" + path_ +
                              "': " + std::strerror(errno));
}

SweepCheckpointState
loadSweepCheckpoint(const std::string &path,
                    const std::vector<SweepCell> &cells)
{
    SweepCheckpointState state;
    const std::string text = readJournal(path);
    std::size_t number = 0;
    for (std::size_t start = 0; start < text.size();) {
        const std::size_t newline = text.find('\n', start);
        // An unterminated line can only be the last one: the torn
        // final append of a killed sweep.  Drop it.
        if (newline == std::string::npos)
            break;
        LineReader line{path,
                        std::string_view(text).substr(start,
                                                      newline - start),
                        ++number, start};
        start = newline + 1;
        const std::string_view type = line.next();

        if (!state.headerValid) {
            if (type.starts_with('{'))
                line.fail("the journal predates format version 2 "
                          "(version 1 wrote JSON); rerun the sweep "
                          "without --resume");
            if (type != kMagic)
                line.fail("first line is not a csrsweep header");
            const auto version = line.next<std::uint64_t>("version");
            if (version != kVersion)
                line.fail("unsupported journal version " +
                          std::to_string(version));
            const auto fingerprint = line.next<std::uint64_t>("fingerprint");
            const auto count = line.next<std::uint64_t>("cell count");
            line.end();
            if (count != cells.size() ||
                fingerprint != gridFingerprint(cells))
                line.fail("journal was written for a different grid");
            state.headerValid = true;
            continue;
        }

        if (type == kMagic)
            line.fail("duplicate header");
        if (type != "cell" && type != "failure")
            line.fail("unknown record type '" + std::string(type) + "'");
        const auto index = line.next<std::uint64_t>("cell index");
        if (index >= cells.size())
            line.fail("cell index " + std::to_string(index) +
                      " out of range");
        if (line.next<std::uint64_t>("cell hash") != cells[index].hash())
            line.fail("cell " + std::to_string(index) +
                      " does not match the grid");
        // Re-run cells append a second line for the same index: a
        // later outcome supersedes an earlier *failure* (the resume
        // path retries failed cells), but nothing may follow a
        // recorded success.
        if (state.results.count(index))
            line.fail("duplicate entry for completed cell " +
                      std::to_string(index));

        if (type == "failure") {
            // The rest of the line (kind, message) is for people.
            line.next<std::uint64_t>("attempts");
            continue;
        }
        SweepCellResult result;
        result.cell = cells[index];
        result.index = index;
        result.seed = cells[index].hash();
        result.sampledRefs = line.next<std::uint64_t>("sampledRefs");
        result.l2Hits = line.next<std::uint64_t>("l2Hits");
        result.l2Misses = line.next<std::uint64_t>("l2Misses");
        result.aggregateCost = line.next<double>("aggregateCost");
        result.lruCost = line.next<double>("lruCost");
        line.end();
        result.savingsPct =
            relativeCostSavings(result.lruCost, result.aggregateCost);
        state.results.emplace(index, std::move(result));
    }
    return state;
}

} // namespace csr
