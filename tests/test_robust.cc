/**
 * @file
 * Tests for the robustness layer: the typed error hierarchy, the
 * sweep journal (writer, loader, and a mutation fuzz of its parser),
 * per-cell fault isolation and retry,
 * kill-and-resume equivalence, typed trace-file errors, the NUMA
 * stall watchdog, and the deterministic fault injector end to end,
 * at every probe site.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numa/NumaSystem.h"
#include "replay/Format.h"
#include "replay/SweepTrace.h"
#include "replay/TraceReader.h"
#include "robust/Errors.h"
#include "robust/FaultInjector.h"
#include "sim/SweepCheckpoint.h"
#include "sim/SweepRunner.h"
#include "trace/WorkloadFactory.h"
#include "util/Random.h"

namespace csr
{
namespace
{

/** Temp-file path helper; removes the file on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

TEST(Errors, KindsAndExitCodesAreDistinct)
{
    const ConfigError config("c");
    const TraceFormatError trace("t", 7);
    const CheckpointError checkpoint("k");
    const SimulationStallError stall("s", "snapshot");
    const InvariantError invariant("i");
    const InjectedFaultError injected("f");

    EXPECT_STREQ(config.kind(), "ConfigError");
    EXPECT_EQ(config.exitCode(), exitcode::kConfig);
    EXPECT_EQ(trace.exitCode(), exitcode::kTraceFormat);
    EXPECT_EQ(checkpoint.exitCode(), exitcode::kCheckpoint);
    EXPECT_EQ(stall.exitCode(), exitcode::kStall);
    EXPECT_EQ(invariant.exitCode(), exitcode::kInvariant);
    EXPECT_EQ(injected.exitCode(), exitcode::kInjectedFault);

    EXPECT_EQ(trace.byteOffset(), 7u);
    EXPECT_NE(std::string(trace.what()).find("byte offset 7"),
              std::string::npos);
    EXPECT_EQ(stall.snapshot(), "snapshot");
    // Every typed error is catchable as csr::Error.
    EXPECT_THROW(throw ConfigError("x"), Error);
}

// ---------------------------------------------------------------------------
// Sweep journal: writer, line reader and loader
// ---------------------------------------------------------------------------

SweepGrid
tinyGrid()
{
    SweepGrid grid;
    grid.scale = WorkloadScale::Test;
    grid.benchmarks = {BenchmarkId::Lu};
    grid.policies = {PolicyKind::Lru, PolicyKind::Dcl};
    return grid;
}

/** Write @p lines to @p path through the journal writer. */
void
writeJournal(const std::string &path, const std::vector<std::string> &lines)
{
    SweepJournal journal;
    journal.open(path, /*truncate=*/true);
    for (const std::string &line : lines)
        journal.append(line);
}

SweepCellResult
cellResult(const SweepCell &cell, std::size_t index)
{
    SweepCellResult result;
    result.cell = cell;
    result.index = index;
    result.sampledRefs = 123;
    result.l2Hits = 45;
    result.l2Misses = 78;
    result.aggregateCost = 1.0 / 3.0;
    result.lruCost = 7.125;
    return result;
}

CellFailure
cellFailure(const SweepCell &cell, std::size_t index,
            const std::string &message)
{
    CellFailure failure;
    failure.cell = cell;
    failure.index = index;
    failure.kind = "InjectedFaultError";
    failure.message = message;
    failure.attempts = 3;
    return failure;
}

std::string
headerOf(const std::vector<SweepCell> &cells)
{
    return checkpointHeaderLine(gridFingerprint(cells), cells.size());
}

/** what() of the CheckpointError that loading @p path raises; "" if
 *  it loads. */
std::string
loadError(const std::string &path, const std::vector<SweepCell> &cells)
{
    try {
        loadSweepCheckpoint(path, cells);
    } catch (const CheckpointError &e) {
        return e.what();
    }
    return "";
}

TEST(CheckpointLog, WriterReaderRoundTrip)
{
    const auto cells = tinyGrid().expand();
    TempPath path("journal_roundtrip.journal");
    const SweepCellResult result = cellResult(cells[0], 0);
    writeJournal(path.str(), {headerOf(cells), checkpointCellLine(result)});

    const std::string h0 = std::to_string(cells[0].hash());
    EXPECT_EQ(slurp(path.str()),
              headerOf(cells) + "\ncell 0 " + h0 +
                  " 123 45 78 0.3333333333333333 7.125\n");
    EXPECT_EQ(headerOf(cells).rfind("csrsweep 2 ", 0), 0u);

    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    ASSERT_EQ(state.results.size(), 1u);
    EXPECT_EQ(state.results.at(0).l2Hits, 45u);
}

TEST(CheckpointLog, MissingFileReadsEmpty)
{
    const auto state = loadSweepCheckpoint(
        "/nonexistent/definitely/not.journal", tinyGrid().expand());
    EXPECT_FALSE(state.headerValid);
    EXPECT_TRUE(state.results.empty());
}

TEST(CheckpointLog, UnwritablePathIsConfigError)
{
    SweepJournal journal;
    EXPECT_THROW(journal.open("/nonexistent-dir/x.journal", true),
                 ConfigError);
}

TEST(CheckpointLog, TornFinalLineIsMarkedUnterminated)
{
    const auto cells = tinyGrid().expand();
    TempPath path("journal_torn.journal");
    const std::string cell = checkpointCellLine(cellResult(cells[0], 0));
    // Killed mid-append, at every byte of the last line: the torn line
    // is dropped, never an error, and the whole lines before it load.
    for (std::size_t cut = 1; cut < cell.size(); ++cut) {
        spit(path.str(), headerOf(cells) + "\n" + cell.substr(0, cut));
        const auto state = loadSweepCheckpoint(path.str(), cells);
        EXPECT_TRUE(state.headerValid);
        EXPECT_TRUE(state.results.empty()) << cut;
    }
    // A torn header restores nothing: the sweep starts a new journal.
    spit(path.str(), headerOf(cells).substr(0, 12));
    EXPECT_FALSE(loadSweepCheckpoint(path.str(), cells).headerValid);
}

TEST(CheckpointLog, DoubleBitsRoundTripExactly)
{
    const auto cells = tinyGrid().expand();
    TempPath path("journal_doubles.journal");
    const double values[] = {0.0, -0.0, 1.0 / 3.0, -13.957,
                             1e308, 5e-324};
    for (const double v : values) {
        SweepCellResult result = cellResult(cells[0], 0);
        result.aggregateCost = v;
        result.lruCost = -v;
        const std::string line = checkpointCellLine(result);
        writeJournal(path.str(), {headerOf(cells), line});
        const SweepCellResult back =
            loadSweepCheckpoint(path.str(), cells).results.at(0);
        const double negated = -v;
        EXPECT_EQ(std::memcmp(&back.aggregateCost, &v, sizeof v), 0)
            << line;
        EXPECT_EQ(std::memcmp(&back.lruCost, &negated, sizeof v), 0)
            << line;
    }
}

TEST(CheckpointLog, EscapeRoundTripsThroughParser)
{
    const auto cells = tinyGrid().expand();
    TempPath path("journal_text.journal");
    const CellFailure failure =
        cellFailure(cells[1], 1, "a\"b\\c\nd\te\rf\x01g");
    writeJournal(path.str(), {headerOf(cells),
                              checkpointFailureLine(failure)});

    const std::string text = slurp(path.str());
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
    EXPECT_NE(text.find("InjectedFaultError a\"b\\c d e f g\n"),
              std::string::npos)
        << text;
    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    EXPECT_TRUE(state.results.empty()); // a failure is re-run
}

TEST(CheckpointLog, MalformedLinesThrowNeverCrash)
{
    const auto cells = tinyGrid().expand();
    const std::string h0 = std::to_string(cells[0].hash());
    const std::string h1 = std::to_string(cells[1].hash());
    TempPath path("journal_malformed.journal");

    const std::string bad[] = {
        "",
        "x",
        "cell",
        "cell 0",
        "cell 0 " + h0,
        "cell 0 " + h0 + " 1 2 3 4",
        "cell 0 " + h0 + " 1 2 3 4 5 6",
        "cell 0 " + h0 + " 1 2 3 4 5 ",
        "cell  0 " + h0 + " 1 2 3 4 5",
        "cell 0 " + h0 + " 1 2 3 4 0x5",
        "cell 0 " + h0 + " +1 2 3 4 5",
        "cell 2 " + h0 + " 1 2 3 4 5",
        "cell 1 " + h0 + " 1 2 3 4 5",
        "cell 0 " + h0 + " 1 2 3 4 5\r",
        "failure 0 " + h0,
        "failure 0 " + h0 + " x kind message",
        "failure 1 " + h0 + " 1 kind message",
        "header 0 " + h0,
        headerOf(cells),
        "{\"type\":\"cell\",\"index\":0}",
        "\xff\xfe\x00garbage",
    };
    for (const std::string &line : bad) {
        spit(path.str(), headerOf(cells) + "\n" + line + "\n");
        EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                     CheckpointError)
            << line;
    }

    // Mutants of a valid journal -- byte flips, deletions, insertions,
    // truncations and duplicated lines -- must each load or raise a
    // CheckpointError, and nothing else.
    const std::vector<std::string> lines = {
        headerOf(cells),
        checkpointCellLine(cellResult(cells[0], 0)),
        checkpointFailureLine(cellFailure(cells[1], 1, "injected")),
        checkpointCellLine(cellResult(cells[1], 1)),
    };
    std::string valid;
    for (const std::string &line : lines)
        valid += line + "\n";
    Rng rng(2026);
    std::size_t loaded = 0, rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string text = valid;
        const int edits = 1 + static_cast<int>(rng.nextBelow(3));
        for (int e = 0; e < edits && !text.empty(); ++e) {
            const std::size_t at = rng.nextBelow(text.size());
            const char byte = static_cast<char>(rng.nextBelow(256));
            switch (rng.nextBelow(5)) {
              case 0:
                text[at] = static_cast<char>(
                    text[at] ^ (1 << rng.nextBelow(8)));
                break;
              case 1:
                text.erase(at, 1);
                break;
              case 2:
                text.insert(at, 1, byte);
                break;
              case 3:
                text.resize(at);
                break;
              default: { // a duplicated line, at a line start
                  const std::size_t nl = text.rfind('\n', at);
                  text.insert(nl == std::string::npos ? 0 : nl + 1,
                              lines[rng.nextBelow(lines.size())] + "\n");
              }
            }
        }
        spit(path.str(), text);
        try {
            loadSweepCheckpoint(path.str(), cells);
            ++loaded;
        } catch (const CheckpointError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw " << e.what();
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(CheckpointLog, AccessorsTypeCheck)
{
    const auto cells = tinyGrid().expand();
    TempPath path("journal_fields.journal");
    const std::string good = checkpointCellLine(cellResult(cells[0], 0));
    // Field number (0 = the record type) -> a value it must reject.
    const std::pair<int, std::string> cases[] = {
        {3, "many"},                 // non-numeric
        {4, "-3"},                   // negative
        {5, "18446744073709551616"}, // 2^64
        {6, "inf"},                  // non-finite
        {7, "nan"},
        {7, "1e999"},
    };
    for (const auto &[field, value] : cases) {
        std::vector<std::string> tokens;
        std::istringstream words(good);
        for (std::string word; words >> word;)
            tokens.push_back(word);
        tokens[field] = value;
        std::string line, offset;
        for (std::size_t t = 0; t < tokens.size(); ++t) {
            if (t == static_cast<std::size_t>(field))
                offset = std::to_string(headerOf(cells).size() + 1 +
                                        line.size());
            line += tokens[t] + (t + 1 < tokens.size() ? " " : "");
        }
        writeJournal(path.str(), {headerOf(cells), line});
        const std::string what = loadError(path.str(), cells);
        EXPECT_NE(what.find("line 2 (byte offset " + offset + ")"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("'" + value + "'"), std::string::npos)
            << what;
    }
}

TEST(SweepCheckpoint, FingerprintIsOrderAndContentSensitive)
{
    const auto cells = tinyGrid().expand();
    ASSERT_EQ(cells.size(), 2u);
    auto reversed = cells;
    std::swap(reversed[0], reversed[1]);
    EXPECT_NE(gridFingerprint(cells), gridFingerprint(reversed));
    EXPECT_NE(gridFingerprint(cells),
              gridFingerprint({cells.begin(), cells.begin() + 1}));
    EXPECT_EQ(gridFingerprint(cells),
              gridFingerprint(tinyGrid().expand()));
}

TEST(SweepCheckpoint, CellAndFailureLinesRoundTrip)
{
    const auto cells = tinyGrid().expand();
    TempPath path("ckpt_roundtrip.journal");
    SweepCellResult result = cellResult(cells[0], 0);
    result.lruCost = 1.5;
    writeJournal(path.str(),
                 {headerOf(cells), checkpointCellLine(result),
                  checkpointFailureLine(cellFailure(
                      cells[1], 1, "weird \"quoted\"\nmessage"))});

    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    ASSERT_EQ(state.results.size(), 1u);
    const SweepCellResult &r = state.results.at(0);
    EXPECT_EQ(r.index, 0u);
    EXPECT_EQ(r.seed, cells[0].hash());
    EXPECT_EQ(r.sampledRefs, 123u);
    EXPECT_EQ(r.l2Hits, 45u);
    EXPECT_EQ(r.l2Misses, 78u);
    EXPECT_EQ(r.aggregateCost, 1.0 / 3.0);
    EXPECT_EQ(r.lruCost, 1.5);
    // Savings are not stored: the loader recomputes them as the
    // runner does.
    EXPECT_EQ(r.savingsPct, relativeCostSavings(1.5, 1.0 / 3.0));
}

TEST(SweepCheckpoint, LaterSuccessSupersedesEarlierFailure)
{
    const auto cells = tinyGrid().expand();
    TempPath path("ckpt_supersede.journal");
    const std::string failure =
        checkpointFailureLine(cellFailure(cells[0], 0, "transient"));
    const std::string success = checkpointCellLine(cellResult(cells[0], 0));

    writeJournal(path.str(), {headerOf(cells), failure, failure, success});
    EXPECT_EQ(loadSweepCheckpoint(path.str(), cells).results.size(), 1u);

    // Nothing may follow a recorded success.
    for (const std::string &after : {failure, success}) {
        writeJournal(path.str(), {headerOf(cells), success, after});
        EXPECT_NE(loadError(path.str(), cells)
                      .find("duplicate entry for completed cell 0"),
                  std::string::npos)
            << after;
    }
}

TEST(SweepCheckpoint, WrongGridOrCorruptJournalIsCheckpointError)
{
    const auto cells = tinyGrid().expand();
    auto other = tinyGrid();
    other.policies = {PolicyKind::Lru};
    const auto other_cells = other.expand();

    TempPath path("ckpt_badgrid.journal");
    writeJournal(path.str(), {headerOf(other_cells)});
    EXPECT_NE(loadError(path.str(), cells).find("different grid"),
              std::string::npos);

    // A cell line of another grid's cell is refused by its hash.
    writeJournal(path.str(),
                 {headerOf(cells),
                  checkpointCellLine(cellResult(other_cells[0], 1))});
    EXPECT_NE(loadError(path.str(), cells).find("does not match"),
              std::string::npos);

    const std::string bad_bodies[] = {
        checkpointCellLine(cellResult(cells[0], 0)), // no header first
        "not a journal at all",
        "csrsweep 99 1 2",
        headerOf(cells) + " 7",
    };
    for (const std::string &body : bad_bodies) {
        spit(path.str(), body + "\n");
        EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                     CheckpointError)
            << body;
    }

    // A version-1 journal names the version and the way out.
    spit(path.str(),
             "{\"type\":\"header\",\"version\":1,\"fingerprint\":1,"
             "\"cells\":2}\n");
    const std::string v1 = loadError(path.str(), cells);
    EXPECT_NE(v1.find("predates format version 2"), std::string::npos)
        << v1;
    EXPECT_NE(v1.find("without --resume"), std::string::npos) << v1;
    EXPECT_NE(v1.find(path.str()), std::string::npos) << v1;
}

// ---------------------------------------------------------------------------
// Fault isolation, retry, resume
// ---------------------------------------------------------------------------

TEST(SweepRobust, OneFailingCellDoesNotTakeDownTheGrid)
{
    const SweepGrid grid = tinyGrid();
    SweepOptions options;
    options.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Dcl)
            throw TraceFormatError("synthetic corruption", 42);
    };
    const SweepResult result = SweepRunner(2).run(grid, options);
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.gridCells, 2u);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_EQ(result.cells[0].cell.policy, PolicyKind::Lru);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, "TraceFormatError");
    EXPECT_EQ(result.failures[0].attempts, 1u);
    EXPECT_EQ(result.failureTable().numRows(), 1u);
}

TEST(SweepRobust, RetriesRecoverTransientFailures)
{
    const SweepGrid grid = tinyGrid();
    SweepOptions options;
    options.maxAttempts = 3;
    options.cellProbe = [](const SweepCell &, unsigned attempt) {
        if (attempt < 3)
            throw CheckpointError("transient");
    };
    const SweepResult result = SweepRunner(2).run(grid, options);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.cells.size(), 2u);

    // One attempt fewer and the same failure is terminal.
    options.maxAttempts = 2;
    const SweepResult failed = SweepRunner(2).run(grid, options);
    EXPECT_EQ(failed.failures.size(), 2u);
    EXPECT_EQ(failed.failures[0].attempts, 2u);
}

TEST(SweepRobust, NonCsrExceptionsAreIsolatedToo)
{
    SweepOptions options;
    options.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Lru)
            throw std::runtime_error("not a csr::Error");
    };
    const SweepResult result = SweepRunner(2).run(tinyGrid(), options);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, "std::exception");
}

TEST(SweepRobust, KilledSweepResumesByteIdentically)
{
    const SweepGrid grid = tinyGrid();
    TempPath uninterrupted_json("resume_clean.json");
    TempPath interrupted_json("resume_resumed.json");
    TempPath checkpoint("resume_ck.journal");

    // The reference: one uninterrupted run.
    SweepRunner(2).run(grid).writeJson(uninterrupted_json.str(),
                                       /*include_timing=*/false);

    // "Kill" the sweep partway: the second cell dies every attempt.
    SweepOptions crash;
    crash.checkpointPath = checkpoint.str();
    crash.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Dcl)
            throw CheckpointError("process killed here");
    };
    // jobs=1 so the journal's line order is deterministic: the
    // success line lands before the failure line we tear below.
    const SweepResult partial = SweepRunner(1).run(grid, crash);
    EXPECT_FALSE(partial.complete());

    // Tear the journal's final line as a real SIGKILL would.
    std::string journal = slurp(checkpoint.str());
    ASSERT_FALSE(journal.empty());
    journal.resize(journal.size() - 3);
    {
        std::ofstream os(checkpoint.str(), std::ios::binary);
        os << journal;
    }

    // Resume: restored cells are not re-run, the rest complete.
    SweepOptions resume;
    resume.checkpointPath = checkpoint.str();
    resume.resume = true;
    const SweepResult resumed = SweepRunner(2).run(grid, resume);
    EXPECT_TRUE(resumed.complete());
    EXPECT_GE(resumed.resumedCells, 1u);

    resumed.writeJson(interrupted_json.str(),
                      /*include_timing=*/false);
    EXPECT_EQ(slurp(uninterrupted_json.str()),
              slurp(interrupted_json.str()));
}

TEST(SweepRobust, ResumeAgainstDifferentGridIsCheckpointError)
{
    TempPath checkpoint("resume_wronggrid.journal");
    SweepOptions options;
    options.checkpointPath = checkpoint.str();
    SweepRunner(1).run(tinyGrid(), options);

    SweepGrid other = tinyGrid();
    other.benchmarks = {BenchmarkId::Barnes};
    options.resume = true;
    EXPECT_THROW(SweepRunner(1).run(other, options), CheckpointError);
}

// ---------------------------------------------------------------------------
// Sampled trace files (csrsim trace --save-trace/--load-trace)
// ---------------------------------------------------------------------------

/** Processor 1's load and store, then another processor's write. */
SampledTrace
tinySampledTrace()
{
    SampledTrace trace;
    trace.sampledProc = 1;
    trace.records = {{0x1000, 1, false}, {0x2040, 1, true},
                     {0x3f80, 15, true}};
    return trace;
}

std::string
savedBytes(const SampledTrace &trace, const std::string &name)
{
    TempPath path(name);
    replay::saveSampledTrace(path.str(), trace);
    return slurp(path.str());
}

TEST(TraceRobust, BadMagicAndBitsCarryOffsets)
{
    TempPath path("bad.csrt");
    spit(path.str(), std::string(100, 'X'));
    try {
        replay::loadSampledRecords(path.str(), 1, 64);
        FAIL() << "no throw";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 0u);
    }

    // A load and a store differ only in the header checksum and the
    // first record's op byte, which starts the raw op column.
    std::string bad = savedBytes(tinySampledTrace(), "ops_load.csrt");
    SampledTrace stored = tinySampledTrace();
    stored.records[0].write = true;
    const std::string other = savedBytes(stored, "ops_store.csrt");
    ASSERT_EQ(bad.size(), other.size());
    std::size_t op = replay::format::kHeaderBytes;
    while (op < bad.size() && bad[op] == other[op])
        ++op;
    ASSERT_LT(op, bad.size());
    bad[op] = '\x07'; // no such TraceOp
    spit(path.str(), bad);
    try {
        replay::loadSampledRecords(path.str(), 1, 64);
        FAIL() << "no throw";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), op);
    }
}

TEST(TraceRobust, EveryTruncationThrowsTraceFormatError)
{
    const std::string full = savedBytes(tinySampledTrace(), "full.csrt");
    TempPath path("cut.csrt");
    spit(path.str(), full);
    EXPECT_EQ(replay::loadSampledRecords(path.str(), 1, 64).size(), 3u);
    for (std::size_t len = 0; len < full.size(); ++len) {
        spit(path.str(), full.substr(0, len));
        EXPECT_THROW(replay::loadSampledRecords(path.str(), 1, 64),
                     TraceFormatError)
            << "prefix length " << len;
    }
}

TEST(TraceRobust, HugeDeclaredCountDoesNotPreallocate)
{
    using namespace replay::format;

    // The 64-byte empty trace, patched to declare 2^60 records in 2^60
    // one-record blocks indexed at byte 64: 2^60 index entries of 16
    // bytes wrap to the zero bytes the file holds.
    std::string empty = savedBytes(SampledTrace{}, "huge_empty.csrt");
    ASSERT_EQ(empty.size(), kHeaderBytes);
    auto *header = reinterpret_cast<std::uint8_t *>(empty.data());
    put32(header + 16, 1);
    put64(header + 24, std::uint64_t{1} << 60);
    put64(header + 32, std::uint64_t{1} << 60);
    put64(header + 40, kHeaderBytes);

    // One block declaring 2^32 - 1 records in a few bytes: every
    // record spends at least its op byte, so recordCount(), which
    // loaders reserve() by, must never exceed the file size.
    SampledTrace one;
    one.records = {{0x40, 0, false}};
    std::string block = savedBytes(one, "huge_block.csrt");
    auto *data = reinterpret_cast<std::uint8_t *>(block.data());
    const std::uint32_t huge = 0xFFFFFFFFu;
    put32(data + 16, huge);
    put64(data + 24, huge);
    put32(data + get64(data + 40) + 8, huge);

    TempPath path("huge.csrt");
    for (const std::string *bytes : {&empty, &block}) {
        spit(path.str(), *bytes);
        for (replay::ReadMode mode :
             {replay::ReadMode::Mmap, replay::ReadMode::Buffered})
            EXPECT_THROW(replay::TraceReader(path.str(), mode),
                         TraceFormatError)
                << bytes->size() << "-byte file, "
                << replay::readModeName(mode);
        EXPECT_THROW(replay::loadSampledRecords(path.str(), 1, 64),
                     TraceFormatError);
    }
}

TEST(TraceRobust, MissingFilesAreConfigErrors)
{
    EXPECT_THROW(
        replay::loadSampledRecords("/nonexistent/trace.csrt", 1, 64),
        ConfigError);
    EXPECT_THROW(replay::saveSampledTrace("/nonexistent-dir/trace.csrt",
                                          SampledTrace{}),
                 ConfigError);
}

// ---------------------------------------------------------------------------
// NUMA stall watchdog & budget
// ---------------------------------------------------------------------------

TEST(NumaRobust, CycleBudgetRaisesStallWithSnapshot)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.maxSimNs = 500; // far too little for any benchmark
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);
    try {
        sys.run();
        FAIL() << "no throw";
    } catch (const SimulationStallError &e) {
        EXPECT_NE(e.snapshot().find("numa diagnostic snapshot"),
                  std::string::npos);
        EXPECT_NE(e.snapshot().find("node  0"), std::string::npos);
        EXPECT_NE(e.snapshot().find("network"), std::string::npos);
    }
}

TEST(NumaRobust, WatchdogCatchesFrozenProgress)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.stallWindowNs = 5'000;
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);

    // A self-perpetuating no-op event chain: simulated time advances
    // forever, but once the processors have finished nothing retires
    // and no miss completes -- the exact signature of a protocol
    // livelock, crafted without having to break the protocol.
    // (Capturing the raw pointer, not the shared_ptr, avoids a
    // self-reference cycle; `tick` outlives run(), which throws.)
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&sys, t = tick.get()] { sys.events().scheduleIn(50, *t); };
    sys.events().schedule(0, *tick);

    EXPECT_THROW(sys.run(), SimulationStallError);
}

TEST(NumaRobust, ValidateCadenceCompletesOnHealthyRun)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.validateEveryEvents = 2048;
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);
    const NumaResult result = sys.run();
    EXPECT_GT(result.totalOps, 0u);
}

// ---------------------------------------------------------------------------
// Cache/policy invariant checks (--validate)
// ---------------------------------------------------------------------------

TEST(ValidateMode, SweepWithInvariantChecksMatchesWithout)
{
    SweepGrid grid = tinyGrid();
    SweepOptions checked;
    checked.validateEveryRefs = 512;
    const SweepResult a = SweepRunner(2).run(grid);
    const SweepResult b = SweepRunner(2).run(grid, checked);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].l2Misses, b.cells[i].l2Misses);
        EXPECT_EQ(a.cells[i].aggregateCost, b.cells[i].aggregateCost);
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injector
// ---------------------------------------------------------------------------

std::vector<bool>
drawSequence(std::uint64_t seed, std::uint64_t context, int n)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure(0.5, seed);
    FaultInjector::Scope scope(context);
    std::vector<bool> out;
    for (int i = 0; i < n; ++i)
        out.push_back(injector.shouldFail(FaultSite::TraceSim));
    injector.configure(0.0, 0);
    return out;
}

TEST(FaultInjector, DecisionsAreDeterministicPerSeedAndContext)
{
    const auto a = drawSequence(1234, 42, 64);
    const auto b = drawSequence(1234, 42, 64);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, drawSequence(1235, 42, 64));
    EXPECT_NE(a, drawSequence(1234, 43, 64));
    // Roughly half fire at rate 0.5 -- sanity, not statistics.
    const int fired = static_cast<int>(
        std::count(a.begin(), a.end(), true));
    EXPECT_GT(fired, 8);
    EXPECT_LT(fired, 56);
}

TEST(FaultInjector, NeverFiresOutsideScopeOrWhenDisabled)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure(1.0, 7);
    EXPECT_FALSE(injector.shouldFail(FaultSite::TraceSim)); // no scope
    {
        FaultInjector::Scope scope(1);
        EXPECT_TRUE(injector.shouldFail(FaultSite::TraceSim));
    }
    injector.configure(0.0, 7);
    {
        FaultInjector::Scope scope(1);
        EXPECT_FALSE(injector.shouldFail(FaultSite::TraceSim));
    }
}

/** what() of the InjectedFaultError @p probe throws; "" if none. */
template <typename Probe>
std::string
injectedFault(Probe &&probe)
{
    try {
        probe();
    } catch (const InjectedFaultError &e) {
        return e.what();
    }
    return "";
}

// The sweep tests below cover the trace-sim probe; this one drives the
// trace-load, numa-sim and checkpoint-io probes at rate 1.
TEST(FaultInjector, EveryProbeSiteFires)
{
    TempPath trace("probe_sites.csrt");
    replay::saveSampledTrace(trace.str(), tinySampledTrace());
    const auto cells = tinyGrid().expand();
    const std::string header = headerOf(cells);
    const std::string cell0 = checkpointCellLine(cellResult(cells[0], 0));
    const std::string cell1 = checkpointCellLine(cellResult(cells[1], 1));
    TempPath path("probe_sites.journal");
    SweepJournal journal;
    journal.open(path.str(), /*truncate=*/true);
    journal.append(header);
    NumaConfig numa;
    numa.cycleNs = 1;
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);

    FaultInjector &injector = FaultInjector::instance();
    injector.configure(1.0, 7);

    // Outside a scope no site fires, even at rate 1.
    EXPECT_EQ(replay::loadSampledRecords(trace.str(), 1, 64).size(), 3u);
    EXPECT_GT(NumaSystem(numa, *wl).run().totalOps, 0u);
    journal.append(cell0);
    EXPECT_EQ(injector.injectedCount(), 0u);

    std::string load, sim, append;
    {
        FaultInjector::Scope scope(1);
        load = injectedFault(
            [&] { replay::loadSampledRecords(trace.str(), 1, 64); });
        sim = injectedFault([&] { NumaSystem(numa, *wl).run(); });
        append = injectedFault([&] { journal.append(cell1); });
    }
    const std::uint64_t injected = injector.injectedCount();
    injector.configure(0.0, 0);

    EXPECT_NE(load.find(faultSiteName(FaultSite::TraceLoad)),
              std::string::npos) << load;
    EXPECT_NE(sim.find(faultSiteName(FaultSite::NumaSim)),
              std::string::npos) << sim;
    EXPECT_NE(append.find(faultSiteName(FaultSite::CheckpointIO)),
              std::string::npos) << append;
    EXPECT_EQ(injected, 3u);

    // The failed append wrote nothing: the journal still holds the
    // earlier lines, whole, takes the next one, and loads.
    journal.append(cell1);
    EXPECT_EQ(slurp(path.str()),
              header + "\n" + cell0 + "\n" + cell1 + "\n");
    EXPECT_EQ(loadSweepCheckpoint(path.str(), cells).results.size(), 2u);
}

TEST(FaultInjector, CompiledProbesInjectIntoSweepCells)
{
    FaultInjector &injector = FaultInjector::instance();
    injector.configure(1.0, 99);

    // Setup (trace generation, LRU profiles) runs outside any scope
    // and must be immune; every cell then dies on its first probe.
    const SweepResult result = SweepRunner(2).run(tinyGrid());
    const std::uint64_t injected = injector.injectedCount();
    injector.configure(0.0, 0); // resets the injected counter too

    EXPECT_TRUE(result.cells.empty());
    ASSERT_EQ(result.failures.size(), 2u);
    for (const CellFailure &failure : result.failures)
        EXPECT_EQ(failure.kind, "InjectedFaultError");
    EXPECT_GE(injected, 2u);
}

TEST(FaultInjector, InjectedSweepIsRepeatable)
{
    FaultInjector &injector = FaultInjector::instance();
    SweepOptions options;
    options.maxAttempts = 4;

    injector.configure(0.4, 2026);
    const SweepResult a = SweepRunner(1).run(tinyGrid(), options);
    injector.configure(0.4, 2026);
    const SweepResult b = SweepRunner(8).run(tinyGrid(), options);
    injector.configure(0.0, 0);

    // Same seed => same cells fail with the same attempt counts,
    // regardless of worker count.
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        EXPECT_EQ(a.failures[i].index, b.failures[i].index);
        EXPECT_EQ(a.failures[i].attempts, b.failures[i].attempts);
    }
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i)
        EXPECT_EQ(a.cells[i].aggregateCost, b.cells[i].aggregateCost);
}

} // namespace
} // namespace csr
