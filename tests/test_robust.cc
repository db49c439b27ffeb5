/**
 * @file
 * Tests for the robustness layer: the typed error hierarchy, the
 * JSONL checkpoint substrate under corrupt and truncated input, the
 * sweep checkpoint codec, per-cell fault isolation and retry,
 * kill-and-resume equivalence, typed trace-file errors, the NUMA
 * stall watchdog, and (in CSR_FAULT_INJECT builds) the deterministic
 * fault injector end to end.
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
#include "robust/CheckpointLog.h"
#include "robust/Errors.h"
#include "robust/FaultInjector.h"
#include "sim/SweepCheckpoint.h"
#include "sim/SweepRunner.h"
#include "trace/WorkloadFactory.h"

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
// JSONL substrate
// ---------------------------------------------------------------------------

TEST(CheckpointLog, WriterReaderRoundTrip)
{
    TempPath path("jsonl_roundtrip.jsonl");
    {
        JsonlWriter writer;
        writer.open(path.str(), /*truncate=*/true);
        writer.appendLine("{\"a\":1}");
        writer.appendLine("{\"b\":\"two\"}");
    }
    const auto records = readJsonlFile(path.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].text, "{\"a\":1}");
    EXPECT_EQ(records[0].lineNumber, 1u);
    EXPECT_EQ(records[0].byteOffset, 0u);
    EXPECT_TRUE(records[0].terminated);
    EXPECT_EQ(records[1].byteOffset, 8u);
    EXPECT_TRUE(records[1].terminated);
}

TEST(CheckpointLog, MissingFileReadsEmpty)
{
    EXPECT_TRUE(readJsonlFile("/nonexistent/definitely/not.jsonl")
                    .empty());
}

TEST(CheckpointLog, UnwritablePathIsConfigError)
{
    JsonlWriter writer;
    EXPECT_THROW(writer.open("/nonexistent-dir/x.jsonl", true),
                 ConfigError);
}

TEST(CheckpointLog, TornFinalLineIsMarkedUnterminated)
{
    TempPath path("jsonl_torn.jsonl");
    {
        std::ofstream os(path.str(), std::ios::binary);
        os << "{\"a\":1}\n{\"b\":2";  // killed mid-append
    }
    const auto records = readJsonlFile(path.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].terminated);
    EXPECT_FALSE(records[1].terminated);
    EXPECT_EQ(records[1].text, "{\"b\":2");
}

TEST(CheckpointLog, DoubleBitsRoundTripExactly)
{
    const double values[] = {0.0, -0.0, 1.0 / 3.0, -13.957,
                             1e308, 5e-324};
    for (const double v : values) {
        JsonlRecord record;
        record.text = "{\"v\":\"" + jsonDoubleBits(v) + "\"}";
        record.terminated = true;
        const JsonLineView line(record);
        const double back = line.getDoubleBits("v");
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << jsonDoubleBits(v);
    }
}

TEST(CheckpointLog, EscapeRoundTripsThroughParser)
{
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    JsonlRecord record;
    record.text = "{\"k\":\"" + jsonEscape(nasty) + "\"}";
    record.terminated = true;
    const JsonLineView line(record);
    EXPECT_EQ(line.getString("k"), nasty);
}

TEST(CheckpointLog, MalformedLinesThrowNeverCrash)
{
    const char *bad[] = {
        "",
        "x",
        "{",
        "}",
        "{}x",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1",
        "{\"a\":1,}",
        "{'a':1}",
        "{\"a\":01x}",
        "{\"a\":\"unterminated",
        "{\"a\":\"bad\\q\"}",
        "{\"a\":\"\\u12\"}",
        "{\"a\":[1,2]}",
        "{\"a\":{\"b\":1}}",
        "{\"a\":1}{\"b\":2}",
        "\xff\xfe\x00garbage",
    };
    for (const char *text : bad) {
        JsonlRecord record;
        record.text = text;
        record.lineNumber = 3;
        record.terminated = true;
        EXPECT_THROW(JsonLineView{record}, CheckpointError) << text;
    }
}

TEST(CheckpointLog, AccessorsTypeCheck)
{
    JsonlRecord record;
    record.text = "{\"s\":\"x\",\"n\":12,\"neg\":-3,\"bits\":\"zz\"}";
    record.terminated = true;
    const JsonLineView line(record);
    EXPECT_EQ(line.getString("s"), "x");
    EXPECT_EQ(line.getUInt("n"), 12u);
    EXPECT_THROW(line.getUInt("missing"), CheckpointError);
    EXPECT_THROW(line.getUInt("s"), CheckpointError);   // string
    EXPECT_THROW(line.getUInt("neg"), CheckpointError); // negative
    EXPECT_THROW(line.getString("n"), CheckpointError); // number
    EXPECT_THROW(line.getDoubleBits("bits"), CheckpointError);
}

// ---------------------------------------------------------------------------
// Sweep checkpoint codec
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
    TempPath path("ckpt_roundtrip.jsonl");

    SweepCellResult result;
    result.cell = cells[0];
    result.index = 0;
    result.sampledRefs = 123;
    result.l2Hits = 45;
    result.l2Misses = 78;
    result.aggregateCost = 1.0 / 3.0;
    result.lruCost = -7.125;
    result.savingsPct = 99.9;

    CellFailure failure;
    failure.cell = cells[1];
    failure.index = 1;
    failure.kind = "InjectedFaultError";
    failure.message = "weird \"quoted\"\nmessage";
    failure.attempts = 3;

    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(
            checkpointHeaderLine(gridFingerprint(cells), cells.size()));
        writer.appendLine(checkpointCellLine(result));
        writer.appendLine(checkpointFailureLine(failure));
    }

    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    ASSERT_EQ(state.results.size(), 1u);
    ASSERT_EQ(state.failures.size(), 1u);
    const SweepCellResult &r = state.results.at(0);
    EXPECT_EQ(r.sampledRefs, 123u);
    EXPECT_EQ(r.l2Misses, 78u);
    EXPECT_EQ(r.aggregateCost, 1.0 / 3.0);
    EXPECT_EQ(r.lruCost, -7.125);
    const CellFailure &f = state.failures.at(1);
    EXPECT_EQ(f.kind, "InjectedFaultError");
    EXPECT_EQ(f.message, failure.message);
    EXPECT_EQ(f.attempts, 3u);
}

TEST(SweepCheckpoint, LaterSuccessSupersedesEarlierFailure)
{
    const auto cells = tinyGrid().expand();
    TempPath path("ckpt_supersede.jsonl");

    CellFailure failure;
    failure.cell = cells[0];
    failure.index = 0;
    failure.kind = "InjectedFaultError";
    failure.message = "transient";

    SweepCellResult result;
    result.cell = cells[0];
    result.index = 0;
    result.sampledRefs = 11;

    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(
            checkpointHeaderLine(gridFingerprint(cells), cells.size()));
        writer.appendLine(checkpointFailureLine(failure));
        writer.appendLine(checkpointCellLine(result));
    }
    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_EQ(state.results.size(), 1u);
    EXPECT_TRUE(state.failures.empty());
}

TEST(SweepCheckpoint, WrongGridOrCorruptJournalIsCheckpointError)
{
    const auto cells = tinyGrid().expand();
    auto other = tinyGrid();
    other.policies = {PolicyKind::Lru};
    const auto other_cells = other.expand();

    TempPath path("ckpt_badgrid.jsonl");
    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(checkpointHeaderLine(
            gridFingerprint(other_cells), other_cells.size()));
    }
    EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                 CheckpointError);

    const char *bad_bodies[] = {
        "{\"type\":\"cell\",\"index\":0}",          // no header first
        "not json at all",
        "{\"type\":\"header\",\"version\":99,\"fingerprint\":1,"
        "\"cells\":2}",
    };
    for (const char *body : bad_bodies) {
        std::ofstream os(path.str(), std::ios::binary);
        os << body << "\n";
        os.close();
        EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                     CheckpointError)
            << body;
    }

    // A torn *final* line is the kill signature, not corruption.
    {
        std::ofstream os(path.str(), std::ios::binary);
        os << checkpointHeaderLine(gridFingerprint(cells),
                                   cells.size())
           << "\n{\"type\":\"cell\",\"index\":0,\"ha";
    }
    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    EXPECT_EQ(state.restoredCount(), 0u);
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
    options.retryBackoffMs = 0;
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
    TempPath checkpoint("resume_ck.jsonl");

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
    TempPath checkpoint("resume_wronggrid.jsonl");
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

void
spit(const std::string &path, const std::string &data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

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
        replay::loadSampledRecords(path.str(), 1);
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
        replay::loadSampledRecords(path.str(), 1);
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
    EXPECT_EQ(replay::loadSampledRecords(path.str(), 1).size(), 3u);
    for (std::size_t len = 0; len < full.size(); ++len) {
        spit(path.str(), full.substr(0, len));
        EXPECT_THROW(replay::loadSampledRecords(path.str(), 1),
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
        EXPECT_THROW(replay::loadSampledRecords(path.str(), 1),
                     TraceFormatError);
    }
}

TEST(TraceRobust, MissingFilesAreConfigErrors)
{
    EXPECT_THROW(replay::loadSampledRecords("/nonexistent/trace.csrt", 1),
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

TEST(FaultInjector, CompiledProbesInjectIntoSweepCells)
{
    if (!faultInjectionCompiledIn())
        GTEST_SKIP() << "built without -DCSR_FAULT_INJECT=ON";

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
    if (!faultInjectionCompiledIn())
        GTEST_SKIP() << "built without -DCSR_FAULT_INJECT=ON";

    FaultInjector &injector = FaultInjector::instance();
    SweepOptions options;
    options.maxAttempts = 4;
    options.retryBackoffMs = 0;

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
