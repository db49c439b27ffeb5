/**
 * @file
 * Tests of the trace-replay subsystem (src/replay): csrt format
 * round-trips at every block boundary, corrupt/truncated-file
 * rejection with typed errors, mmap-vs-buffered reader equality,
 * replay determinism across --jobs, text ingestion, the SampledTrace
 * bridge (sweep cells, csrsim --save-trace/--load-trace), the
 * serve-layer replay path, and the KeyGenerator determinism/zeta-cache
 * satellites.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/CacheModel.h"
#include "cost/StaticCostModels.h"
#include "replay/Format.h"
#include "replay/Ingest.h"
#include "replay/Replayer.h"
#include "replay/SweepTrace.h"
#include "replay/TraceReader.h"
#include "replay/TraceWriter.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/KeyGenerator.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "sim/TraceStudy.h"
#include "trace/WorkloadFactory.h"
#include "util/CliArgs.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::replay;

namespace
{

/** Fresh path under the gtest temp dir, unique per call, test and
 *  process: ctest runs every test in a process of its own, several at
 *  once under -j, so a per-process counter alone would collide. */
std::string
tempPath(const std::string &stem)
{
    static int counter = 0;
    const testing::TestInfo *test =
        testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + "csr_replay_" + test->test_suite_name() +
           "." + test->name() + "_" + std::to_string(::getpid()) + "_" +
           stem + "_" + std::to_string(counter++) + ".csrt";
}

/** n records exercising all ops, irregular timestamps, and value
 *  sizes/cost hints that need both small and large varints. */
std::vector<ReplayRecord>
syntheticRecords(std::size_t n)
{
    std::vector<ReplayRecord> records(n);
    std::uint64_t ts = 5;
    for (std::size_t i = 0; i < n; ++i) {
        ReplayRecord &rec = records[i];
        // Deltas of both signs: zig-zag must round-trip them.
        ts += (i % 7 == 3) ? 0 : (i % 5) * 1000 + 1;
        if (i % 11 == 10 && ts > 4000)
            ts -= 3999; // out-of-order timestamp (allowed)
        rec.tsNs = ts;
        rec.key = hashMix64(i / 3); // repeated keys, spread bits
        rec.op = static_cast<TraceOp>(i % 10 == 9 ? 2 : i % 3 == 1);
        rec.valueSize = static_cast<std::uint32_t>((i * 67) % 70000);
        rec.costHint = static_cast<std::uint32_t>(i % 4 ? 0 : i * 13);
    }
    return records;
}

std::string
writeTrace(const std::vector<ReplayRecord> &records,
           std::uint32_t block_size, const std::string &stem = "t")
{
    const std::string path = tempPath(stem);
    TraceWriter writer(path, block_size);
    for (const ReplayRecord &rec : records)
        writer.append(rec);
    writer.finish();
    return path;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::uint8_t *data,
           std::size_t n)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(data),
              static_cast<std::streamsize>(n));
}

/** In-place byte surgery for corruption tests. */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

/** Build a strict CliArgs from a flag list (argv[0] = program). */
CliArgs
argsOf(std::vector<std::string> tokens)
{
    tokens.insert(tokens.begin(), "test");
    std::vector<char *> argv;
    argv.reserve(tokens.size());
    for (std::string &t : tokens)
        argv.push_back(t.data());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

} // namespace

// ---------------------------------------------------------------------------
// Format primitives
// ---------------------------------------------------------------------------

TEST(Format, ZigzagRoundTripsExtremes)
{
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
          std::int64_t{-2}, std::int64_t{63}, std::int64_t{-64},
          std::int64_t{1} << 40, -(std::int64_t{1} << 40),
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()}) {
        EXPECT_EQ(format::unzigzag(format::zigzag(v)), v);
    }
    // Small magnitudes of either sign stay small (the property the
    // varint leans on).
    EXPECT_LT(format::zigzag(-3), 8u);
    EXPECT_LT(format::zigzag(3), 8u);
}

TEST(Format, VarintRoundTripsAndRejectsTruncation)
{
    std::uint8_t buf[format::kMaxVarintBytes];
    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{16383},
          std::uint64_t{16384}, std::uint64_t{1} << 40,
          std::numeric_limits<std::uint64_t>::max()}) {
        const unsigned n = format::putVarint(buf, v);
        ASSERT_LE(n, format::kMaxVarintBytes);
        const std::uint8_t *p = buf;
        std::uint64_t out = 0;
        ASSERT_TRUE(format::getVarint(p, buf + n, out));
        EXPECT_EQ(out, v);
        EXPECT_EQ(p, buf + n);

        // Every proper prefix is a truncation, and p stays put.
        for (unsigned cut = 0; cut < n; ++cut) {
            const std::uint8_t *q = buf;
            EXPECT_FALSE(format::getVarint(q, buf + cut, out));
            EXPECT_EQ(q, buf);
        }
    }
}

// ---------------------------------------------------------------------------
// Writer/reader round trips
// ---------------------------------------------------------------------------

TEST(TraceRoundTrip, EveryBlockBoundary)
{
    // blockSize 8: 7/8/9 straddle one boundary, 16/17 the next, 100
    // spans many blocks with a partial tail.
    for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 100u}) {
        const std::vector<ReplayRecord> records = syntheticRecords(n);
        const std::string path = writeTrace(records, 8, "boundary");

        TraceReader reader(path);
        EXPECT_EQ(reader.recordCount(), n);
        EXPECT_EQ(reader.blockCount(), (n + 7) / 8);
        EXPECT_EQ(reader.blockSize(), 8u);
        EXPECT_EQ(reader.readAll(), records) << "n=" << n;
        reader.verifyChecksum();
        std::remove(path.c_str());
    }
}

TEST(TraceRoundTrip, MmapAndBufferedDecodeIdentically)
{
    const std::vector<ReplayRecord> records = syntheticRecords(1000);
    const std::string path = writeTrace(records, 64, "modes");

    TraceReader mmapped(path, ReadMode::Mmap);
    TraceReader buffered(path, ReadMode::Buffered);
    EXPECT_EQ(mmapped.mode(), ReadMode::Mmap);
    EXPECT_EQ(buffered.mode(), ReadMode::Buffered);
    EXPECT_EQ(mmapped.readAll(), records);
    EXPECT_EQ(buffered.readAll(), records);
    for (std::uint64_t b = 0; b < mmapped.blockCount(); ++b)
        for (unsigned c = 0; c < format::kColumns; ++c)
            EXPECT_EQ(mmapped.columnEncoding(b, c),
                      buffered.columnEncoding(b, c));
    buffered.verifyChecksum();
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, EncodingFallsBackToRawPerColumn)
{
    // Sequential keys delta to 1 -> varint wins; hashMix64 keys are
    // 8-byte noise -> raw fixed width is smaller than 10-byte
    // varints.  The op column is raw by construction.
    std::vector<ReplayRecord> sequential(256), noisy(256);
    for (std::size_t i = 0; i < 256; ++i) {
        sequential[i].key = i;
        sequential[i].tsNs = i * 100;
        noisy[i].key = hashMix64(i * 2654435761u);
        noisy[i].tsNs = i * 100;
    }
    const std::string seq_path = writeTrace(sequential, 256, "seq");
    const std::string noise_path = writeTrace(noisy, 256, "noise");

    TraceReader seq(seq_path), noise(noise_path);
    EXPECT_EQ(seq.columnEncoding(0, format::kColKey),
              format::kEncodingVarint);
    EXPECT_EQ(noise.columnEncoding(0, format::kColKey),
              format::kEncodingRaw);
    EXPECT_EQ(seq.columnEncoding(0, format::kColOp),
              format::kEncodingRaw);
    EXPECT_EQ(noise.readAll(), noisy); // raw path round-trips too
    std::remove(seq_path.c_str());
    std::remove(noise_path.c_str());
}

TEST(TraceRoundTrip, SeeksAreO1AndBlockAligned)
{
    const std::vector<ReplayRecord> records = syntheticRecords(100);
    const std::string path = writeTrace(records, 8, "seek");
    TraceReader reader(path);

    // Record 42 lives in block 5 at in-block offset 2 -- decode just
    // that block and pluck it out.
    const std::uint64_t block = reader.blockOfRecord(42);
    EXPECT_EQ(block, 5u);
    EXPECT_EQ(reader.firstRecordOf(block), 40u);
    EXPECT_EQ(reader.blockRecords(block), 8u);
    EXPECT_EQ(reader.blockRecords(reader.blockCount() - 1), 4u);
    ReplayBlock decoded;
    reader.readBlock(block, decoded);
    EXPECT_EQ(decoded.record(2), records[42]);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption and negative paths
// ---------------------------------------------------------------------------

TEST(TraceReaderRejects, MissingFileIsConfigError)
{
    EXPECT_THROW(TraceReader("/nonexistent/nope.csrt"), ConfigError);
}

TEST(TraceReaderRejects, BadMagic)
{
    const std::string path = writeTrace(syntheticRecords(32), 8, "magic");
    flipByte(path, 0);
    try {
        TraceReader reader(path);
        FAIL() << "bad magic accepted";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.exitCode(), exitcode::kTraceFormat);
        EXPECT_EQ(e.byteOffset(), 0u);
    }
    std::remove(path.c_str());
}

TEST(TraceReaderRejects, TruncatedHeaderAndBody)
{
    const std::string path = writeTrace(syntheticRecords(40), 8, "trunc");
    const std::vector<std::uint8_t> full = readBytes(path);
    const std::string cut = tempPath("cut");
    for (ReadMode mode : {ReadMode::Mmap, ReadMode::Buffered}) {
        for (std::size_t len = 0; len < full.size(); ++len) {
            writeBytes(cut, full.data(), len);
            EXPECT_THROW(
                {
                    TraceReader reader(cut, mode);
                    reader.readAll();
                    reader.verifyChecksum();
                },
                TraceFormatError)
                << readModeName(mode) << " prefix length " << len;
        }
    }
    std::remove(cut.c_str());
    std::remove(path.c_str());
}

TEST(TraceReaderRejects, ChecksumCatchesPayloadCorruption)
{
    const std::string path =
        writeTrace(syntheticRecords(64), 8, "checksum");
    // Flip one byte inside the first block's payload (header is 64
    // bytes; +20 lands past the block+column preludes).
    flipByte(path, format::kHeaderBytes + 20);
    TraceReader reader(path);
    EXPECT_THROW(reader.verifyChecksum(), TraceFormatError);
    std::remove(path.c_str());
}

TEST(TraceReaderRejects, BadReadModeNameListsValues)
{
    try {
        requireReadMode("directio");
        FAIL() << "bad read mode accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("mmap"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("buffered"),
                  std::string::npos);
    }
}

TEST(TraceWriterRejects, ZeroBlockSizeAndUnwritablePath)
{
    EXPECT_THROW(TraceWriter("x.csrt", 0), ConfigError);
    EXPECT_THROW(TraceWriter("/nonexistent/dir/x.csrt"), ConfigError);
}

// ---------------------------------------------------------------------------
// Replayer
// ---------------------------------------------------------------------------

namespace
{

/** A recorded synthetic stream, the bench/CI fixture in miniature. */
std::string
recordedZipfTrace(std::uint64_t ops, std::uint64_t seed)
{
    serve::WorkloadMix mix;
    mix.numKeys = 4096;
    mix.writeFraction = 0.2;
    serve::KeyGenerator gen(mix, seed);
    const std::string path = tempPath("zipf");
    TraceWriter writer(path);
    for (std::uint64_t i = 0; i < ops; ++i) {
        const serve::Op op = gen.next();
        ReplayRecord rec;
        rec.tsNs = i * 1000;
        rec.key = op.key;
        rec.op = op.write ? TraceOp::Set : TraceOp::Get;
        rec.valueSize = 8;
        writer.append(rec);
    }
    writer.finish();
    return path;
}

} // namespace

TEST(Replayer, TotalsAreJobCountInvariant)
{
    const std::string path = recordedZipfTrace(50'000, 11);
    ReplayConfig config;
    config.path = path;
    config.cacheBytes = 64 * 1024;
    config.policy = PolicyKind::Acl;

    std::vector<ReplayTotals> totals;
    for (unsigned jobs : {1u, 8u}) {
        config.jobs = jobs;
        const ReplayResult result = replayTrace(config);
        EXPECT_EQ(result.totals.ops, 50'000u);
        EXPECT_EQ(result.jobs, jobs);
        totals.push_back(result.totals);
    }
    EXPECT_EQ(totals[0], totals[1]) << "jobs=1 vs jobs=8 diverged";
    EXPECT_GT(totals[0].hits, 0u);
    EXPECT_GT(totals[0].evictions, 0u);
    std::remove(path.c_str());
}

TEST(Replayer, MaxOpsBoundsTheReplay)
{
    const std::string path = recordedZipfTrace(10'000, 3);
    ReplayConfig config;
    config.path = path;
    config.maxOps = 1234;
    const ReplayResult result = replayTrace(config);
    EXPECT_EQ(result.totals.ops, 1234u);
    EXPECT_EQ(result.traceRecords, 10'000u);
    std::remove(path.c_str());
}

namespace
{

/** A trace of many 64-record blocks over a keyspace a few times the
 *  test cache: GET/SET/DEL, every fourth record with a cost hint. */
std::vector<ReplayRecord>
mixedRecords(std::size_t n)
{
    std::vector<ReplayRecord> records(n);
    for (std::size_t i = 0; i < n; ++i) {
        ReplayRecord &rec = records[i];
        rec.tsNs = i;
        rec.key = hashMix64(i) % 211;
        rec.op = TraceOp::Get;
        if (i % 10 == 9)
            rec.op = TraceOp::Del;
        else if (i % 3 == 1)
            rec.op = TraceOp::Set;
        rec.valueSize = 8;
        rec.costHint =
            i % 4 ? 0 : static_cast<std::uint32_t>(1 + i * 37 % 5000);
    }
    return records;
}

/** The replay protocol written out once more, on one thread with no
 *  decode stage: the reference the replayer must match. */
ReplayTotals
serialReplay(const ReplayConfig &config)
{
    const CacheGeometry geom(config.cacheBytes, config.assoc,
                             config.blockBytes);
    CacheModel model(geom,
                     makePolicy(config.policy, geom, config.policyParams));
    TraceReader reader(config.path);
    std::vector<ReplayRecord> records = reader.readAll();
    if (config.maxOps != 0 && config.maxOps < records.size())
        records.resize(config.maxOps);
    ReplayTotals t;
    const auto evicted = [&t](int, Addr, std::uint32_t) { ++t.evictions; };
    for (const ReplayRecord &rec : records) {
        const Addr addr = rec.key * config.blockBytes;
        const std::uint32_t set = geom.setIndex(addr);
        const Addr tag = geom.tag(addr);
        const std::uint64_t cost =
            rec.costHint ? rec.costHint : config.defaultCostNs;
        ++t.ops;
        if (rec.op == TraceOp::Del) {
            ++t.dels;
            model.invalidateTag(set, tag);
            continue;
        }
        const int way = model.access(set, tag);
        if (rec.op == TraceOp::Get) {
            ++t.gets;
            if (way != kInvalidWay) {
                ++t.hits;
                continue;
            }
            ++t.misses;
            t.missCostNs += cost;
        } else {
            ++t.sets;
            t.storeCostNs += cost;
            if (way != kInvalidWay) {
                ++t.setHits;
                model.updateCost(set, way, static_cast<Cost>(cost));
                continue;
            }
        }
        model.fillVictimOrFree(set, tag, static_cast<Cost>(cost), 0, evicted);
    }
    return t;
}

} // namespace

TEST(Replayer, DecodeStageMatchesSerialReference)
{
    // 16 blocks: twice the decode ring, so slots are reused.
    constexpr std::uint32_t kBlock = 64;
    constexpr std::uint64_t kRecords = 1000;
    const std::string path =
        writeTrace(mixedRecords(kRecords), kBlock, "stage");
    ReplayConfig config;
    config.path = path;
    config.cacheBytes = 4096; // 16 sets of 4 ways for 211 keys
    config.assoc = 4;
    config.policy = PolicyKind::Acl;

    const std::uint64_t cuts[] = {0, 1, kBlock, kBlock + 1, kRecords - 1};
    for (std::uint64_t max_ops : cuts) {
        config.maxOps = max_ops;
        config.jobs = 1;
        const ReplayTotals want = serialReplay(config);
        EXPECT_EQ(want.ops, max_ops ? max_ops : kRecords);
        if (max_ops == 0) { // the reference exercises every path
            EXPECT_GT(want.hits, 0u);
            EXPECT_GT(want.setHits, 0u);
            EXPECT_GT(want.dels, 0u);
            EXPECT_GT(want.evictions, 0u);
        }
        for (unsigned jobs : {1u, 2u, 3u, 4u, 7u}) {
            config.jobs = jobs;
            const ReplayResult result = replayTrace(config);
            EXPECT_EQ(result.totals, want)
                << "jobs " << jobs << ", maxOps " << max_ops;
            EXPECT_EQ(result.jobs, jobs);
        }
    }
    std::remove(path.c_str());
}

TEST(Replayer, CorruptBlockThrowsAtEveryJobCount)
{
    constexpr std::uint32_t kBlock = 64;
    const std::string path = writeTrace(mixedRecords(1000), kBlock, "corrupt");
    // Block 9 of 16 (past one turn of the ring): give its key column
    // an encoding byte no reader knows.  Header byte 40 holds the index
    // offset, an index entry starts with its block's offset, and the
    // key column follows the timestamp column.
    constexpr std::uint64_t kBad = 9;
    std::vector<std::uint8_t> bytes = readBytes(path);
    const std::uint8_t *file = bytes.data();
    const std::uint64_t index = format::get64(file + 40);
    const std::uint64_t ts_column =
        format::get64(file + index + kBad * format::kIndexEntryBytes) +
        format::kBlockHeaderBytes;
    const std::uint64_t key_column = ts_column + format::kColumnHeaderBytes +
                                     format::get32(file + ts_column + 1);
    bytes[key_column] = 0x7F;
    writeBytes(path, bytes.data(), bytes.size());

    std::string want_what;
    std::uint64_t want_offset = 0;
    try {
        TraceReader reader(path);
        ReplayBlock decoded;
        reader.readBlock(kBad, decoded);
        FAIL() << "readBlock accepted the corrupt block";
    } catch (const TraceFormatError &e) {
        want_what = e.what();
        want_offset = e.byteOffset();
    }
    EXPECT_EQ(want_offset, key_column);

    ReplayConfig config;
    config.path = path;
    config.cacheBytes = 4096;
    config.assoc = 4;
    config.policy = PolicyKind::Acl;
    for (unsigned jobs : {1u, 4u}) {
        config.jobs = jobs;
        try {
            replayTrace(config);
            ADD_FAILURE() << "jobs " << jobs << ": no error";
        } catch (const TraceFormatError &e) {
            EXPECT_EQ(std::string(e.what()), want_what) << "jobs " << jobs;
            EXPECT_EQ(e.byteOffset(), want_offset) << "jobs " << jobs;
        }
    }
    std::remove(path.c_str());
}

TEST(Replayer, EmptyTraceReplaysToZero)
{
    const std::string path = writeTrace({}, 64, "empty");
    ReplayConfig config;
    config.path = path;
    for (unsigned jobs : {1u, 4u}) {
        config.jobs = jobs;
        const ReplayResult result = replayTrace(config);
        EXPECT_EQ(result.totals, ReplayTotals{}) << "jobs " << jobs;
        EXPECT_EQ(result.traceRecords, 0u);
    }
    std::remove(path.c_str());
}

TEST(Replayer, DelInvalidatesResidency)
{
    // get a (miss+fill), set b, get a (hit), del a, get a (miss).
    std::vector<ReplayRecord> records(5);
    records[0] = {0, 100, TraceOp::Get, 8, 0};
    records[1] = {1, 200, TraceOp::Set, 8, 0};
    records[2] = {2, 100, TraceOp::Get, 8, 0};
    records[3] = {3, 100, TraceOp::Del, 0, 0};
    records[4] = {4, 100, TraceOp::Get, 8, 0};
    const std::string path = writeTrace(records, 8, "del");

    ReplayConfig config;
    config.path = path;
    const ReplayResult result = replayTrace(config);
    EXPECT_EQ(result.totals.gets, 3u);
    EXPECT_EQ(result.totals.sets, 1u);
    EXPECT_EQ(result.totals.dels, 1u);
    EXPECT_EQ(result.totals.hits, 1u);
    EXPECT_EQ(result.totals.misses, 2u);
    // Both misses carry the 1000ns default cost hint.
    EXPECT_EQ(result.totals.missCostNs, 2000u);
    std::remove(path.c_str());
}

TEST(Replayer, CostHintsBeatTheDefaultCost)
{
    std::vector<ReplayRecord> records(2);
    records[0] = {0, 1, TraceOp::Get, 8, 77};  // per-record hint
    records[1] = {1, 2, TraceOp::Get, 8, 0};   // falls back
    const std::string path = writeTrace(records, 8, "cost");
    ReplayConfig config;
    config.path = path;
    config.defaultCostNs = 1000;
    const ReplayResult result = replayTrace(config);
    EXPECT_EQ(result.totals.missCostNs, 1077u);
    std::remove(path.c_str());
}

TEST(Replayer, ConfigRejectsOfflinePoliciesAndBadFlags)
{
    ReplayConfig config;
    config.path = "t.csrt";
    config.policy = PolicyKind::Opt;
    EXPECT_THROW(config.validate(), ConfigError);
    config.policy = PolicyKind::CostOpt;
    EXPECT_THROW(config.validate(), ConfigError);

    config = ReplayConfig{};
    EXPECT_THROW(config.validate(), ConfigError); // no path

    config = ReplayConfig{};
    config.path = "t.csrt";
    config.defaultCostNs = 0;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Replayer, CliNegativePathsListAcceptedValues)
{
    // The satellite contract: every bad flag dies with ConfigError
    // naming the accepted values, not a crash or a silent default.
    EXPECT_THROW(ReplayConfig::fromArgs(argsOf(
                     {"--file", "t.csrt", "--policy", "nosuch"})),
                 ConfigError);
    EXPECT_THROW(ReplayConfig::fromArgs(argsOf(
                     {"--file", "t.csrt", "--read-mode", "directio"})),
                 ConfigError);
    EXPECT_THROW(ReplayConfig::fromArgs(argsOf(
                     {"--file", "t.csrt", "--policy", "opt"})),
                 ConfigError);
    try {
        ReplayConfig::fromArgs(
            argsOf({"--file", "t.csrt", "--policy", "nosuch"}));
        FAIL() << "unknown policy accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("lru"),
                  std::string::npos)
            << "diagnostic should list valid policies: " << e.what();
    }
}

// ---------------------------------------------------------------------------
// Ingestion
// ---------------------------------------------------------------------------

TEST(Ingest, GenericColumnsOpAliasesAndKeyHashing)
{
    std::istringstream in("# comment\n"
                          "\n"
                          "0,12345,GET,64\n"
                          "1000,alpha,put,128\n"
                          "2000,12345,Delete,0\n"
                          "3000,beta,cas,16\n");
    IngestConfig config;
    config.colTs = 0;
    config.colKey = 1;
    config.colOp = 2;
    config.colSize = 3;

    const std::string path = tempPath("ingest");
    TraceWriter writer(path, 8);
    const IngestStats stats = ingestText(in, config, writer);
    writer.finish();
    EXPECT_EQ(stats.records, 4u);
    EXPECT_EQ(stats.skipped, 2u);

    TraceReader reader(path);
    const std::vector<ReplayRecord> records = reader.readAll();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].key, 12345u); // decimal keys verbatim
    EXPECT_EQ(records[0].op, TraceOp::Get);
    EXPECT_EQ(records[1].key, format::fnv1aString("alpha"));
    EXPECT_EQ(records[1].op, TraceOp::Set); // put alias
    EXPECT_EQ(records[1].valueSize, 128u);
    EXPECT_EQ(records[2].op, TraceOp::Del); // Delete alias, any case
    EXPECT_EQ(records[2].key, records[0].key);
    EXPECT_EQ(records[3].op, TraceOp::Set); // cas alias
    std::remove(path.c_str());
}

TEST(Ingest, BadRowsThrowNamingTheLine)
{
    IngestConfig config;
    config.colTs = 0;
    config.colKey = 1;
    config.colOp = 2;

    const std::string short_row = tempPath("bad1");
    const std::string bad_op = tempPath("bad2");
    // Too few columns.
    {
        std::istringstream in("0,a,get\n0,b\n");
        TraceWriter writer(short_row, 8);
        try {
            ingestText(in, config, writer);
            FAIL() << "short row accepted";
        } catch (const TraceFormatError &e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
        }
    }
    // Unknown op token.
    {
        std::istringstream in("0,a,frobnicate\n");
        TraceWriter writer(bad_op, 8);
        EXPECT_THROW(ingestText(in, config, writer),
                     TraceFormatError);
    }
    std::remove(short_row.c_str());
    std::remove(bad_op.c_str());
}

TEST(Ingest, TsUnitsScaleAndMissingTsSynthesizes)
{
    // Seconds scale to ns.
    {
        IngestConfig config;
        config.colTs = 0;
        config.colKey = 1;
        config.tsUnit = TsUnit::S;
        std::istringstream in("1.5,7\n2.0,8\n");
        const std::string path = tempPath("tsunit");
        TraceWriter writer(path, 8);
        ingestText(in, config, writer);
        writer.finish();
        const std::vector<ReplayRecord> records =
            TraceReader(path).readAll();
        EXPECT_EQ(records[0].tsNs, 1'500'000'000u);
        EXPECT_EQ(records[1].tsNs, 2'000'000'000u);
        std::remove(path.c_str());
    }
    // No ts column: synthetic 1us spacing keeps a monotone clock.
    {
        IngestConfig config; // colTs = -1, colKey = 0
        std::istringstream in("7\n8\n9\n");
        const std::string path = tempPath("nots");
        TraceWriter writer(path, 8);
        ingestText(in, config, writer);
        writer.finish();
        const std::vector<ReplayRecord> records =
            TraceReader(path).readAll();
        EXPECT_EQ(records[1].tsNs - records[0].tsNs, 1000u);
        EXPECT_EQ(records[2].tsNs - records[1].tsNs, 1000u);
        std::remove(path.c_str());
    }
    EXPECT_THROW(requireTsUnit("fortnights"), ConfigError);
}

TEST(Ingest, PresetFlagsValidateAndRejectUnknownNames)
{
    // Presets parse; an unknown preset dies listing the names.
    EXPECT_NO_THROW(IngestConfig::fromArgs(
        argsOf({"--preset", "twitter"})));
    EXPECT_NO_THROW(IngestConfig::fromArgs(
        argsOf({"--preset", "meta"})));
    try {
        IngestConfig::fromArgs(argsOf({"--preset", "memcachier"}));
        FAIL() << "unknown preset accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("twitter"),
                  std::string::npos)
            << e.what();
    }
    // A preset's column map actually ingests its layout (twitter:
    // ts(s),key,keySize,valueSize,client,op,ttl).
    const IngestConfig config =
        IngestConfig::fromArgs(argsOf({"--preset", "twitter"}));
    std::istringstream in("100,k1,2,512,19,get,0\n"
                          "101,k2,2,64,19,set,3600\n");
    const std::string path = tempPath("twitter");
    TraceWriter writer(path, 8);
    ingestText(in, config, writer);
    writer.finish();
    const std::vector<ReplayRecord> records =
        TraceReader(path).readAll();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].tsNs, 100'000'000'000u);
    EXPECT_EQ(records[0].op, TraceOp::Get);
    EXPECT_EQ(records[0].valueSize, 512u);
    EXPECT_EQ(records[1].op, TraceOp::Set);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SampledTrace bridge
// ---------------------------------------------------------------------------

TEST(SweepTrace, LoadsDeterministicallyAndNamesCells)
{
    EXPECT_EQ(traceCellName("/a/b/twitter_c12.csrt"), "twitter_c12");
    EXPECT_EQ(traceCellName("plain.csrt"), "plain");

    const std::string path = recordedZipfTrace(2'000, 5);
    const SampledTrace a = loadReplaySampledTrace(path, 64);
    const SampledTrace b = loadReplaySampledTrace(path, 64);
    EXPECT_GT(a.records.size(), 0u);
    EXPECT_EQ(a.records.size(), b.records.size());
    EXPECT_EQ(a.sampledRefs, b.sampledRefs);
    EXPECT_EQ(a.touchedBytes, b.touchedBytes);
    EXPECT_EQ(a.remoteAccessFraction, b.remoteAccessFraction);
    EXPECT_EQ(a.homeOf, b.homeOf);
    std::remove(path.c_str());
}

TEST(SweepTrace, SavedSampledTraceReloadsToTheSameStudy)
{
    auto wl = makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*wl, 1);
    const std::string path = tempPath("sampled");
    saveSampledTrace(path, trace);

    SampledTrace back = trace;
    back.records = loadSampledRecords(path, trace.sampledProc);
    std::remove(path.c_str());
    ASSERT_EQ(back.records.size(), trace.records.size());
    std::uint64_t remote = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const TraceRecord &want = trace.records[i];
        const TraceRecord &got = back.records[i];
        if (want.proc == trace.sampledProc) {
            EXPECT_EQ(got, want) << "record " << i;
        } else {
            ++remote;
            EXPECT_EQ(got.addr, want.addr) << "record " << i;
            EXPECT_TRUE(got.write) << "record " << i;
            EXPECT_NE(got.proc, trace.sampledProc) << "record " << i;
        }
    }
    EXPECT_GT(remote, 0u);

    const FirstTouchTwoCost model(CostRatio::finite(4), trace.homeOf,
                                  trace.sampledProc);
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Dcl}) {
        const TraceSimResult a = TraceStudy(trace).run(kind, model);
        const TraceSimResult b = TraceStudy(back).run(kind, model);
        EXPECT_EQ(a.policyName, b.policyName);
        EXPECT_EQ(a.sampledRefs, b.sampledRefs);
        EXPECT_EQ(a.l1Hits, b.l1Hits);
        EXPECT_EQ(a.l2Hits, b.l2Hits);
        EXPECT_EQ(a.l2Misses, b.l2Misses);
        EXPECT_EQ(a.highCostMisses, b.highCostMisses);
        EXPECT_EQ(a.invalidationsReceived, b.invalidationsReceived);
        EXPECT_EQ(a.aggregateCost, b.aggregateCost);
        EXPECT_EQ(a.policyStats.all(), b.policyStats.all());
    }
}

// ---------------------------------------------------------------------------
// Serve-layer replay
// ---------------------------------------------------------------------------

namespace
{

serve::ServeConfig
smallServeConfig()
{
    serve::ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.assoc = 4;
    config.policy = PolicyKind::Acl;
    return config;
}

bool
serveTotalsEqual(const serve::ServeTotals &a,
                 const serve::ServeTotals &b)
{
    return a.gets == b.gets && a.hits == b.hits &&
           a.misses == b.misses && a.stores == b.stores &&
           a.storeHits == b.storeHits &&
           a.evictions == b.evictions &&
           a.trackedKeys == b.trackedKeys &&
           a.missCostNs == b.missCostNs &&
           a.storeCostNs == b.storeCostNs;
}

} // namespace

TEST(ServeReplay, TotalsAreWorkerCountInvariant)
{
    const std::string path = recordedZipfTrace(20'000, 17);
    std::vector<serve::ServeTotals> totals;
    for (unsigned workers : {1u, 4u}) {
        serve::SyntheticBackend backend(
            serve::SyntheticBackendConfig{});
        serve::CacheService service(smallServeConfig(), backend);
        serve::HarnessConfig config;
        config.replayPath = path;
        config.ops = 0; // the whole trace
        config.workers = workers;
        const serve::HarnessResult result =
            runLoad(service, config);
        EXPECT_EQ(result.ops, 20'000u);
        service.checkInvariants();
        totals.push_back(result.totals);
    }
    EXPECT_TRUE(serveTotalsEqual(totals[0], totals[1]))
        << "replay workers=1 vs workers=4 diverged";
    std::remove(path.c_str());
}

TEST(ServeReplay, DelDropsResidency)
{
    // set k, get k (hit), del k, get k (miss) -- through the real
    // sharded service.
    std::vector<ReplayRecord> records(4);
    records[0] = {0, 42, TraceOp::Set, 8, 0};
    records[1] = {1, 42, TraceOp::Get, 8, 0};
    records[2] = {2, 42, TraceOp::Del, 0, 0};
    records[3] = {3, 42, TraceOp::Get, 8, 0};
    const std::string path = writeTrace(records, 8, "servedel");

    serve::SyntheticBackend backend(serve::SyntheticBackendConfig{});
    serve::CacheService service(smallServeConfig(), backend);
    serve::HarnessConfig config;
    config.replayPath = path;
    config.ops = 0;
    const serve::HarnessResult result = runLoad(service, config);
    EXPECT_EQ(result.totals.stores, 1u);
    EXPECT_EQ(result.totals.gets, 2u);
    EXPECT_EQ(result.totals.hits, 1u);
    EXPECT_EQ(result.totals.misses, 1u);
    std::remove(path.c_str());
}

TEST(ServeReplay, OpsFlagTruncatesTheTrace)
{
    const std::string path = recordedZipfTrace(5'000, 23);
    serve::SyntheticBackend backend(serve::SyntheticBackendConfig{});
    serve::CacheService service(smallServeConfig(), backend);
    serve::HarnessConfig config;
    config.replayPath = path;
    config.ops = 777;
    const serve::HarnessResult result = runLoad(service, config);
    EXPECT_EQ(result.ops, 777u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// KeyGenerator satellites: zeta cache + pinned stream
// ---------------------------------------------------------------------------

TEST(KeyGeneratorCache, ZetaTableIsSharedAcrossInstances)
{
    serve::WorkloadMix mix;
    mix.numKeys = 100'000; // distinct from every other test's sizes
    mix.zipfTheta = 0.77;
    const std::size_t before = serve::zetaCacheEntries();
    serve::KeyGenerator a(mix, 1);
    const std::size_t after_first = serve::zetaCacheEntries();
    EXPECT_EQ(after_first, before + 1);
    // Re-constructions (new workers, new runs) reuse the entry.
    serve::KeyGenerator b(mix, 2);
    serve::KeyGenerator c(mix, 3);
    EXPECT_EQ(serve::zetaCacheEntries(), after_first);
    // The streams still differ by seed (the cache is only the
    // normalizer, not the draws).
    bool diverged = false;
    for (int i = 0; i < 64 && !diverged; ++i)
        diverged = a.next().key != b.next().key;
    EXPECT_TRUE(diverged);
}

TEST(KeyGeneratorCache, StreamIsPinned)
{
    // Golden fingerprint of the op stream: catches any accidental
    // reordering of RNG draws or zeta-cache behavior changes.  The
    // zipf path rounds through std::pow, so this pin also documents
    // that the stream is stable across the toolchains CI runs
    // (gcc/clang, x86-64 linux).
    serve::WorkloadMix mix;
    mix.numKeys = 4096;
    mix.writeFraction = 0.25;
    serve::KeyGenerator gen(mix, 42);
    std::uint64_t h = format::kFnvOffset;
    for (int i = 0; i < 10'000; ++i) {
        const serve::Op op = gen.next();
        std::uint8_t bytes[9];
        format::put64(bytes, op.key);
        bytes[8] = op.write ? 1 : 0;
        h = format::fnv1a(h, bytes, sizeof bytes);
    }
    EXPECT_EQ(h, 13518718188439222831u)
        << "pinned zipf stream fingerprint moved";
}
