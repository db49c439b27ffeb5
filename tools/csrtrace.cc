/**
 * @file
 * csrtrace -- create, inspect and verify .csrt columnar KV traces.
 *
 * Four subcommands:
 *
 *   csrtrace convert --in FILE|- --out T.csrt
 *                    [--preset twitter|meta|generic]
 *                    [--col-ts N] [--col-key N] [--col-op N]
 *                    [--col-size N] [--col-cost N]
 *                    [--delim C|tab] [--ts-unit ns|us|ms|s]
 *                    [--skip-lines N] [--block-size N]
 *       Streaming CSV/TSV ingestion (constant memory; "-" reads
 *       stdin).  Presets bake in the Twitter cluster-trace and Meta
 *       kvcache column layouts; the generic preset maps columns
 *       explicitly.  String keys are FNV-1a hashed to 64 bits.
 *
 *   csrtrace record --out T.csrt --ops N
 *                   [--workload zipf|uniform|hotspot|scan]
 *                   [--keys N] [--zipf-theta F] [--hot-frac F]
 *                   [--hot-prob F] [--write-frac F] [--seed N]
 *                   [--value-size N] [--cost NS] [--block-size N]
 *       Capture a synthetic KeyGenerator stream (the same generator
 *       the serve harness replays) into a trace: replaying the
 *       capture reproduces the generator-driven run exactly.  For
 *       capturing a *live* csrserve session, see csrserve --record.
 *
 *   csrtrace info --file T.csrt
 *       Header fields, op mix and per-column encoding breakdown.
 *
 *   csrtrace verify --file T.csrt
 *       Full structural walk (every block decoded) plus payload
 *       checksum.  Exit 0 and "ok" on a sound file; exit 3 with the
 *       failing byte offset otherwise.
 *
 * Deterministic output goes to stdout, timing to stderr.  Exit codes
 * follow robust/Errors.h: 0 ok, 2 config, 3 trace format.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "replay/Ingest.h"
#include "replay/TraceReader.h"
#include "replay/TraceWriter.h"
#include "robust/Errors.h"
#include "serve/KeyGenerator.h"
#include "util/CliArgs.h"
#include "util/Table.h"

using namespace csr;
using namespace csr::replay;

namespace
{

std::uint32_t
blockSizeFlag(const CliArgs &args)
{
    const std::uint64_t n =
        args.getUInt("block-size", format::kDefaultBlockSize);
    if (n == 0 || n > (1u << 24))
        throw ConfigError("--block-size must be in [1, 2^24] records");
    return static_cast<std::uint32_t>(n);
}

int
runConvert(const CliArgs &args)
{
    args.requireKnown({"in", "out", "preset", "col-ts", "col-key",
                       "col-op", "col-size", "col-cost", "delim",
                       "ts-unit", "skip-lines", "block-size"});
    const std::string in_path = args.get("in", "");
    const std::string out_path = args.get("out", "");
    if (in_path.empty() || out_path.empty())
        throw ConfigError("convert needs --in FILE|- and --out FILE");
    const IngestConfig config = IngestConfig::fromArgs(args);

    std::ifstream file;
    if (in_path != "-") {
        file.open(in_path);
        if (!file)
            throw ConfigError("cannot open '" + in_path +
                              "' for reading");
    }
    std::istream &in = in_path == "-" ? std::cin : file;

    TraceWriter writer(out_path, blockSizeFlag(args));
    const IngestStats stats = ingestText(in, config, writer);
    writer.finish();

    TextTable table("convert: " + in_path + " -> " + out_path);
    table.setHeader({"metric", "value"});
    table.addRow({"input lines", TextTable::count(stats.lines)});
    table.addRow({"skipped lines", TextTable::count(stats.skipped)});
    table.addRow({"records", TextTable::count(stats.records)});
    table.addRow({"blocks", TextTable::count(writer.blockCount())});
    table.print(std::cout);
    return exitcode::kOk;
}

int
runRecord(const CliArgs &args)
{
    args.requireKnown({"out", "ops", "workload", "keys", "zipf-theta",
                       "hot-frac", "hot-prob", "write-frac",
                       "value-size", "cost", "block-size"});
    const std::string out_path = args.get("out", "");
    if (out_path.empty())
        throw ConfigError("record needs --out FILE");
    const std::uint64_t ops = args.getUInt("ops", 100000);
    if (ops == 0)
        throw ConfigError("--ops must be >= 1");

    const serve::WorkloadMix mix = serve::WorkloadMix::fromArgs(args);
    const std::uint64_t seed = args.seed(1);

    const auto value_size = static_cast<std::uint32_t>(
        args.getUInt("value-size", 8));
    const auto cost = static_cast<std::uint32_t>(
        args.getUInt("cost", 0));

    serve::KeyGenerator generator(mix, seed);
    TraceWriter writer(out_path, blockSizeFlag(args));
    for (std::uint64_t i = 0; i < ops; ++i) {
        const serve::Op op = generator.next();
        ReplayRecord rec;
        rec.tsNs = i * 1000; // synthetic 1us spacing, monotone clock
        rec.key = op.key;
        rec.op = op.write ? TraceOp::Set : TraceOp::Get;
        rec.valueSize = value_size;
        rec.costHint = cost;
        writer.append(rec);
    }
    writer.finish();

    TextTable table("record: " + mix.describe() + " seed=" +
                    std::to_string(seed) + " -> " + out_path);
    table.setHeader({"metric", "value"});
    table.addRow({"records", TextTable::count(writer.recordCount())});
    table.addRow({"blocks", TextTable::count(writer.blockCount())});
    table.print(std::cout);
    return exitcode::kOk;
}

TraceReader
openTrace(const CliArgs &args)
{
    const std::string path = args.get("file", "");
    if (path.empty())
        throw ConfigError("pass --file T.csrt");
    return TraceReader(path);
}

int
runInfo(const CliArgs &args)
{
    args.requireKnown({"file"});
    TraceReader reader = openTrace(args);

    std::uint64_t ops[3] = {0, 0, 0};
    std::uint64_t varint_cols[format::kColumns] = {};
    std::uint64_t min_ts = ~0ull, max_ts = 0;
    ReplayBlock block;
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i) {
            ++ops[block.op[i]];
            if (block.tsNs[i] < min_ts)
                min_ts = block.tsNs[i];
            if (block.tsNs[i] > max_ts)
                max_ts = block.tsNs[i];
        }
        for (unsigned c = 0; c < format::kColumns; ++c)
            if (reader.columnEncoding(b, c) ==
                format::kEncodingVarint)
                ++varint_cols[c];
    }

    TextTable table("info: " + reader.path());
    table.setHeader({"field", "value"});
    table.addRow({"file bytes", TextTable::count(reader.fileBytes())});
    table.addRow({"records", TextTable::count(reader.recordCount())});
    table.addRow({"blocks", TextTable::count(reader.blockCount())});
    table.addRow({"block size", TextTable::count(reader.blockSize())});
    table.addRow({"gets", TextTable::count(ops[0])});
    table.addRow({"sets", TextTable::count(ops[1])});
    table.addRow({"dels", TextTable::count(ops[2])});
    if (reader.recordCount()) {
        table.addRow({"first ts ns", TextTable::count(min_ts)});
        table.addRow({"last ts ns", TextTable::count(max_ts)});
        const double bytes_per_rec =
            static_cast<double>(reader.fileBytes()) /
            static_cast<double>(reader.recordCount());
        table.addRow({"bytes/record",
                      TextTable::num(bytes_per_rec, 2)});
    }
    static const char *kColNames[format::kColumns] = {
        "ts", "key", "op", "value-size", "cost-hint"};
    for (unsigned c = 0; c < format::kColumns; ++c)
        table.addRow({std::string("varint blocks (") + kColNames[c] +
                          ")",
                      TextTable::count(varint_cols[c]) + "/" +
                          TextTable::count(reader.blockCount())});
    table.print(std::cout);
    return exitcode::kOk;
}

int
runVerify(const CliArgs &args)
{
    args.requireKnown({"file"});
    TraceReader reader = openTrace(args);
    reader.verifyChecksum();
    // Checksum catches bit rot; a full decode additionally exercises
    // every structural invariant (column bounds, op values, varint
    // termination).
    ReplayBlock block;
    std::uint64_t records = 0;
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        records += block.size();
    }
    std::cout << "ok: " << reader.path() << " (" << records
              << " records, " << reader.blockCount() << " blocks, "
              << reader.fileBytes() << " bytes)\n";
    return exitcode::kOk;
}

void
usage()
{
    std::cerr
        << "usage: csrtrace convert|record|info|verify [--key value ...]\n"
           "  convert: --in FILE|- --out T.csrt\n"
           "           --preset twitter|meta|generic\n"
           "           --col-ts N --col-key N --col-op N --col-size N\n"
           "           --col-cost N --delim C|tab --ts-unit ns|us|ms|s\n"
           "           --skip-lines N --block-size N\n"
           "  record:  --out T.csrt --ops N\n"
           "           --workload zipf|uniform|hotspot|scan --keys N\n"
           "           --zipf-theta F --hot-frac F --hot-prob F\n"
           "           --write-frac F --seed N --value-size N\n"
           "           --cost NS --block-size N\n"
           "  info:    --file T.csrt\n"
           "  verify:  --file T.csrt\n"
           "  exit codes: 0 ok, 2 config, 3 trace format\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return exitcode::kGeneric;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
        usage();
        return exitcode::kOk;
    }
    try {
        const CliArgs args(argc, argv, /*first=*/2);
        if (args.helpRequested()) {
            usage();
            return exitcode::kOk;
        }
        if (mode == "convert")
            return runConvert(args);
        if (mode == "record")
            return runRecord(args);
        if (mode == "info")
            return runInfo(args);
        if (mode == "verify")
            return runVerify(args);
    } catch (const Error &e) {
        std::cerr << "csrtrace: " << e.kind() << ": " << e.what()
                  << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "csrtrace: " << e.what() << "\n";
        return exitcode::kGeneric;
    }
    usage();
    return exitcode::kGeneric;
}
