#include "replay/TraceReader.h"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "robust/Errors.h"

namespace csr::replay
{

using namespace format;

namespace
{

/**
 * Decode one column's payload into @p out (a u64/u32/u8 vector).
 * @p col_offset is the file offset of the payload, for error text.
 */
template <typename T>
void
decodeColumn(Encoding encoding, const std::uint8_t *payload,
             std::size_t payload_bytes, std::size_t records,
             std::vector<T> &out, std::uint64_t col_offset,
             const std::string &path)
{
    out.resize(records);
    if (encoding == kEncodingRaw) {
        if (payload_bytes != records * sizeof(T))
            throw TraceFormatError(
                "raw column of '" + path + "' holds " +
                    std::to_string(payload_bytes) + " bytes, want " +
                    std::to_string(records * sizeof(T)),
                col_offset);
        for (std::size_t i = 0; i < records; ++i) {
            if constexpr (sizeof(T) == 8)
                out[i] = static_cast<T>(get64(payload + i * 8));
            else if constexpr (sizeof(T) == 4)
                out[i] = static_cast<T>(get32(payload + i * 4));
            else
                out[i] = static_cast<T>(payload[i]);
        }
        return;
    }
    // Varint: consecutive zig-zag deltas.
    const std::uint8_t *p = payload;
    const std::uint8_t *end = payload + payload_bytes;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < records; ++i) {
        std::uint64_t zz = 0;
        if (!getVarint(p, end, zz))
            throw TraceFormatError(
                "truncated varint column in '" + path + "'",
                col_offset +
                    static_cast<std::uint64_t>(p - payload));
        prev += static_cast<std::uint64_t>(unzigzag(zz));
        out[i] = static_cast<T>(prev);
    }
    if (p != end)
        throw TraceFormatError(
            "varint column of '" + path + "' has " +
                std::to_string(end - p) + " trailing bytes",
            col_offset + static_cast<std::uint64_t>(p - payload));
}

} // namespace

ReadMode
requireReadMode(const std::string &name)
{
    if (name == "mmap")
        return ReadMode::Mmap;
    if (name == "buffered")
        return ReadMode::Buffered;
    throw ConfigError("unknown read mode '" + name +
                      "' (valid: mmap buffered)");
}

const char *
readModeName(ReadMode mode)
{
    return mode == ReadMode::Mmap ? "mmap" : "buffered";
}

ReplayRecord
ReplayBlock::record(std::size_t i) const
{
    ReplayRecord r;
    r.tsNs = tsNs[i];
    r.key = key[i];
    r.op = static_cast<TraceOp>(op[i]);
    r.valueSize = valueSize[i];
    r.costHint = costHint[i];
    return r;
}

void
TraceReader::fail(const std::string &what, std::uint64_t offset) const
{
    throw TraceFormatError("'" + path_ + "': " + what, offset);
}

TraceReader::TraceReader(const std::string &path, ReadMode mode)
    : path_(path), mode_(mode)
{
    if (mode_ == ReadMode::Mmap) {
        fd_ = ::open(path.c_str(), O_RDONLY);
        if (fd_ < 0)
            throw ConfigError("cannot open .csrt trace '" + path +
                              "' for reading");
        struct stat st = {};
        if (::fstat(fd_, &st) != 0) {
            ::close(fd_);
            fd_ = -1;
            throw ConfigError("cannot stat .csrt trace '" + path + "'");
        }
        fileBytes_ = static_cast<std::uint64_t>(st.st_size);
        if (fileBytes_ >= kHeaderBytes) {
            void *m = ::mmap(nullptr, fileBytes_, PROT_READ,
                             MAP_PRIVATE, fd_, 0);
            if (m == MAP_FAILED) {
                ::close(fd_);
                fd_ = -1;
                throw ConfigError("cannot mmap .csrt trace '" + path +
                                  "'");
            }
            map_ = static_cast<const std::uint8_t *>(m);
        }
    } else {
        file_ = std::fopen(path.c_str(), "rb");
        if (file_ == nullptr)
            throw ConfigError("cannot open .csrt trace '" + path +
                              "' for reading");
        std::fseek(file_, 0, SEEK_END);
        const long size = std::ftell(file_);
        std::fseek(file_, 0, SEEK_SET);
        fileBytes_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
    }

    if (fileBytes_ < kHeaderBytes)
        fail("file holds " + std::to_string(fileBytes_) +
                 " bytes, smaller than the " +
                 std::to_string(kHeaderBytes) + "-byte header",
             0);

    const std::uint8_t *header = bytes(0, kHeaderBytes);
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        fail("bad magic (not a columnar .csrt trace)", 0);
    const std::uint32_t version = get32(header + 8);
    if (version != kVersion)
        fail("unsupported version " + std::to_string(version) +
                 " (this build reads version " +
                 std::to_string(kVersion) + ")",
             8);
    if (get32(header + 12) != kHeaderBytes)
        fail("unexpected header size " +
                 std::to_string(get32(header + 12)),
             12);
    blockSize_ = get32(header + 16);
    if (blockSize_ == 0)
        fail("zero records-per-block", 16);
    recordCount_ = get64(header + 24);
    const std::uint64_t block_count = get64(header + 32);
    indexOffset_ = get64(header + 40);
    checksum_ = get64(header + 48);

    const std::uint64_t expect_blocks =
        (recordCount_ + blockSize_ - 1) / blockSize_;
    if (block_count != expect_blocks)
        fail(std::to_string(recordCount_) + " records in " +
                 std::to_string(block_count) + " blocks of " +
                 std::to_string(blockSize_) + " do not add up",
             32);
    if (indexOffset_ < kHeaderBytes || indexOffset_ > fileBytes_)
        fail("index offset " + std::to_string(indexOffset_) +
                 " outside the file",
             40);
    // Divide rather than multiply: a crafted block count must not
    // wrap the product around to the real index size.
    const std::uint64_t index_bytes = fileBytes_ - indexOffset_;
    if (index_bytes % kIndexEntryBytes != 0 ||
        index_bytes / kIndexEntryBytes != block_count)
        fail("index holds " + std::to_string(index_bytes) +
                 " bytes, not " + std::to_string(kIndexEntryBytes) +
                 " for each of " + std::to_string(block_count) +
                 " blocks",
             indexOffset_);

    index_.resize(block_count);
    std::uint64_t seen_records = 0;
    std::uint64_t prev_end = kHeaderBytes;
    const std::uint8_t *index_data =
        block_count ? bytes(indexOffset_, index_bytes) : nullptr;
    for (std::uint64_t b = 0; b < block_count; ++b) {
        const std::uint8_t *entry =
            index_data + b * kIndexEntryBytes;
        index_[b].offset = get64(entry);
        index_[b].records = get32(entry + 8);
        if (index_[b].offset != prev_end)
            fail("block " + std::to_string(b) + " indexed at offset " +
                     std::to_string(index_[b].offset) +
                     ", expected " + std::to_string(prev_end),
                 indexOffset_ + b * kIndexEntryBytes);
        if (index_[b].records == 0 || index_[b].records > blockSize_)
            fail("block " + std::to_string(b) + " claims " +
                     std::to_string(index_[b].records) + " records",
                 indexOffset_ + b * kIndexEntryBytes);
        if (b + 1 < block_count && index_[b].records != blockSize_)
            fail("non-final block " + std::to_string(b) +
                     " is not full (O(1) seek needs fixed-size "
                     "blocks)",
                 indexOffset_ + b * kIndexEntryBytes);
        // The next entry (or the index itself) bounds this block; a
        // detailed size check happens at decode time.
        prev_end = b + 1 < block_count
                       ? get64(index_data + (b + 1) * kIndexEntryBytes)
                       : indexOffset_;
        if (prev_end <= index_[b].offset || prev_end > indexOffset_)
            fail("block " + std::to_string(b) + " has no room before "
                     "offset " + std::to_string(prev_end),
                 indexOffset_ + b * kIndexEntryBytes);
        // Every record spends at least its raw op byte, so a valid
        // recordCount() is bounded by the file size and callers may
        // reserve() by it.
        if (index_[b].records > prev_end - index_[b].offset)
            fail("block " + std::to_string(b) + " claims " +
                     std::to_string(index_[b].records) +
                     " records in " +
                     std::to_string(prev_end - index_[b].offset) +
                     " bytes",
                 indexOffset_ + b * kIndexEntryBytes);
        seen_records += index_[b].records;
    }
    if (seen_records != recordCount_)
        fail("index records sum to " + std::to_string(seen_records) +
                 ", header says " + std::to_string(recordCount_),
             indexOffset_);
    if (block_count == 0 && indexOffset_ != kHeaderBytes)
        fail("empty trace carries block payload", kHeaderBytes);
}

TraceReader::~TraceReader()
{
    if (map_ != nullptr)
        ::munmap(const_cast<std::uint8_t *>(map_), fileBytes_);
    if (fd_ >= 0)
        ::close(fd_);
    if (file_ != nullptr)
        std::fclose(file_);
}

const std::uint8_t *
TraceReader::bytes(std::uint64_t begin, std::uint64_t n)
{
    if (begin > fileBytes_ || n > fileBytes_ - begin)
        fail("read of " + std::to_string(n) +
                 " bytes runs past the end of the file",
             begin);
    if (mode_ == ReadMode::Mmap)
        return map_ + begin;
    buffer_.resize(n);
    if (std::fseek(file_, static_cast<long>(begin), SEEK_SET) != 0 ||
        std::fread(buffer_.data(), 1, n, file_) != n)
        fail("buffered read failed", begin);
    return buffer_.data();
}

std::uint64_t
TraceReader::blockBytes(std::uint64_t block) const
{
    const std::uint64_t end = block + 1 < index_.size()
                                  ? index_[block + 1].offset
                                  : indexOffset_;
    return end - index_[block].offset;
}

std::uint32_t
TraceReader::blockRecords(std::uint64_t block) const
{
    if (block >= index_.size())
        throw TraceFormatError("'" + path_ + "': block " +
                                   std::to_string(block) +
                                   " out of range",
                               indexOffset_);
    return index_[block].records;
}

void
TraceReader::readBlock(std::uint64_t block, ReplayBlock &out)
{
    out.clear();
    const std::uint32_t records = blockRecords(block);
    const std::uint64_t offset = index_[block].offset;
    const std::uint64_t nbytes = blockBytes(block);
    if (nbytes < kBlockHeaderBytes)
        fail("block " + std::to_string(block) + " smaller than its "
             "header", offset);
    const std::uint8_t *data = bytes(offset, nbytes);

    const std::uint64_t base_ts = get64(data);
    if (get32(data + 8) != records)
        fail("block " + std::to_string(block) +
                 " disagrees with the index about its record count",
             offset + 8);

    // Walk the five columns; each is bounds-checked against the
    // block's byte range before decode.
    std::uint64_t cursor = kBlockHeaderBytes;
    const std::uint8_t *payloads[kColumns];
    Encoding encodings[kColumns];
    std::size_t sizes[kColumns];
    for (unsigned c = 0; c < kColumns; ++c) {
        if (cursor + kColumnHeaderBytes > nbytes)
            fail("block " + std::to_string(block) + " truncated in "
                 "column " + std::to_string(c) + "'s header",
                 offset + cursor);
        const std::uint8_t enc = data[cursor];
        if (enc != kEncodingRaw && enc != kEncodingVarint)
            fail("unknown column encoding " + std::to_string(enc),
                 offset + cursor);
        const std::uint32_t len = get32(data + cursor + 1);
        cursor += kColumnHeaderBytes;
        if (len > nbytes - cursor)
            fail("column " + std::to_string(c) + " claims " +
                     std::to_string(len) + " payload bytes past the "
                     "block end",
                 offset + cursor);
        encodings[c] = static_cast<Encoding>(enc);
        payloads[c] = data + cursor;
        sizes[c] = len;
        cursor += len;
    }
    if (cursor != nbytes)
        fail("block " + std::to_string(block) + " has " +
                 std::to_string(nbytes - cursor) + " trailing bytes",
             offset + cursor);

    const auto col_off = [&](unsigned c) {
        return offset +
               static_cast<std::uint64_t>(payloads[c] - data);
    };
    std::vector<std::uint64_t> ts_delta;
    decodeColumn(encodings[kColTs], payloads[kColTs], sizes[kColTs],
                 records, ts_delta, col_off(kColTs), path_);
    decodeColumn(encodings[kColKey], payloads[kColKey],
                 sizes[kColKey], records, out.key, col_off(kColKey),
                 path_);
    decodeColumn(encodings[kColOp], payloads[kColOp], sizes[kColOp],
                 records, out.op, col_off(kColOp), path_);
    decodeColumn(encodings[kColValueSize], payloads[kColValueSize],
                 sizes[kColValueSize], records, out.valueSize,
                 col_off(kColValueSize), path_);
    decodeColumn(encodings[kColCostHint], payloads[kColCostHint],
                 sizes[kColCostHint], records, out.costHint,
                 col_off(kColCostHint), path_);

    for (std::size_t i = 0; i < records; ++i) {
        if (out.op[i] > static_cast<std::uint8_t>(TraceOp::Del))
            fail("record " +
                     std::to_string(firstRecordOf(block) + i) +
                     " has op byte " + std::to_string(out.op[i]),
                 col_off(kColOp));
    }

    // Rehydrate absolute timestamps from the per-record deltas.
    out.tsNs.resize(records);
    std::uint64_t ts = base_ts;
    for (std::size_t i = 0; i < records; ++i) {
        ts += ts_delta[i];
        out.tsNs[i] = ts;
    }
}

format::Encoding
TraceReader::columnEncoding(std::uint64_t block, unsigned column)
{
    if (column >= kColumns)
        throw ConfigError("column index " + std::to_string(column) +
                          " out of range (0.." +
                          std::to_string(kColumns - 1) + ")");
    const std::uint64_t offset = index_.at(block).offset;
    const std::uint64_t nbytes = blockBytes(block);
    const std::uint8_t *data = bytes(offset, nbytes);
    std::uint64_t cursor = kBlockHeaderBytes;
    for (unsigned c = 0; c < column; ++c) {
        if (cursor + kColumnHeaderBytes > nbytes)
            fail("truncated column headers", offset + cursor);
        cursor += kColumnHeaderBytes + get32(data + cursor + 1);
    }
    if (cursor + kColumnHeaderBytes > nbytes)
        fail("truncated column headers", offset + cursor);
    return static_cast<Encoding>(data[cursor]);
}

void
TraceReader::verifyChecksum()
{
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t b = 0; b < index_.size(); ++b) {
        const std::uint64_t nbytes = blockBytes(b);
        const std::uint8_t *data = bytes(index_[b].offset, nbytes);
        h = fnv1a(h, data, nbytes);
    }
    if (h != checksum_)
        fail("payload checksum mismatch (header " +
                 std::to_string(checksum_) + ", computed " +
                 std::to_string(h) + ")",
             48);
}

std::vector<ReplayRecord>
TraceReader::readAll()
{
    std::vector<ReplayRecord> rows;
    rows.reserve(recordCount_);
    ReplayBlock block;
    for (std::uint64_t b = 0; b < blockCount(); ++b) {
        readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i)
            rows.push_back(block.record(i));
    }
    return rows;
}

} // namespace csr::replay
