/**
 * @file
 * .csrt reader: mmap-backed zero-copy by default, with a plain
 * buffered-FILE mode kept as the portable reference (tests assert the
 * two decode byte-identically).
 *
 * The footer block index is loaded at construction, so seeking is
 * O(1): record N lives in block N / blockSize at the indexed offset.
 * Every header field and index entry is validated up front and every
 * decode is bounds-checked -- a truncated or corrupt file throws
 * TraceFormatError carrying the byte offset, never reads out of
 * bounds.
 *
 * A reader is cheap to construct and single-threaded by design: the
 * replay engine opens one, and its decode thread alone reads from it,
 * handing decoded records to the replay jobs (replay/Replayer.h).
 */

#ifndef CSR_REPLAY_TRACEREADER_H
#define CSR_REPLAY_TRACEREADER_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "replay/Format.h"

namespace csr::replay
{

enum class ReadMode
{
    Mmap,
    Buffered,
};

/** "mmap" / "buffered"; @throws ConfigError listing the names. */
ReadMode requireReadMode(const std::string &name);

const char *readModeName(ReadMode mode);

/** Which columns readBlock stores.  Every projection frames and
 *  validates all five columns and throws the same errors. */
enum class Projection
{
    Full,
    /** key, op and cost hint only: tsNs and valueSize stay empty. */
    Replay,
};

/** One decoded block, SoA (timestamps are absolute again). */
struct ReplayBlock
{
    std::vector<std::uint64_t> tsNs;
    std::vector<std::uint64_t> key;
    std::vector<std::uint8_t> op;
    std::vector<std::uint32_t> valueSize;
    std::vector<std::uint32_t> costHint;

    std::size_t size() const { return key.size(); }

    void
    clear()
    {
        tsNs.clear();
        key.clear();
        op.clear();
        valueSize.clear();
        costHint.clear();
    }

    /** Row view of record @p i of a Projection::Full block (tests
     *  and the info tool). */
    ReplayRecord record(std::size_t i) const;
};

class TraceReader
{
  public:
    /** Open and validate @p path.  @throws ConfigError when the file
     *  cannot be opened, TraceFormatError when it is not a well-formed
     *  .csrt. */
    explicit TraceReader(const std::string &path,
                         ReadMode mode = ReadMode::Mmap);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    std::uint64_t recordCount() const { return recordCount_; }
    std::uint64_t blockCount() const { return index_.size(); }
    /** Record capacity of a full block. */
    std::uint32_t blockSize() const { return blockSize_; }
    std::uint64_t fileBytes() const { return fileBytes_; }
    ReadMode mode() const { return mode_; }
    const std::string &path() const { return path_; }

    /** Index of the block holding record @p n (O(1) seek). */
    std::uint64_t
    blockOfRecord(std::uint64_t n) const
    {
        return n / blockSize_;
    }

    /** Global index of block @p b's first record. */
    std::uint64_t
    firstRecordOf(std::uint64_t b) const
    {
        return b * blockSize_;
    }

    std::uint32_t blockRecords(std::uint64_t block) const;

    /** Decode block @p block into @p out, replacing its contents,
     *  storing the columns @p projection names.  @throws
     *  TraceFormatError on any malformed content, in any column,
     *  whatever the projection. */
    void readBlock(std::uint64_t block, ReplayBlock &out,
                   Projection projection = Projection::Full);

    /** The encoding byte of one column of one block (the info tool
     *  and the fallback tests read this). */
    format::Encoding columnEncoding(std::uint64_t block, unsigned column);

    /** Recompute the payload checksum over every block and compare
     *  with the header's.  @throws TraceFormatError on mismatch. */
    void verifyChecksum();

    /** Decode the whole file into rows (tests, info, small files). */
    std::vector<ReplayRecord> readAll();

  private:
    struct IndexEntry
    {
        std::uint64_t offset = 0;
        std::uint32_t records = 0;
    };

    /** Bytes [begin, begin+n) of the file: a pointer into the map, or
     *  into buffer_ after a read.  Validated against fileBytes_. */
    const std::uint8_t *bytes(std::uint64_t begin, std::uint64_t n);

    std::uint64_t blockBytes(std::uint64_t block) const;
    [[noreturn]] void fail(const std::string &what,
                           std::uint64_t offset) const;

    std::string path_;
    ReadMode mode_;
    int fd_ = -1;                        ///< mmap mode
    const std::uint8_t *map_ = nullptr;  ///< mmap mode
    std::FILE *file_ = nullptr;          ///< buffered mode
    std::vector<std::uint8_t> buffer_;   ///< buffered mode scratch

    std::uint64_t fileBytes_ = 0;
    std::uint32_t blockSize_ = 0;
    std::uint64_t recordCount_ = 0;
    std::uint64_t indexOffset_ = 0;
    std::uint64_t checksum_ = 0;
    std::vector<IndexEntry> index_;
};

} // namespace csr::replay

#endif // CSR_REPLAY_TRACEREADER_H
