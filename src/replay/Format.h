/**
 * @file
 * The `csrt` columnar trace format (DESIGN.md section 3.9).
 *
 * A .csrt file stores a production-style KV access trace --
 * (timestamp, key, op, value size, cost hint) records -- as
 * fixed-size blocks of structure-of-arrays columns:
 *
 *   header (64 B) | block 0 | block 1 | ... | block index
 *
 * Each block holds up to blockSize records and is decodable on its
 * own: it carries the absolute timestamp of its first record, and
 * every column is either raw little-endian fixed width or zig-zag
 * delta varint -- whichever encoded smaller for that block (skewed
 * key streams and near-monotone timestamps compress well; the raw
 * fallback caps adversarial blocks at fixed-width size).  The footer
 * index maps block number to byte offset, so seeking to record N is
 * O(1): block N / blockSize, offset from the index.
 *
 * Everything here is byte-layout: shared constants, the record
 * struct, and the varint/zig-zag/checksum primitives the writer and
 * reader agree on.  All multi-byte fields are little-endian.
 */

#ifndef CSR_REPLAY_FORMAT_H
#define CSR_REPLAY_FORMAT_H

#include <cstdint>
#include <cstring>
#include <string>

namespace csr::replay
{

/** What one trace record did.  The on-disk op column stores these
 *  byte values; anything else is a format error. */
enum class TraceOp : std::uint8_t
{
    Get = 0,
    Set = 1,
    Del = 2,
};

const char *traceOpName(TraceOp op);

/** One decoded trace record. */
struct ReplayRecord
{
    std::uint64_t tsNs = 0;     ///< absolute timestamp, nanoseconds
    std::uint64_t key = 0;      ///< 64-bit key (hash of string keys)
    TraceOp op = TraceOp::Get;
    std::uint32_t valueSize = 0; ///< object size in bytes (0 = unknown)
    std::uint32_t costHint = 0;  ///< per-record miss cost in ns (0 = none)

    bool operator==(const ReplayRecord &) const = default;
};

namespace format
{

/** File magic; the format version follows it at byte 8. */
inline constexpr char kMagic[8] = {'c', 's', 'r', 't',
                                   'c', 'o', 'l', '1'};
inline constexpr std::uint32_t kVersion = 1;
inline constexpr std::uint32_t kHeaderBytes = 64;
/** Records per block unless the writer is told otherwise. */
inline constexpr std::uint32_t kDefaultBlockSize = 4096;
/** Bytes per block-index entry (u64 offset, u32 records, u32 pad). */
inline constexpr std::uint32_t kIndexEntryBytes = 16;
/** Per-block prelude: u64 base timestamp + u32 record count. */
inline constexpr std::uint32_t kBlockHeaderBytes = 12;
/** Per-column prelude: u8 encoding + u32 payload bytes. */
inline constexpr std::uint32_t kColumnHeaderBytes = 5;
inline constexpr unsigned kColumns = 5;

/** Column numbers, in on-disk order. */
enum Column : unsigned
{
    kColTs = 0,        ///< u64 timestamp deltas (record i vs i-1)
    kColKey = 1,       ///< u64 keys
    kColOp = 2,        ///< u8 ops (always raw)
    kColValueSize = 3, ///< u32 value sizes
    kColCostHint = 4,  ///< u32 cost hints
};

/** Column encodings (the per-column header byte). */
enum Encoding : std::uint8_t
{
    kEncodingRaw = 0,    ///< fixed-width little-endian values
    kEncodingVarint = 1, ///< zig-zag varint of consecutive deltas
};

// --- little-endian scalar access ------------------------------------------

inline void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void
put32(std::uint8_t *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void
put64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint32_t
get32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

inline std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

// --- zig-zag + varint -------------------------------------------------------

/** Map a signed delta onto an unsigned varint-friendly value:
 *  0,-1,1,-2,... -> 0,1,2,3,...  Small magnitudes of either sign
 *  stay small. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** LEB128-style varint; at most 10 bytes for a u64. */
inline constexpr unsigned kMaxVarintBytes = 10;

/** Append @p v to @p out; returns bytes written. */
inline unsigned
putVarint(std::uint8_t *out, std::uint64_t v)
{
    unsigned n = 0;
    while (v >= 0x80) {
        out[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
}

/**
 * Decode one varint from [@p p, @p end); advances @p p.  Returns
 * false (leaving @p p untouched) on truncation or a varint longer
 * than 10 bytes -- the caller turns that into a TraceFormatError
 * with a real byte offset.
 */
inline bool
getVarint(const std::uint8_t *&p, const std::uint8_t *end,
          std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    const std::uint8_t *q = p;
    while (q < end && shift < 64) {
        const std::uint8_t byte = *q++;
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
            p = q;
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

// --- payload checksum -------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

/** FNV-1a64, streamable: fold @p n bytes into @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a64 of a string (used to hash non-numeric CSV keys). */
inline std::uint64_t
fnv1aString(const std::string &s)
{
    return fnv1a(kFnvOffset,
                 reinterpret_cast<const std::uint8_t *>(s.data()),
                 s.size());
}

} // namespace format

} // namespace csr::replay

#endif // CSR_REPLAY_FORMAT_H
