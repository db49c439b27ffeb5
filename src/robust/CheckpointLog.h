/**
 * @file
 * Append-only JSONL journal: the persistence substrate of sweep
 * checkpoint/resume.
 *
 * A checkpoint is one JSON object per line.  Appends are atomic at
 * line granularity (single fwrite + flush under a mutex), so a killed
 * process can leave at most one torn line -- and only as the *last*
 * line of the file.  The reader therefore discards an unterminated
 * final line silently (that is the expected kill signature) but
 * treats any other malformed input as CheckpointError, with the line
 * number and byte offset of the failure.
 *
 * The JSON subset handled here is exactly what the writers emit: one
 * flat object per line, string/number/bool values, no nesting.  The
 * parser is bounds-checked end to end; feeding it arbitrary garbage
 * raises CheckpointError, never UB.  Doubles that must round-trip
 * bit-exactly (the resume-equivalence contract) are stored as 16-hex-
 * digit bit patterns via jsonDoubleBits()/getDoubleBits().
 */

#ifndef CSR_ROBUST_CHECKPOINTLOG_H
#define CSR_ROBUST_CHECKPOINTLOG_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "robust/Errors.h"

namespace csr
{

/** Bit-exact double encoding: 16 hex digits of the IEEE-754 image. */
std::string jsonDoubleBits(double v);

/**
 * Thread-safe append-only line writer.  open() truncates or appends;
 * appendLine() writes one complete line and flushes so the journal
 * survives a kill of the process.
 */
class JsonlWriter
{
  public:
    JsonlWriter() = default;
    ~JsonlWriter() { close(); }

    JsonlWriter(const JsonlWriter &) = delete;
    JsonlWriter &operator=(const JsonlWriter &) = delete;

    /** Open @p path; throws ConfigError when it cannot be opened. */
    void open(const std::string &path, bool truncate);

    bool isOpen() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }

    /** Append @p json + '\n' and flush.  No-op when not open. */
    void appendLine(const std::string &json);

    void close();

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::mutex mutex_;
};

/** One line read back from a JSONL file. */
struct JsonlRecord
{
    std::string text;            ///< without the trailing newline
    std::uint64_t byteOffset = 0; ///< of the line's first byte
    std::size_t lineNumber = 0;   ///< 1-based
    bool terminated = false;      ///< line ended with '\n'
};

/**
 * Read every line of @p path.  A missing file yields an empty vector
 * (resume from nothing); an unreadable file raises CheckpointError.
 */
std::vector<JsonlRecord> readJsonlFile(const std::string &path);

/**
 * Bounds-checked view of one flat JSON object line.  The constructor
 * tokenizes the whole line (so a malformed line fails loudly and
 * early); accessors throw CheckpointError naming the line and byte
 * offset on missing keys or type mismatches.
 */
class JsonLineView
{
  public:
    explicit JsonLineView(const JsonlRecord &record);

    bool has(const std::string &key) const
    {
        return fields_.count(key) != 0;
    }

    /** String value (unescaped). */
    std::string getString(const std::string &key) const;

    /** Unsigned integer value. */
    std::uint64_t getUInt(const std::string &key) const;

    /** Plain (lossy) number value. */
    double getDouble(const std::string &key) const;

    /** Bit-exact double stored with jsonDoubleBits(). */
    double getDoubleBits(const std::string &key) const;

  private:
    /** key -> raw value text; strings already unescaped and marked. */
    struct Field
    {
        std::string value;
        bool isString = false;
    };

    [[noreturn]] void fail(const std::string &what) const;
    const Field &field(const std::string &key) const;

    std::map<std::string, Field> fields_;
    std::size_t lineNumber_;
    std::uint64_t byteOffset_;
};

} // namespace csr

#endif // CSR_ROBUST_CHECKPOINTLOG_H
