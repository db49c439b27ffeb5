/**
 * @file
 * The sweep journal of `csrsim sweep --checkpoint/--resume`: this
 * module owns the whole format -- writer, line reader and loader.
 * One record per line, space-separated tokens in a fixed order
 * (format version 2):
 *
 *   csrsweep 2 <fingerprint> <cells>
 *   cell <index> <hash> <sampledRefs> <l2Hits> <l2Misses>
 *        <aggregateCost> <lruCost>
 *   failure <index> <hash> <attempts> <kind> <message...>
 *
 * Integers are decimal; the costs are std::to_chars' shortest
 * round-trip form, exact to the bit, and the savings are recomputed
 * from them as the runner computes them, so a restored cell prints
 * what the original run printed.  A failure's kind and message are
 * for people (control bytes become spaces); the loader reads only
 * its index, hash and attempts, since resume re-runs failed cells.
 * The fingerprint hashes every cell's hash in grid order, and each
 * record carries its cell's hash, so a journal of another grid is a
 * CheckpointError, not silent garbage.
 */

#ifndef CSR_SIM_SWEEPCHECKPOINT_H
#define CSR_SIM_SWEEPCHECKPOINT_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/SweepRunner.h"

namespace csr
{

/** Stable hash of a whole expanded grid (order-sensitive). */
std::uint64_t gridFingerprint(const std::vector<SweepCell> &cells);

/** Encode the journal's first line. */
std::string checkpointHeaderLine(std::uint64_t fingerprint,
                                 std::size_t cell_count);

/** Encode one completed cell. */
std::string checkpointCellLine(const SweepCellResult &result);

/** Encode one failed cell. */
std::string checkpointFailureLine(const CellFailure &failure);

/**
 * Thread-safe append-only journal file.  Each append is one write of
 * a whole line plus fflush under a mutex, so a killed sweep leaves at
 * most one torn line, and only as the last line of the file.
 */
class SweepJournal
{
  public:
    SweepJournal() = default;
    ~SweepJournal()
    {
        if (file_ != nullptr)
            std::fclose(file_);
    }

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Open @p path, truncating it or appending to it; ConfigError
     *  when it cannot be opened.  Call once. */
    void open(const std::string &path, bool truncate);

    /** Append @p line and a newline, then flush; a failed write is
     *  a CheckpointError.  The FaultSite::CheckpointIO probe fires
     *  first, so an injected failure writes nothing.  No-op when not
     *  open. */
    void append(const std::string &line);

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::mutex mutex_;
};

/** Everything restored from a checkpoint. */
struct SweepCheckpointState
{
    /** A valid header line was found; appending to the file is safe.
     *  False for a missing/empty file (start a fresh journal). */
    bool headerValid = false;

    /** Cells with a journaled result; final, skipped on resume.  A
     *  later cell line supersedes an earlier failure line for the
     *  same index. */
    std::map<std::size_t, SweepCellResult> results;
};

/**
 * Read and validate @p path against the expanded @p cells.  A missing
 * or empty file (including one holding only a torn line -- the
 * signature of a process killed mid-append) restores nothing.  An
 * unterminated *final* line is discarded silently; any other
 * malformed line, a version-1 (JSON) journal, or a journal of another
 * grid raises CheckpointError naming the path, the 1-based line
 * number and the byte offset.
 */
SweepCheckpointState loadSweepCheckpoint(
    const std::string &path, const std::vector<SweepCell> &cells);

} // namespace csr

#endif // CSR_SIM_SWEEPCHECKPOINT_H
