/**
 * @file
 * Shared command-line flag parsing.
 *
 * csrsim and the bench binaries used to each carry their own ad-hoc
 * "--key value" loop with slightly different spellings and error
 * messages.  CliArgs is the one parser: every binary accepts the same
 * flag grammar (--key value or --key=value pairs, --help/-h),
 * produces the same diagnostics, and reads the common flags (--json,
 * --jobs, --seed, --trace, --metrics, --scale) through the same
 * accessors.
 *
 * Binaries that wrap a second flag parser (bench_micro_policies hands
 * google-benchmark's --benchmark_* flags through) use the lenient()
 * factory instead of pre-splitting argv: flags the binary declares
 * are consumed, and every other token -- bare positionals and foreign
 * --x[=y] flags alike -- is preserved verbatim, in order, in
 * positionals() for delegation.
 */

#ifndef CSR_UTIL_CLIARGS_H
#define CSR_UTIL_CLIARGS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace csr
{

class CliArgs
{
  public:
    /**
     * Parse "--key value" (or "--key=value") pairs from argv[first..).
     * "--help"/"-h" set helpRequested() instead of consuming a value.
     * Keys listed in @p valueless are boolean switches: they consume
     * no value and read back as "1" (so has() and getUInt() both
     * work).  Anything that is not a --flag, and any non-valueless
     * --flag missing its value, raises ConfigError with a uniform
     * diagnostic naming the program.
     */
    CliArgs(int argc, char **argv, int first = 1,
            const std::vector<std::string> &valueless = {});

    /**
     * Lenient grammar for binaries that delegate unrecognized
     * arguments to another parser: positionals and flags may
     * interleave.  A "--key" in @p valued (or a common flag, see
     * below) consumes the next token as its value, a "--key=value"
     * spelling of those keys is split, a "--key" in @p valueless
     * reads back as "1", and every other token -- bare words and
     * foreign "--x[=y]" flags alike -- is preserved verbatim, in
     * order, in positionals().  Nothing is rejected except a declared
     * valued flag missing its value.
     */
    static CliArgs lenient(int argc, char **argv,
                           const std::vector<std::string> &valued,
                           const std::vector<std::string> &valueless = {});

    /** Tokens not consumed as flags, in argv order (lenient mode
     *  only; strict parses reject them instead). */
    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

    bool has(const std::string &key) const
    {
        return values_.count(key) != 0;
    }

    std::string get(const std::string &key,
                    const std::string &fallback) const;

    /** Number; ConfigError when the value does not parse. */
    double getDouble(const std::string &key, double fallback) const;

    /** Unsigned integer (base auto-detected); ConfigError when the
     *  value does not parse. */
    std::uint64_t getUInt(const std::string &key,
                          std::uint64_t fallback) const;

    bool helpRequested() const { return help_; }

    // --- the common flags, one spelling for every binary ------------------

    /** --jobs N, validated to [0,1024] (0 or absent = one per
     *  hardware thread). */
    unsigned jobs() const;

    /** --seed N. */
    std::uint64_t seed(std::uint64_t fallback) const;

    /** --json FILE ("" = unset). */
    std::string jsonPath() const { return get("json", ""); }

    /** --trace FILE: Chrome trace-event output ("" = unset). */
    std::string tracePath() const { return get("trace", ""); }

    /** --metrics FILE: unified metrics JSON ("" = unset). */
    std::string metricsPath() const { return get("metrics", ""); }

    /**
     * ConfigError unless every parsed key appears in @p known (the
     * common flags above are always accepted); the diagnostic lists
     * the valid keys.  Call after construction for strict binaries.
     */
    void requireKnown(const std::vector<std::string> &known) const;

  private:
    CliArgs() = default;

    void parse(int argc, char **argv, int first,
               const std::vector<std::string> &valueless,
               const std::vector<std::string> *valued);

    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_;
    bool help_ = false;
};

/**
 * Fail fast on an unwritable output path: append-open it (touching
 * but not truncating an existing file) and remove it again if the
 * probe itself created it.  A typo'd --metrics directory should abort
 * the run before the work, not after.  "" is a no-op; otherwise
 * ConfigError naming --@p flag.
 */
void ensureWritable(const std::string &path, const std::string &flag);

/**
 * Write the file @p path with @p write, then flush and close it.  A
 * path that cannot be opened or a write that fails (a full disk) is a
 * ConfigError naming the path, never a silently truncated file.
 */
void writeOutputFile(const std::string &path,
                     const std::function<void(std::ostream &)> &write);

} // namespace csr

#endif // CSR_UTIL_CLIARGS_H
