#include "util/CliArgs.h"

#include <algorithm>
#include <cstdlib>

#include "robust/Errors.h"

namespace csr
{

namespace
{

/** The flags every binary accepts (one spelling, see header). */
const std::vector<std::string> &
commonFlags()
{
    static const std::vector<std::string> common = {
        "json", "jobs", "seed", "trace", "metrics",
    };
    return common;
}

bool
contains(const std::vector<std::string> &list, const std::string &key)
{
    return std::find(list.begin(), list.end(), key) != list.end();
}

} // namespace

CliArgs::CliArgs(int argc, char **argv, int first,
                 const std::vector<std::string> &valueless)
{
    parse(argc, argv, first, valueless, /*valued=*/nullptr);
}

CliArgs
CliArgs::lenient(int argc, char **argv,
                 const std::vector<std::string> &valued,
                 const std::vector<std::string> &valueless)
{
    CliArgs args;
    args.parse(argc, argv, /*first=*/1, valueless, &valued);
    return args;
}

void
CliArgs::parse(int argc, char **argv, int first,
               const std::vector<std::string> &valueless,
               const std::vector<std::string> *valued)
{
    program_ = argc > 0 ? argv[0] : "csr";
    // Keep just the binary name for diagnostics.
    const std::size_t slash = program_.find_last_of('/');
    if (slash != std::string::npos)
        program_ = program_.substr(slash + 1);

    const bool lenient = valued != nullptr;
    for (int i = first; i < argc; ++i) {
        const std::string token = argv[i];
        if (token == "--help" || token == "-h") {
            help_ = true;
            continue;
        }
        if (token.rfind("--", 0) != 0) {
            if (lenient) {
                positionals_.push_back(token);
                continue;
            }
            throw ConfigError(program_ + ": unexpected argument '" +
                              token + "' (flags are --key value)");
        }
        std::string key = token.substr(2);
        std::string inline_value;
        const std::size_t eq = key.find('=');
        const bool has_inline = eq != std::string::npos;
        if (has_inline) {
            inline_value = key.substr(eq + 1);
            key = key.substr(0, eq);
        }
        // In lenient mode only declared keys are consumed; everything
        // else is a foreign flag kept verbatim for delegation.
        if (lenient && !contains(*valued, key) &&
            !contains(valueless, key) &&
            !contains(commonFlags(), key)) {
            positionals_.push_back(token);
            continue;
        }
        if (has_inline) {
            values_[key] = inline_value;
            continue;
        }
        if (contains(valueless, key)) {
            values_[key] = '1';
            continue;
        }
        if (i + 1 >= argc)
            throw ConfigError(program_ + ": missing value for --" + key);
        values_[key] = argv[++i];
    }
}

std::string
CliArgs::get(const std::string &key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        throw ConfigError(program_ + ": --" + key + " '" + it->second +
                          "' is not a number");
    return parsed;
}

std::uint64_t
CliArgs::getUInt(const std::string &key, std::uint64_t fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const std::uint64_t parsed =
        std::strtoull(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        throw ConfigError(program_ + ": --" + key + " '" + it->second +
                          "' is not an unsigned integer");
    return parsed;
}

unsigned
CliArgs::jobs() const
{
    const std::string value = get("jobs", "");
    if (value.empty())
        return 0;
    char *end = nullptr;
    const long jobs = std::strtol(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || jobs < 0 || jobs > 1024)
        throw ConfigError(program_ + ": --jobs '" + value +
                          "' must be an integer in [0,1024] "
                          "(0 = one per hardware thread)");
    return static_cast<unsigned>(jobs);
}

std::uint64_t
CliArgs::seed(std::uint64_t fallback) const
{
    return getUInt("seed", fallback);
}

void
CliArgs::requireKnown(const std::vector<std::string> &known) const
{
    for (const auto &[key, value] : values_) {
        (void)value;
        if (contains(known, key) || contains(commonFlags(), key))
            continue;
        std::string valid;
        for (const std::string &k : known)
            valid += (valid.empty() ? "--" : " --") + k;
        for (const std::string &k : commonFlags())
            valid += (valid.empty() ? "--" : " --") + k;
        throw ConfigError(program_ + ": unknown flag --" + key +
                          " (valid: " + valid + ")");
    }
}

} // namespace csr
