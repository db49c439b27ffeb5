/**
 * @file
 * ensureWritable and writeOutputFile, declared in CliArgs.h: the
 * checks on every output file a driver writes.
 */

#include "util/CliArgs.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "robust/Errors.h"

namespace csr
{

void
ensureWritable(const std::string &path, const std::string &flag)
{
    if (path.empty())
        return;
    std::FILE *pre = std::fopen(path.c_str(), "rb");
    const bool existed = pre != nullptr;
    if (pre)
        std::fclose(pre);
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f)
        throw ConfigError("--" + flag + ": cannot open '" + path +
                          "' for writing");
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
}

void
writeOutputFile(const std::string &path,
                const std::function<void(std::ostream &)> &write)
{
    std::ofstream os(path);
    if (os)
        write(os);
    os.close(); // flushes
    if (!os)
        throw ConfigError("cannot write '" + path +
                          "': " + std::strerror(errno));
}

} // namespace csr
