/**
 * @file
 * ensureWritable, declared in CliArgs.h.  It has its own object file
 * so that a static link pulls it only into the drivers that call it.
 */

#include "util/CliArgs.h"

#include <cstdio>

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

} // namespace csr
