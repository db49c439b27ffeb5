#include "robust/CheckpointLog.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "robust/FaultInjector.h"

namespace csr
{

std::string
jsonDoubleBits(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

void
JsonlWriter::open(const std::string &path, bool truncate)
{
    close();
    file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (file_ == nullptr)
        throw ConfigError("cannot open checkpoint '" + path +
                          "' for writing: " + std::strerror(errno));
    path_ = path;
}

void
JsonlWriter::appendLine(const std::string &json)
{
    if (file_ == nullptr)
        return;
    // Fires only for callers with an active FaultInjector::Scope
    // (FaultInjector.EveryProbeSiteFires; a sweep appends outside its
    // cells' scopes); an injected fault here behaves like a real
    // failed disk write.
    CSR_FAULT_POINT(FaultSite::CheckpointIO, "journal append");
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::string line = json + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0)
        throw CheckpointError("write failure on checkpoint '" + path_ +
                              "': " + std::strerror(errno));
}

void
JsonlWriter::close()
{
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::vector<JsonlRecord>
readJsonlFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (errno == ENOENT)
            return {};
        throw CheckpointError("cannot open checkpoint '" + path +
                              "' for reading: " + std::strerror(errno));
    }

    std::vector<JsonlRecord> records;
    JsonlRecord current;
    current.byteOffset = 0;
    current.lineNumber = 1;
    std::uint64_t offset = 0;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        for (std::size_t i = 0; i < n; ++i, ++offset) {
            if (buf[i] == '\n') {
                current.terminated = true;
                records.push_back(std::move(current));
                current = JsonlRecord{};
                current.byteOffset = offset + 1;
                current.lineNumber = records.size() + 1;
            } else {
                current.text += buf[i];
            }
        }
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        throw CheckpointError("read failure on checkpoint '" + path + "'");
    if (!current.text.empty())
        records.push_back(std::move(current)); // unterminated final line
    return records;
}

JsonLineView::JsonLineView(const JsonlRecord &record)
    : lineNumber_(record.lineNumber), byteOffset_(record.byteOffset)
{
    // One pass over the flat object: '{' (key : value ,)* '}'.
    const std::string &s = record.text;
    std::size_t i = 0;
    const auto skipSpace = [&] {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    };
    const auto parseString = [&]() -> std::string {
        // s[i] == '"' on entry, checked by the caller.
        ++i;
        std::string out;
        while (true) {
            if (i >= s.size())
                fail("unterminated string");
            const char c = s[i++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (i >= s.size())
                fail("dangling escape");
            const char esc = s[i++];
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += esc;
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                  if (i + 4 > s.size())
                      fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int k = 0; k < 4; ++k) {
                      const char h = s[i++];
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          fail("bad \\u escape digit");
                  }
                  if (code > 0xFF)
                      fail("non-latin \\u escape unsupported");
                  out += static_cast<char>(code);
                  break;
              }
              default:
                fail(std::string("unknown escape '\\") + esc + "'");
            }
        }
    };

    skipSpace();
    if (i >= s.size() || s[i] != '{')
        fail("expected '{'");
    ++i;
    skipSpace();
    if (i < s.size() && s[i] == '}')
        ++i;
    else {
        while (true) {
            skipSpace();
            if (i >= s.size() || s[i] != '"')
                fail("expected key string");
            const std::string key = parseString();
            skipSpace();
            if (i >= s.size() || s[i] != ':')
                fail("expected ':' after key '" + key + "'");
            ++i;
            skipSpace();
            Field field;
            if (i >= s.size())
                fail("missing value for key '" + key + "'");
            if (s[i] == '"') {
                field.value = parseString();
                field.isString = true;
            } else {
                // Number / true / false / null: the run of chars up
                // to ',' '}' or whitespace.
                const std::size_t start = i;
                while (i < s.size() && s[i] != ',' && s[i] != '}' &&
                       !std::isspace(static_cast<unsigned char>(s[i])))
                    ++i;
                if (i == start)
                    fail("missing value for key '" + key + "'");
                field.value = s.substr(start, i - start);
                if (field.value != "true" && field.value != "false" &&
                    field.value != "null") {
                    char *end = nullptr;
                    std::strtod(field.value.c_str(), &end);
                    if (end != field.value.c_str() + field.value.size())
                        fail("malformed value for key '" + key + "'");
                }
            }
            fields_[key] = std::move(field);
            skipSpace();
            if (i >= s.size())
                fail("unterminated object");
            if (s[i] == ',') {
                ++i;
                continue;
            }
            if (s[i] == '}') {
                ++i;
                break;
            }
            fail("expected ',' or '}'");
        }
    }
    skipSpace();
    if (i != s.size())
        fail("trailing garbage after object");
}

void
JsonLineView::fail(const std::string &what) const
{
    throw CheckpointError(
        "checkpoint line " + std::to_string(lineNumber_) +
        " (byte offset " + std::to_string(byteOffset_) + "): " + what);
}

const JsonLineView::Field &
JsonLineView::field(const std::string &key) const
{
    const auto it = fields_.find(key);
    if (it == fields_.end())
        fail("missing key '" + key + "'");
    return it->second;
}

std::string
JsonLineView::getString(const std::string &key) const
{
    const Field &f = field(key);
    if (!f.isString)
        fail("key '" + key + "' is not a string");
    return f.value;
}

std::uint64_t
JsonLineView::getUInt(const std::string &key) const
{
    const Field &f = field(key);
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(f.value.c_str(), &end, 10);
    if (f.isString || end == f.value.c_str() || *end != '\0' ||
        errno == ERANGE || f.value[0] == '-')
        fail("key '" + key + "' is not an unsigned integer");
    return v;
}

double
JsonLineView::getDouble(const std::string &key) const
{
    const Field &f = field(key);
    char *end = nullptr;
    const double v = std::strtod(f.value.c_str(), &end);
    if (f.isString || end == f.value.c_str() || *end != '\0')
        fail("key '" + key + "' is not a number");
    return v;
}

double
JsonLineView::getDoubleBits(const std::string &key) const
{
    const Field &f = field(key);
    if (!f.isString || f.value.size() != 16)
        fail("key '" + key + "' is not a 16-hex-digit bit pattern");
    std::uint64_t bits = 0;
    for (const char h : f.value) {
        bits <<= 4;
        if (h >= '0' && h <= '9')
            bits |= static_cast<std::uint64_t>(h - '0');
        else if (h >= 'a' && h <= 'f')
            bits |= static_cast<std::uint64_t>(h - 'a' + 10);
        else
            fail("key '" + key + "' is not a 16-hex-digit bit pattern");
    }
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace csr
