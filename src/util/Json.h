/**
 * @file
 * The one JSON string escaper, shared by every JSON writer (metrics,
 * Chrome traces, sweep and serve results).
 */

#ifndef CSR_UTIL_JSON_H
#define CSR_UTIL_JSON_H

#include <string>
#include <string_view>

namespace csr
{

/** @p s escaped for a JSON string body: '"', '\\', \n, \r and \t get
 *  their short escapes, every other control character a \u00XX one.
 *  The quotes around the string are the caller's. */
inline std::string
jsonEscape(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        const auto c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xF];
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace csr

#endif // CSR_UTIL_JSON_H
