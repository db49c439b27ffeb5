/**
 * @file
 * Out-of-line parts of the (otherwise header-only) cost library:
 * CostRatio's label and parser.
 */

#include "cost/CostModel.h"

#include <strings.h>

#include <charconv>
#include <cmath>

#include "robust/Errors.h"

namespace csr
{

std::string
CostRatio::label() const
{
    if (infinite)
        return "r=inf";
    // Shortest fixed-point form: r=2.5, and r=100000, never r=1e+05.
    char buf[400];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), high, std::chars_format::fixed);
    return "r=" + std::string(buf, res.ptr);
}

CostRatio
parseCostRatio(const std::string &text)
{
    if (strcasecmp(text.c_str(), "inf") == 0)
        return CostRatio::makeInfinite();
    double r = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), r);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !std::isfinite(r) || r <= 0.0)
        throw ConfigError("cost ratio '" + text +
                          "' must be inf or a finite number above 0");
    return CostRatio::finite(r);
}

} // namespace csr
