#include "util/Table.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace csr
{

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::addSeparator()
{
    separators_.push_back(rows_.size());
}

std::string
TextTable::num(double v, int decimals)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(decimals) << v;
    return oss.str();
}

std::string
TextTable::numFull(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
TextTable::numFull(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
TextTable::numShort(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
TextTable::count(std::uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int digits = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (digits && digits % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++digits;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto &row : rows_)
        grow(row);

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const std::string &cell = i < row.size() ? row[i] : std::string();
            os << (i == 0 ? "| " : " | ");
            // Left-align the first column (labels), right-align data.
            if (i == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[i])) << cell;
        }
        os << " |\n";
    };
    auto emit_rule = [&]() {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            os << (i == 0 ? "|-" : "-|-");
            os << std::string(widths[i], '-');
        }
        os << "-|\n";
    };

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit_row(header_);
        emit_rule();
    }
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        if (std::find(separators_.begin(), separators_.end(), r) !=
            separators_.end()) {
            emit_rule();
        }
        emit_row(rows_[r]);
    }
}

void
TextTable::printCsv(std::ostream &os) const
{
    // RFC-4180 quoting: grouped numbers like "6,115" must stay one
    // field.
    auto emit_field = [&os](const std::string &field) {
        if (field.find_first_of(",\"\n") == std::string::npos) {
            os << field;
            return;
        }
        os << '"';
        for (char c : field) {
            if (c == '"')
                os << '"';
            os << c;
        }
        os << '"';
    };
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                os << ',';
            emit_field(row[i]);
        }
        os << '\n';
    };
    if (!header_.empty())
        emit(header_);
    for (const auto &row : rows_)
        emit(row);
}

} // namespace csr
