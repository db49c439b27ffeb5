/**
 * @file
 * Plain-text table formatter.
 *
 * All bench binaries print their reproduction of a paper table or
 * figure through this formatter so the output is uniform: a title,
 * aligned columns, and an optional CSV dump for plotting.
 */

#ifndef CSR_UTIL_TABLE_H
#define CSR_UTIL_TABLE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace csr
{

/**
 * Column-aligned text table.  Cells are strings; numeric helpers
 * format with fixed precision to match the paper's presentation
 * (two decimals for percentages).
 */
class TextTable
{
  public:
    explicit TextTable(std::string title = {});

    /** Set the header row. */
    void setHeader(std::vector<std::string> cells);

    /** Append a data row. */
    void addRow(std::vector<std::string> cells);

    /** Insert a horizontal separator before the next row. */
    void addSeparator();

    /** Format a double with the given number of decimals. */
    static std::string num(double v, int decimals = 2);

    /** Full precision ("%.17g"), so bit-identical doubles print
     *  identically: the determinism diffs, INFO and the JSON writers
     *  all spell doubles this way.  An integer prints in decimal. */
    static std::string numFull(double v);
    static std::string numFull(std::uint64_t v);

    /** Six significant digits ("%.6g"), for wall-clock numbers. */
    static std::string numShort(double v);

    /** Format an integer with thousands separators. */
    static std::string count(std::uint64_t v);

    /** Render aligned text (title, header, rule, rows). */
    void print(std::ostream &os) const;

    /** Render as CSV (no alignment, no separators). */
    void printCsv(std::ostream &os) const;

    std::size_t numRows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
    std::vector<std::size_t> separators_; // row indices preceded by a rule
};

} // namespace csr

#endif // CSR_UTIL_TABLE_H
