/**
 * @file
 * Aligned text-table, CSV and JSON output for the bench harness;
 * every figure/table binary prints through this so outputs are
 * uniform.
 */

#ifndef TSS_DRIVER_TABLE_HH
#define TSS_DRIVER_TABLE_HH

#include <iosfwd>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace tss
{

/** A simple column-aligned table with optional CSV emission. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with @p precision digits. */
    static std::string num(double v, int precision = 1);
    static std::string num(std::uint64_t v);

    /** Render with padded columns to @p os. */
    void print(std::ostream &os) const;

    /** Render as CSV to @p os. */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/**
 * A JSON object built key by key for `--json` bench output. Members
 * print sorted by key; a leaf prints the text its value streams to,
 * so leaves are numbers.
 */
class JsonObject
{
  public:
    /** The member object under @p key, created on first use. */
    JsonObject &operator[](const std::string &key);

    /** Set leaf @p key to @p v (default stream formatting). */
    template <typename T>
    JsonObject &
    set(const std::string &key, const T &v)
    {
        std::ostringstream os;
        os << v;
        (*this)[key].leaf = os.str();
        return *this;
    }

    /** Render on one line to @p os. */
    void print(std::ostream &os) const;

  private:
    /// unique_ptr: a std::map of an incomplete type is undefined.
    std::map<std::string, std::unique_ptr<JsonObject>> members;
    std::string leaf;
};

} // namespace tss

#endif // TSS_DRIVER_TABLE_HH
