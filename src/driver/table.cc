#include "table.hh"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace tss
{

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : header(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    TSS_ASSERT(cells.size() == header.size(),
               "row width %zu != header width %zu", cells.size(),
               header.size());
    rows.push_back(std::move(cells));
}

std::string
TablePrinter::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
TablePrinter::num(std::uint64_t v)
{
    return std::to_string(v);
}

void
TablePrinter::print(std::ostream &os) const
{
    std::vector<std::size_t> width(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        width[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(width[c]) + 2)
               << cells[c];
        }
        os << "\n";
    };
    emit(header);
    std::size_t total = 0;
    for (std::size_t w : width)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        emit(row);
}

void
TablePrinter::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << cells[c] << (c + 1 < cells.size() ? "," : "");
        os << "\n";
    };
    emit(header);
    for (const auto &row : rows)
        emit(row);
}

JsonObject &
JsonObject::operator[](const std::string &key)
{
    auto &member = members[key];
    if (!member)
        member = std::make_unique<JsonObject>();
    return *member;
}

void
JsonObject::print(std::ostream &os) const
{
    if (members.empty()) {
        os << leaf;
        return;
    }
    const char *sep = "{";
    for (const auto &[key, member] : members) {
        os << sep << "\"" << key << "\": ";
        member->print(os);
        sep = ", ";
    }
    os << "}";
}

} // namespace tss
