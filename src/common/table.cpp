#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace smarth {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  SMARTH_CHECK(!header_.empty());
}

void TextTable::add_row(std::vector<std::string> cells) {
  SMARTH_CHECK_MSG(cells.size() == header_.size(),
                   "row width " << cells.size() << " != header width "
                                << header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      if (c + 1 != row.size()) line += "  ";
    }
    line += '\n';
    return line;
  };
  std::string out = render_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 != widths.size() ? 2 : 0);
  }
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace smarth
