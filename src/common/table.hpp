// Plain-text table rendering for bench output: the benches print the same
// rows/series the paper's tables and figures report, and this keeps them
// readable and diffable.
#pragma once

#include <string>
#include <vector>

namespace smarth {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);

  std::size_t row_count() const { return rows_.size(); }

  /// Renders with aligned columns and a separator under the header.
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace smarth
