// ASCII table builder used by bench binaries to print paper tables/figures.
//
// Usage:
//   Table t("TABLE II: ...");
//   t.set_header({"Pipeline", "Metric", "1x9216", ...});
//   t.add_row({"Stagewise", "E2E Lat(s)", "1.8", ...});
//   std::cout << t.to_string();
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cnpu {

class Table {
 public:
  Table() = default;
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  // Horizontal separator between row groups.
  void add_separator();

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_columns() const;

  [[nodiscard]] std::string to_string() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

}  // namespace cnpu
