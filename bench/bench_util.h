// Shared helpers for the bench programs: aligned table printing and a
// wall-clock stopwatch. Each experiment program prints one experiment's
// tables on stdout, and only deterministic columns: the tier-1 tests
// paper_<name> compare that output with tests/golden/paper_<name>.txt. The
// stopwatch is for bench_sim_core, whose timings no golden checks.
#pragma once

#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace advm::bench {

/// Minimal fixed-width table writer: set headers, add rows, print.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) widths_.push_back(h.size());
  }

  template <typename... Cells>
  void add_row(Cells&&... cells) {
    std::vector<std::string> row;
    (row.push_back(to_cell(std::forward<Cells>(cells))), ...);
    for (std::size_t i = 0; i < row.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], row[i].size());
    }
    rows_.push_back(std::move(row));
  }

  void print(std::ostream& os = std::cout) const {
    print_row(os, headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(widths_[i] + 2, '-');
    }
    os << rule << "\n";
    for (const auto& row : rows_) print_row(os, row);
  }

 private:
  template <typename T>
  static std::string to_cell(T&& value) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(std::forward<T>(value));
    } else if constexpr (std::is_floating_point_v<std::decay_t<T>>) {
      std::ostringstream os;
      os << std::setprecision(4) << value;
      return os.str();
    } else {
      return std::to_string(value);
    }
  }

  void print_row(std::ostream& os, const std::vector<std::string>& row) const {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths_[i]) + 2)
         << row[i];
    }
    os << "\n";
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const std::string& title, const std::string& subtitle) {
  std::cout << "\n=== " << title << " ===\n" << subtitle << "\n\n";
}

}  // namespace advm::bench
