// Small string utilities used across the toolchain.
//
// Kept deliberately minimal: only helpers that the assembler front-end and
// the environment generators need repeatedly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace advm::support {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// Splits into lines, accepting both "\n" and "\r\n" terminators.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view s);

[[nodiscard]] std::string to_upper(std::string_view s);
[[nodiscard]] std::string to_lower(std::string_view s);

[[nodiscard]] bool starts_with_nocase(std::string_view s,
                                      std::string_view prefix);
[[nodiscard]] bool equals_nocase(std::string_view a, std::string_view b);

/// Parses an integer literal in assembler syntax: decimal, 0x... hex,
/// digit-led ...h suffix hex (0FFh), 0b... binary, or 'c' character.
/// Returns nullopt on malformed input.
[[nodiscard]] std::optional<std::int64_t> parse_integer(std::string_view s);

/// ASCII letter test, inline for the lexer's per-character loops.
[[nodiscard]] constexpr bool is_ascii_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
[[nodiscard]] constexpr bool is_ascii_digit(char c) {
  return c >= '0' && c <= '9';
}

/// True for [A-Za-z_.$], the characters that may start an assembler symbol.
[[nodiscard]] constexpr bool is_symbol_start(char c) {
  return is_ascii_alpha(c) || c == '_' || c == '.' || c == '$';
}
/// True for characters that may continue an assembler symbol. '@'
/// continues a symbol so macro bodies can write `loop@:` — the expander
/// rewrites '@' to a per-instance suffix, giving each expansion unique
/// local labels.
[[nodiscard]] constexpr bool is_symbol_char(char c) {
  return is_ascii_alpha(c) || is_ascii_digit(c) || c == '_' || c == '.' ||
         c == '$' || c == '@';
}

/// Looks `name` up, ignoring ASCII letter case, in `table`: pairs of an
/// upper-case spelling (at most 15 characters) and a value, sorted by
/// spelling. Returns the value, or nullptr when no spelling matches.
template <class Table>
[[nodiscard]] auto find_nocase(const Table& table, std::string_view name)
    -> decltype(&std::begin(table)->second) {
  constexpr std::size_t kLongest = 15;
  if (name.size() > kLongest) return nullptr;
  char upper[kLongest];
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    upper[i] = c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
  }
  const std::string_view key(upper, name.size());
  const auto it = std::lower_bound(
      std::begin(table), std::end(table), key,
      [](const auto& entry, std::string_view k) { return entry.first < k; });
  return it != std::end(table) && it->first == key ? &it->second : nullptr;
}

/// Replaces every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view s,
                                      std::string_view from,
                                      std::string_view to);

/// Counts the lines in a text buffer (final unterminated line counts).
[[nodiscard]] std::size_t count_lines(std::string_view s);

/// Joins items with the given separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

}  // namespace advm::support
