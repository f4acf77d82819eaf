#include "support/text.h"

#include <algorithm>
#include <cctype>
#include <limits>

namespace advm::support {

namespace {
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  // find() is memchr, which scans many bytes per step.
  for (std::size_t i = s.find('\n'); i != std::string_view::npos;
       i = s.find('\n', start)) {
    std::size_t end = i;
    if (end > start && s[end - 1] == '\r') --end;
    out.push_back(s.substr(start, end - start));
    start = i + 1;
  }
  if (start < s.size()) {
    std::string_view last = s.substr(start);
    if (!last.empty() && last.back() == '\r') last.remove_suffix(1);
    out.push_back(last);
  }
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool starts_with_nocase(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  return equals_nocase(s.substr(0, prefix.size()), prefix);
}

bool equals_nocase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<std::int64_t> parse_integer(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;

  bool negative = false;
  if (s.front() == '-' || s.front() == '+') {
    negative = s.front() == '-';
    s.remove_prefix(1);
    if (s.empty()) return std::nullopt;
  }

  // Character literal: 'c'
  if (s.size() == 3 && s.front() == '\'' && s.back() == '\'') {
    std::int64_t v = static_cast<unsigned char>(s[1]);
    return negative ? -v : v;
  }

  // Suffix-style hex (0FFh, 38h): classic assembler form, which must start
  // with a decimal digit so it can never be mistaken for a symbol. Checked
  // before the prefix forms — 0BEh is hex 0xBE, not a binary literal with
  // stray digits (the classic reading, and the only consistent one).
  const auto is_hex_body = [](std::string_view body) {
    bool any_digit = false;
    for (char c : body) {
      if (c == '_') continue;
      if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
      any_digit = true;
    }
    return any_digit;
  };

  int base = 10;
  if (s.size() > 1 && (s.back() == 'h' || s.back() == 'H') &&
      s.front() >= '0' && s.front() <= '9' &&
      is_hex_body(s.substr(0, s.size() - 1))) {
    base = 16;
    s.remove_suffix(1);
  } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
    base = 2;
    s.remove_prefix(2);
  }
  if (s.empty()) return std::nullopt;

  // Accumulate unsigned with an overflow guard: literals wider than 64
  // bits are malformed, not UB. The final conversion to int64 is modular
  // (well-defined since C++20), so 0xFFFFFFFFFFFFFFFF still reads as -1 —
  // the classic assembler all-ones idiom.
  std::uint64_t value = 0;
  for (char c : s) {
    if (c == '_') continue;  // digit separator, assembler convenience
    unsigned digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<unsigned>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<unsigned>(c - 'A') + 10;
    } else {
      return std::nullopt;
    }
    if (digit >= static_cast<unsigned>(base)) return std::nullopt;
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) /
                    static_cast<unsigned>(base)) {
      return std::nullopt;  // wider than 64 bits
    }
    value = value * static_cast<unsigned>(base) + digit;
  }
  // Negate in unsigned space (modular) so "-9223372036854775808" lands on
  // INT64_MIN without signed-negation UB.
  return static_cast<std::int64_t>(negative ? std::uint64_t{0} - value
                                            : value);
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t hit = s.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(s.substr(pos));
      break;
    }
    out.append(s.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::size_t count_lines(std::string_view s) {
  if (s.empty()) return 0;
  std::size_t n = static_cast<std::size_t>(
      std::count(s.begin(), s.end(), '\n'));
  if (s.back() != '\n') ++n;
  return n;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

}  // namespace advm::support
