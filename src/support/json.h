// Minimal JSON reader — the parse half of the report layer's contract.
//
// src/advm/report.cpp renders every Session result as stable JSON; the
// `advm serve` attach protocol needs the opposite direction: the daemon
// and its clients read frame headers and verb requests back into typed
// values. This parser reads exactly the documents that writer produces
// (RFC 8259 subset: no comments, no trailing commas) into a tagged tree
// the callers walk by hand.
//
// Numbers keep their raw source text alongside the converted double so that
// 64-bit counters round-trip exactly (a double only holds 53 bits; an
// instruction counter does not fit) and re-printed doubles reproduce the
// writer's digits.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace advm::support::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw;     ///< number only: verbatim source token
  std::string string;  ///< string only: unescaped content
  std::vector<Value> items;                             ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< object, in order

  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  // Checked accessors: nullopt when the value has the wrong kind (or, for
  // as_uint64, when the raw token is not a non-negative integer).
  [[nodiscard]] std::optional<std::string> as_string() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint64() const;
};

/// Parses one JSON document (surrounding whitespace allowed, trailing
/// garbage rejected). On failure returns nullopt and, when `error` is
/// non-null, a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<Value> parse(std::string_view text,
                                         std::string* error = nullptr);

}  // namespace advm::support::json
