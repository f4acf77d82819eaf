#include "support/json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace advm::support::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<std::string> Value::as_string() const {
  if (kind != Kind::String) return std::nullopt;
  return string;
}

std::optional<std::uint64_t> Value::as_uint64() const {
  if (kind != Kind::Number || raw.empty() || raw[0] == '-') {
    return std::nullopt;
  }
  if (raw.find_first_of(".eE") != std::string::npos) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw.c_str(), &end, 10);
  if (errno != 0 || end != raw.c_str() + raw.size()) return std::nullopt;
  return static_cast<std::uint64_t>(parsed);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    auto value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        value.reset();
        fail("trailing characters after document");
      }
    }
    if (!value && error != nullptr) *error = error_;
    return value;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!at_end() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                         peek() == '\r')) {
      ++pos_;
    }
  }

  std::nullopt_t fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return std::nullopt;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        if (!consume_literal("null")) return fail("bad literal");
        return Value{};
      default:
        return parse_number();
    }
  }

  std::optional<Value> parse_bool() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (consume_literal("true") || consume_literal("false")) return v;
    return fail("bad literal");
  }

  std::optional<Value> parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (!at_end() && peek() == '.') {
      ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return fail("bad number");
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.raw = std::string(text_.substr(start, pos_ - start));
    // The scan above admits tokens such as "1e" and "."; a number is a
    // token strtod consumes whole.
    char* end = nullptr;
    (void)std::strtod(v.raw.c_str(), &end);
    if (end != v.raw.c_str() + v.raw.size()) return fail("bad number");
    return v;
  }

  std::optional<std::string> parse_string_text() {
    if (at_end() || peek() != '"') {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (!at_end()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          const auto hex4 = [&]() -> std::optional<unsigned> {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
                return std::nullopt;
              }
            }
            return code;
          };
          auto code = hex4();
          if (!code) return std::nullopt;
          unsigned cp = *code;
          // Surrogate halves are not scalar values: a high half must be
          // followed by an escaped low half (together they name one
          // astral code point); either half alone would UTF-8-encode to
          // an invalid 3-byte sequence, so unpaired halves are rejected.
          if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
            return std::nullopt;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired high surrogate in \\u escape");
              return std::nullopt;
            }
            pos_ += 2;
            const auto low = hex4();
            if (!low) return std::nullopt;
            if (*low < 0xDC00 || *low > 0xDFFF) {
              fail("unpaired high surrogate in \\u escape");
              return std::nullopt;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (*low - 0xDC00);
          }
          // UTF-8 encode the (now scalar) code point.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Value> parse_string_value() {
    auto text = parse_string_text();
    if (!text) return std::nullopt;
    Value v;
    v.kind = Value::Kind::String;
    v.string = std::move(*text);
    return v;
  }

  std::optional<Value> parse_array() {
    ++pos_;  // '['
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      auto element = parse_value();
      if (!element) return std::nullopt;
      v.items.push_back(std::move(*element));
      skip_ws();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      return fail("expected ',' or ']'");
    }
  }

  std::optional<Value> parse_object() {
    ++pos_;  // '{'
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      auto key = parse_string_text();
      if (!key) return std::nullopt;
      skip_ws();
      if (at_end() || peek() != ':') return fail("expected ':'");
      ++pos_;
      auto value = parse_value();
      if (!value) return std::nullopt;
      v.members.emplace_back(std::move(*key), std::move(*value));
      skip_ws();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace advm::support::json
