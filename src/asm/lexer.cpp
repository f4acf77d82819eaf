#include "asm/lexer.h"

#include <cstdint>

#include "support/text.h"

namespace advm::assembler {

namespace {

/// Multi-character punctuators, longest first so maximal munch works.
constexpr std::string_view kPuncts2[] = {"<<", ">>", "==", "!=",
                                         "<=", ">=", "&&", "||"};

/// [0-9a-zA-Z_]: the charset of decimal/hex/binary literals.
constexpr bool is_number_char(char c) {
  return support::is_ascii_alpha(c) || support::is_ascii_digit(c) || c == '_';
}

constexpr bool is_hex_digit(char c) {
  return support::is_ascii_digit(c) || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

bool lex_number(std::string_view text, std::size_t& i, Token& tok) {
  std::size_t start = i;
  while (i < text.size() && is_number_char(text[i])) ++i;
  auto parsed = support::parse_integer(text.substr(start, i - start));
  if (!parsed) return false;
  tok.kind = TokenKind::Number;
  tok.text.assign(text.substr(start, i - start));
  tok.value = *parsed;
  return true;
}

}  // namespace

void lex_line(std::string_view text, support::SourceName file,
              std::uint32_t line, support::DiagnosticEngine& diags,
              std::vector<Token>& out) {
  // Tokens overwrite the slots the previous line left in `out`, so a
  // reused buffer keeps its strings' capacity. The first `count` are this
  // line's.
  std::size_t count = 0;
  auto next_slot = [&]() -> Token& {
    if (count == out.size()) out.emplace_back();
    Token& tok = out[count];
    tok.value = 0;
    return tok;
  };
  std::size_t i = 0;

  auto loc_at = [&](std::size_t col) {
    return support::SourceLoc{file, line, static_cast<std::uint32_t>(col + 1)};
  };

  while (i < text.size()) {
    char c = text[i];

    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == ';') break;  // comment to end of line
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') break;

    Token& tok = next_slot();
    tok.loc = loc_at(i);

    if (support::is_ascii_digit(c)) {
      if (!lex_number(text, i, tok)) {
        diags.error("asm.bad-number", "malformed numeric literal", tok.loc);
        // Skip the bad blob and continue lexing the line.
        while (i < text.size() && is_number_char(text[i])) ++i;
        continue;
      }
      ++count;
      continue;
    }

    if (c == '\'') {  // character literal
      if (i + 2 < text.size() && text[i + 2] == '\'') {
        tok.kind = TokenKind::Number;
        tok.value = static_cast<unsigned char>(text[i + 1]);
        tok.text.assign(text.substr(i, 3));
        i += 3;
        ++count;
        continue;
      }
      diags.error("asm.bad-char-literal", "malformed character literal",
                  tok.loc);
      ++i;
      continue;
    }

    if (support::is_symbol_start(c)) {
      std::size_t start = i;
      ++i;
      while (i < text.size() && support::is_symbol_char(text[i])) ++i;
      tok.kind = TokenKind::Identifier;
      tok.text.assign(text.substr(start, i - start));
      ++count;
      continue;
    }

    if (c == '"') {
      std::size_t start = ++i;
      while (i < text.size() && text[i] != '"') ++i;
      if (i >= text.size()) {
        diags.error("asm.unterminated-string", "unterminated string literal",
                    tok.loc);
        break;
      }
      tok.kind = TokenKind::String;
      tok.text.assign(text.substr(start, i - start));
      ++i;  // closing quote
      ++count;
      continue;
    }

    if (c == '#') {
      // Z80-style hex literal (#FF, #C000). Only a run that is entirely hex
      // digits lexes as a number; anything else leaves '#' as a punctuator.
      std::size_t j = i + 1;
      bool all_hex = true;
      while (j < text.size() && support::is_symbol_char(text[j])) {
        all_hex = all_hex && is_hex_digit(text[j]);
        ++j;
      }
      if (all_hex && j > i + 1) {
        auto parsed = support::parse_integer(
            "0x" + std::string(text.substr(i + 1, j - i - 1)));
        if (!parsed) {  // wider than 64 bits
          diags.error("asm.bad-number", "hex literal wider than 64 bits",
                      tok.loc);
          i = j;
          continue;
        }
        tok.kind = TokenKind::Number;
        tok.text.assign(text.substr(i, j - i));
        tok.value = *parsed;
        i = j;
        ++count;
        continue;
      }
    }

    if (c == '%') {
      // '%' is binary literal (%1010) in operand position, modulo after a
      // value. "After a value" = the previous token is a number, symbol, or
      // a closing bracket — the classic two-role disambiguation.
      const Token* prev = count > 0 ? &out[count - 1] : nullptr;
      const bool after_value =
          prev != nullptr && (prev->kind == TokenKind::Number ||
                              prev->kind == TokenKind::Identifier ||
                              prev->is_punct(")") || prev->is_punct("]"));
      std::size_t j = i + 1;
      bool all_binary = true;
      while (j < text.size() && support::is_symbol_char(text[j])) {
        all_binary = all_binary && (text[j] == '0' || text[j] == '1');
        ++j;
      }
      if (!after_value && all_binary && j > i + 1) {
        if (j - i - 1 > 64) {
          diags.error("asm.bad-number",
                      "binary literal wider than 64 bits", tok.loc);
          i = j;
          continue;
        }
        std::uint64_t value = 0;  // unsigned: bit 63 set must not overflow
        for (std::size_t k = i + 1; k < j; ++k) {
          value = (value << 1) | static_cast<std::uint64_t>(text[k] - '0');
        }
        tok.kind = TokenKind::Number;
        tok.text.assign(text.substr(i, j - i));
        tok.value = static_cast<std::int64_t>(value);
        i = j;
        ++count;
        continue;
      }
    }

    // Two-character punctuators first (maximal munch).
    bool matched = false;
    if (i + 1 < text.size()) {
      std::string_view two = text.substr(i, 2);
      for (std::string_view p : kPuncts2) {
        if (two == p) {
          tok.kind = TokenKind::Punct;
          tok.text.assign(p);
          i += 2;
          ++count;
          matched = true;
          break;
        }
      }
    }
    if (matched) continue;

    constexpr std::string_view kSingles = ",:[]()+-*/%&|^~!<>=@#\\";
    if (kSingles.find(c) != std::string_view::npos) {
      tok.kind = TokenKind::Punct;
      tok.text.assign(1, c);
      ++i;
      ++count;
      continue;
    }

    diags.error("asm.stray-character",
                std::string("stray character '") + c + "' in source",
                tok.loc);
    ++i;
  }

  Token& eol = next_slot();
  eol.kind = TokenKind::EndOfLine;
  eol.text.clear();
  eol.loc = loc_at(text.size());
  out.resize(count + 1);
}

}  // namespace advm::assembler
