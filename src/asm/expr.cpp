#include "asm/expr.h"

#include <functional>

#include "support/text.h"

namespace advm::assembler {

namespace {

/// `a op b` in two's complement, wrapping where int64 arithmetic would
/// overflow (which is undefined behaviour).
template <class Op>
std::int64_t wrapping(std::int64_t a, std::int64_t b, Op op) {
  return static_cast<std::int64_t>(
      op(static_cast<std::uint64_t>(a), static_cast<std::uint64_t>(b)));
}

enum class BinaryOp : std::uint8_t {
  Or, And, Eq, Ne, Le, Ge, Lt, Gt, BitOr, BitXor, BitAnd, Shl, Shr,
  Add, Sub, Mul, Div, Mod,
};

struct BinaryOperator {
  std::string_view spelling;
  int precedence;  ///< higher binds tighter
  BinaryOp op;
};

/// The binary operators, loosest first. Every level is left-associative.
constexpr BinaryOperator kBinaryOperators[] = {
    {"||", 1, BinaryOp::Or},     {"&&", 2, BinaryOp::And},
    {"==", 3, BinaryOp::Eq},     {"!=", 3, BinaryOp::Ne},
    {"<=", 3, BinaryOp::Le},     {">=", 3, BinaryOp::Ge},
    {"<", 3, BinaryOp::Lt},      {">", 3, BinaryOp::Gt},
    {"|", 4, BinaryOp::BitOr},   {"^", 5, BinaryOp::BitXor},
    {"&", 6, BinaryOp::BitAnd},  {"<<", 7, BinaryOp::Shl},
    {">>", 7, BinaryOp::Shr},    {"+", 8, BinaryOp::Add},
    {"-", 8, BinaryOp::Sub},     {"*", 9, BinaryOp::Mul},
    {"/", 9, BinaryOp::Div},     {"%", 9, BinaryOp::Mod},
};
constexpr int kLoosest = 1;

/// The binary operator `tok` spells, or nullptr.
const BinaryOperator* binary_operator(const Token& tok) {
  if (tok.kind != TokenKind::Punct) return nullptr;
  for (const BinaryOperator& op : kBinaryOperators) {
    if (op.spelling == tok.text) return &op;
  }
  return nullptr;
}

/// Precedence-climbing evaluator: binary operators by the table above,
/// unary operators and primaries by recursive descent.
class Evaluator {
 public:
  Evaluator(std::span<const Token> tokens, const SymbolLookup& lookup,
            const EvalOptions& options, support::DiagnosticEngine& diags)
      : tokens_(tokens), lookup_(lookup), options_(options), diags_(diags) {}

  std::optional<ExprValue> run(std::size_t& consumed) {
    auto v = parse_binary(kLoosest);
    consumed = pos_;
    return v;
  }

 private:
  const Token& peek() const {
    static const Token eol{TokenKind::EndOfLine, "", 0, {}};
    return pos_ < tokens_.size() ? tokens_[pos_] : eol;
  }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool match(std::string_view punct) {
    if (peek().is_punct(punct)) {
      ++pos_;
      return true;
    }
    return false;
  }

  void error(std::string message) {
    if (!errored_) {
      diags_.error("asm.bad-expression", std::move(message), peek().loc);
      errored_ = true;
    }
  }

  /// Parses operands joined by binary operators that bind at least as
  /// tightly as `min_precedence`, left to right: `a - b - c` is
  /// `(a - b) - c`, and an operator's right operand takes every operator
  /// that binds tighter than it.
  std::optional<ExprValue> parse_binary(int min_precedence) {
    auto lhs = parse_unary();
    if (!lhs) return std::nullopt;
    for (;;) {
      const BinaryOperator* op = binary_operator(peek());
      if (op == nullptr || op->precedence < min_precedence) return lhs;
      advance();
      auto rhs = parse_binary(op->precedence + 1);
      if (!rhs || !apply(*op, *lhs, *rhs)) return std::nullopt;
    }
  }

  /// `lhs = lhs op rhs`; false (with the error reported) when the operands
  /// do not allow it.
  bool apply(const BinaryOperator& op, ExprValue& lhs, ExprValue& rhs) {
    if (op.op == BinaryOp::Add) {
      if (!lhs.is_absolute() && !rhs.is_absolute()) {
        error("cannot add two relocatable values");
        return false;
      }
      if (lhs.is_absolute()) lhs.symbol = std::move(rhs.symbol);
      lhs.constant = wrapping(lhs.constant, rhs.constant, std::plus<>{});
      return true;
    }
    if (op.op == BinaryOp::Sub) {
      if (!rhs.is_absolute()) {
        error("cannot subtract a relocatable value");
        return false;
      }
      lhs.constant = wrapping(lhs.constant, rhs.constant, std::minus<>{});
      return true;
    }
    if (!lhs.is_absolute() || !rhs.is_absolute()) {
      error("operator '" + std::string(op.spelling) +
            "' requires absolute operands (relocatable label involved)");
      return false;
    }
    const std::int64_t a = lhs.constant;
    const std::int64_t b = rhs.constant;
    switch (op.op) {
      case BinaryOp::Or:
        lhs.constant = a != 0 || b != 0;
        break;
      case BinaryOp::And:
        lhs.constant = a != 0 && b != 0;
        break;
      case BinaryOp::Eq:
        lhs.constant = a == b;
        break;
      case BinaryOp::Ne:
        lhs.constant = a != b;
        break;
      case BinaryOp::Le:
        lhs.constant = a <= b;
        break;
      case BinaryOp::Ge:
        lhs.constant = a >= b;
        break;
      case BinaryOp::Lt:
        lhs.constant = a < b;
        break;
      case BinaryOp::Gt:
        lhs.constant = a > b;
        break;
      case BinaryOp::BitOr:
        lhs.constant = a | b;
        break;
      case BinaryOp::BitXor:
        lhs.constant = a ^ b;
        break;
      case BinaryOp::BitAnd:
        lhs.constant = a & b;
        break;
      case BinaryOp::Shl:
      case BinaryOp::Shr: {
        if (b < 0 || b > 63) {
          error("shift amount out of range");
          return false;
        }
        const auto sh = static_cast<unsigned>(b);
        const auto lu = static_cast<std::uint64_t>(a);
        lhs.constant = static_cast<std::int64_t>(
            op.op == BinaryOp::Shl ? (lu << sh) : (lu >> sh));
        break;
      }
      case BinaryOp::Mul:
        lhs.constant = wrapping(a, b, std::multiplies<>{});
        break;
      case BinaryOp::Div:
      case BinaryOp::Mod:
        if (b == 0) {
          error("division by zero in constant expression");
          return false;
        }
        if (b == -1) {  // INT64_MIN / -1 overflows (and traps on x86)
          lhs.constant = op.op == BinaryOp::Div
                             ? wrapping(0, a, std::minus<>{})
                             : 0;
          break;
        }
        lhs.constant = op.op == BinaryOp::Div ? a / b : a % b;
        break;
      case BinaryOp::Add:
      case BinaryOp::Sub:
        break;  // handled above: they allow relocatable operands
    }
    return true;
  }

  std::optional<ExprValue> parse_unary() {
    if (match("-")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot negate a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(wrapping(0, v->constant, std::minus<>{}));
    }
    if (match("+")) return parse_unary();
    if (match("~")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot complement a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(~v->constant);
    }
    if (match("!")) {
      auto v = parse_unary();
      if (!v) return std::nullopt;
      if (!v->is_absolute()) {
        error("cannot logically negate a relocatable value");
        return std::nullopt;
      }
      return ExprValue::absolute(v->constant == 0);
    }
    return parse_primary();
  }

  std::optional<ExprValue> parse_primary() {
    const Token& t = peek();
    if (t.kind == TokenKind::Number) {
      advance();
      return ExprValue::absolute(t.value);
    }
    if (t.is_punct("(")) {
      advance();
      auto v = parse_binary(kLoosest);
      if (!v) return std::nullopt;
      if (!match(")")) {
        error("expected ')'");
        return std::nullopt;
      }
      return v;
    }
    if (t.is_ident()) {
      // DEFINED(sym) — conditional-assembly helper.
      if (support::equals_nocase(t.text, "DEFINED") && pos_ + 1 < tokens_.size() &&
          tokens_[pos_ + 1].is_punct("(")) {
        advance();  // DEFINED
        advance();  // (
        if (!peek().is_ident()) {
          error("DEFINED() requires a symbol name");
          return std::nullopt;
        }
        std::string name = advance().text;
        if (!match(")")) {
          error("expected ')' after DEFINED(symbol");
          return std::nullopt;
        }
        return ExprValue::absolute(lookup_(name).has_value() ? 1 : 0);
      }
      advance();
      if (auto v = lookup_(t.text)) return *v;
      if (options_.allow_forward_refs) {
        return ExprValue::relocatable(t.text);
      }
      diags_.error("asm.undefined-symbol",
                   "undefined symbol '" + t.text +
                       "' (forward references are not allowed here)",
                   t.loc);
      errored_ = true;
      return std::nullopt;
    }
    error("expected expression");
    return std::nullopt;
  }

  std::span<const Token> tokens_;
  const SymbolLookup& lookup_;
  const EvalOptions& options_;
  support::DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  bool errored_ = false;
};

}  // namespace

std::optional<ExprValue> evaluate_expr(std::span<const Token> tokens,
                                       std::size_t& consumed,
                                       const SymbolLookup& lookup,
                                       const EvalOptions& options,
                                       support::DiagnosticEngine& diags) {
  Evaluator ev(tokens, lookup, options, diags);
  return ev.run(consumed);
}

std::optional<std::int64_t> evaluate_absolute(
    std::span<const Token> tokens, std::size_t& consumed,
    const SymbolLookup& lookup, support::DiagnosticEngine& diags) {
  EvalOptions options;  // no forward refs
  auto v = evaluate_expr(tokens, consumed, lookup, options, diags);
  if (!v) return std::nullopt;
  if (!v->is_absolute()) {
    diags.error("asm.not-absolute",
                "expression must be absolute but references label '" +
                    v->symbol + "'",
                tokens.empty() ? support::SourceLoc{} : tokens.front().loc);
    return std::nullopt;
  }
  return v->constant;
}

}  // namespace advm::assembler
