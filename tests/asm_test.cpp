// Tests for the SC88 assembler front end, expression evaluator, object
// model and linker — including assembling the ADVM paper's Fig 6 / Fig 7
// code examples verbatim.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "asm/assembler.h"
#include "asm/expr.h"
#include "asm/lexer.h"
#include "asm/linker.h"
#include "isa/instruction.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm::assembler;
using advm::isa::AddrMode;
using advm::isa::Cond;
using advm::isa::Opcode;
using advm::support::DiagnosticEngine;
using advm::support::VirtualFileSystem;

// ---------------------------------------------------------------- lexer ----

/// Lexes one line into a token list of its own.
std::vector<Token> lex_line(std::string_view text, std::string_view file,
                            std::uint32_t line, DiagnosticEngine& diags) {
  std::vector<Token> tokens;
  advm::assembler::lex_line(text, file, line, diags, tokens);
  return tokens;
}

TEST(Lexer, RefillingOneBufferMatchesFreshBuffers) {
  DiagnosticEngine diags;
  std::vector<Token> buffer;
  for (std::string_view text :
       {"  INSERT d14, d14, TEST_PAGE, POS, SIZE ; comment", "", "NOP",
        "LONG_IDENTIFIER_NUMBER_ONE .EQU 0x10 + %101", "label: .DB \"s\", 3"}) {
    lex_line(text, "buf.asm", 7, diags, buffer);
    const std::vector<Token> fresh = lex_line(text, "buf.asm", 7, diags);
    ASSERT_EQ(buffer.size(), fresh.size()) << text;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(buffer[i].kind, fresh[i].kind) << text;
      EXPECT_EQ(buffer[i].text, fresh[i].text) << text;
      EXPECT_EQ(buffer[i].value, fresh[i].value) << text;
      EXPECT_EQ(buffer[i].loc, fresh[i].loc) << text;
    }
  }
  EXPECT_FALSE(diags.has_errors());
}

TEST(Lexer, TokenizesInstructionLine) {
  DiagnosticEngine diags;
  auto toks = lex_line("  INSERT d14, d14, TEST_PAGE, POS, SIZE ; comment",
                       "t.asm", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  // INSERT d14 , d14 , TEST_PAGE , POS , SIZE + EOL = 11 tokens
  ASSERT_EQ(toks.size(), 11u);
  EXPECT_EQ(toks[0].text, "INSERT");
  EXPECT_TRUE(toks[2].is_punct(","));
  EXPECT_EQ(toks[3].text, "d14");
  EXPECT_EQ(toks[5].text, "TEST_PAGE");
  EXPECT_TRUE(toks.back().is_eol());
}

TEST(Lexer, NumbersDecimalHexBinaryChar) {
  DiagnosticEngine diags;
  auto toks = lex_line("10 0x1F 0b101 'A'", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(toks[0].value, 10);
  EXPECT_EQ(toks[1].value, 31);
  EXPECT_EQ(toks[2].value, 5);
  EXPECT_EQ(toks[3].value, 65);
}

TEST(Lexer, CommentStylesTerminateLine) {
  DiagnosticEngine diags;
  EXPECT_EQ(lex_line(";; whole line comment", "t", 1, diags).size(), 1u);
  EXPECT_EQ(lex_line("NOP // trailing", "t", 1, diags).size(), 2u);
}

TEST(Lexer, DotAndAtAreSymbolChars) {
  DiagnosticEngine diags;
  auto toks = lex_line(".INCLUDE Globals.inc", "t", 1, diags);
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, ".INCLUDE");
  EXPECT_EQ(toks[1].text, "Globals.inc");

  auto at = lex_line("loop@:", "t", 1, diags);
  EXPECT_EQ(at[0].text, "loop@");
  EXPECT_TRUE(at[1].is_punct(":"));
}

TEST(Lexer, MultiCharPunctuators) {
  DiagnosticEngine diags;
  auto toks = lex_line("1 << 2 >= 3 != 4", "t", 1, diags);
  EXPECT_TRUE(toks[1].is_punct("<<"));
  EXPECT_TRUE(toks[3].is_punct(">="));
  EXPECT_TRUE(toks[5].is_punct("!="));
}

TEST(Lexer, ReportsUnterminatedString) {
  DiagnosticEngine diags;
  (void)lex_line(".ASCII \"oops", "t", 3, diags);
  EXPECT_TRUE(diags.has_code("asm.unterminated-string"));
}

TEST(Lexer, ReportsStrayCharacter) {
  DiagnosticEngine diags;
  (void)lex_line("NOP ` NOP", "t", 1, diags);
  EXPECT_TRUE(diags.has_code("asm.stray-character"));
}

TEST(Lexer, HexLiteralForms) {
  // All three classic spellings of the same value (SNIPPETS exemplar).
  DiagnosticEngine diags;
  auto toks = lex_line("#FF 0xFF 0FFh 38h #C000 0h", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  ASSERT_EQ(toks.size(), 7u);
  EXPECT_EQ(toks[0].value, 0xFF);
  EXPECT_EQ(toks[1].value, 0xFF);
  EXPECT_EQ(toks[2].value, 0xFF);
  EXPECT_EQ(toks[3].value, 0x38);
  EXPECT_EQ(toks[4].value, 0xC000);
  EXPECT_EQ(toks[5].value, 0);
  EXPECT_EQ(toks[0].text, "#FF");
  EXPECT_EQ(toks[2].text, "0FFh");

  // Digits starting with 0B/0X must not be misread as 0b/0x prefix forms.
  DiagnosticEngine suffix_diags;
  auto suffix = lex_line("0BEh 0B1h 0Bh", "t", 1, suffix_diags);
  ASSERT_FALSE(suffix_diags.has_errors());
  EXPECT_EQ(suffix[0].value, 0xBE);
  EXPECT_EQ(suffix[1].value, 0xB1);
  EXPECT_EQ(suffix[2].value, 0x0B);  // 0B + h suffix is hex, not binary
}

TEST(Lexer, HashWithoutHexRunStaysPunct) {
  DiagnosticEngine diags;
  auto toks = lex_line("#SYMBOL # #FFx", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  // '#' + identifier, bare '#', and '#' + non-hex symbol run.
  EXPECT_TRUE(toks[0].is_punct("#"));
  EXPECT_EQ(toks[1].text, "SYMBOL");
  EXPECT_TRUE(toks[2].is_punct("#"));
  EXPECT_TRUE(toks[3].is_punct("#"));
  EXPECT_EQ(toks[4].text, "FFx");
}

TEST(Lexer, BinaryPercentLiterals) {
  DiagnosticEngine diags;
  // Comma-separated as in a .DB operand list — after a value, '%' would be
  // the modulo operator instead (see PercentAfterValueIsModulo).
  auto toks = lex_line("%10110011, %11111111, %00000000", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[0].value, 0xB3);
  EXPECT_EQ(toks[2].value, 0xFF);
  EXPECT_EQ(toks[4].value, 0);
  EXPECT_EQ(toks[0].text, "%10110011");

  // A prefix and `count` digits, built with append: `"%" + std::string(n,
  // c)` trips GCC 12's -Wrestrict false positive (PR105651).
  const auto literal = [](char prefix, std::size_t count, char digit) {
    std::string text(1, prefix);
    return text.append(count, digit);
  };

  // Exactly 64 bits is the widest representable literal; 65 is an error,
  // not silent wraparound.
  DiagnosticEngine wide_diags;
  auto wide = lex_line(literal('%', 64, '1'), "t", 1, wide_diags);
  ASSERT_FALSE(wide_diags.has_errors());
  EXPECT_EQ(wide[0].value, -1);  // all 64 bits set

  DiagnosticEngine too_wide;
  (void)lex_line(literal('%', 65, '1'), "t", 1, too_wide);
  EXPECT_TRUE(too_wide.has_code("asm.bad-number"));

  // Same boundary for the '#' hex form: 16 hex digits is all-ones, 17 is
  // a diagnostic, never an unchecked parse.
  DiagnosticEngine hex_diags;
  auto hex = lex_line(literal('#', 16, 'F'), "t", 1, hex_diags);
  ASSERT_FALSE(hex_diags.has_errors());
  EXPECT_EQ(hex[0].value, -1);

  DiagnosticEngine hex_wide;
  (void)lex_line(literal('#', 17, 'F'), "t", 1, hex_wide);
  EXPECT_TRUE(hex_wide.has_code("asm.bad-number"));
}

TEST(Lexer, PercentAfterValueIsModulo) {
  DiagnosticEngine diags;
  auto toks = lex_line("10 %101 X%101 (%101)", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  // After the number 10 and after the symbol X, '%' must stay an operator
  // even though a binary-digit run follows; after '(' it is a literal.
  EXPECT_EQ(toks[0].value, 10);
  EXPECT_TRUE(toks[1].is_punct("%"));
  EXPECT_EQ(toks[2].value, 101);
  EXPECT_EQ(toks[3].text, "X");
  EXPECT_TRUE(toks[4].is_punct("%"));
  EXPECT_EQ(toks[5].value, 101);
  EXPECT_TRUE(toks[6].is_punct("("));
  EXPECT_EQ(toks[7].value, 5);
  EXPECT_TRUE(toks[8].is_punct(")"));
}

TEST(Lexer, CharLiteralEdgeCases) {
  DiagnosticEngine diags;
  auto ok = lex_line("'A' ' ' '0'", "t", 1, diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(ok[0].value, 65);
  EXPECT_EQ(ok[1].value, 32);
  EXPECT_EQ(ok[2].value, 48);

  DiagnosticEngine bad;
  (void)lex_line("'AB'", "t", 1, bad);
  EXPECT_TRUE(bad.has_code("asm.bad-char-literal"));

  DiagnosticEngine dangling;
  (void)lex_line("MOVE d0, '", "t", 1, dangling);
  EXPECT_TRUE(dangling.has_code("asm.bad-char-literal"));
}

TEST(Lexer, MalformedNumbersAreDiagnosed) {
  for (const char* text : {"0xZZ", "0b102", "9q", "0x"}) {
    DiagnosticEngine diags;
    (void)lex_line(text, "t", 1, diags);
    EXPECT_TRUE(diags.has_code("asm.bad-number")) << text;
  }
}

// ----------------------------------------------------------------- expr ----

class ExprTest : public ::testing::Test {
 protected:
  std::optional<ExprValue> eval(std::string_view text,
                                bool allow_forward = false) {
    tokens_ = lex_line(text, "expr", 1, diags_);
    SymbolLookup lookup = [this](std::string_view name)
        -> std::optional<ExprValue> {
      if (name == "PAGE_FIELD_SIZE") return ExprValue::absolute(5);
      if (name == "BASE") return ExprValue::absolute(0x1000);
      return std::nullopt;
    };
    EvalOptions opts;
    opts.allow_forward_refs = allow_forward;
    std::size_t consumed = 0;
    return evaluate_expr(tokens_, consumed, lookup, opts, diags_);
  }

  DiagnosticEngine diags_;
  std::vector<Token> tokens_;
};

TEST_F(ExprTest, Precedence) {
  EXPECT_EQ(eval("2 + 3 * 4"), ExprValue::absolute(14));
  EXPECT_EQ(eval("(2 + 3) * 4"), ExprValue::absolute(20));
  EXPECT_EQ(eval("1 << PAGE_FIELD_SIZE"), ExprValue::absolute(32));
  EXPECT_EQ(eval("(1 << PAGE_FIELD_SIZE) - 1"), ExprValue::absolute(31));
  EXPECT_EQ(eval("0xF0 | 0x0F"), ExprValue::absolute(0xFF));
  EXPECT_EQ(eval("~0 & 0xFF"), ExprValue::absolute(0xFF));
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(eval("PAGE_FIELD_SIZE == 5"), ExprValue::absolute(1));
  EXPECT_EQ(eval("PAGE_FIELD_SIZE > 5"), ExprValue::absolute(0));
  EXPECT_EQ(eval("1 < 2 && 3 != 4"), ExprValue::absolute(1));
  EXPECT_EQ(eval("0 || !0"), ExprValue::absolute(1));
}

TEST_F(ExprTest, DefinedPseudoFunction) {
  EXPECT_EQ(eval("DEFINED(PAGE_FIELD_SIZE)"), ExprValue::absolute(1));
  EXPECT_EQ(eval("DEFINED(NOPE)"), ExprValue::absolute(0));
}

TEST_F(ExprTest, RelocatableArithmetic) {
  auto v = eval("SomeLabel + 8", /*allow_forward=*/true);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->symbol, "SomeLabel");
  EXPECT_EQ(v->constant, 8);

  auto w = eval("BASE + SomeLabel", true);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->symbol, "SomeLabel");
  EXPECT_EQ(w->constant, 0x1000);
}

TEST_F(ExprTest, RelocatableMisuseRejected) {
  EXPECT_FALSE(eval("SomeLabel * 2", true).has_value());
  EXPECT_TRUE(diags_.has_code("asm.bad-expression"));
}

TEST_F(ExprTest, UndefinedSymbolWithoutForwardRefsIsError) {
  EXPECT_FALSE(eval("MISSING + 1", false).has_value());
  EXPECT_TRUE(diags_.has_code("asm.undefined-symbol"));
}

TEST_F(ExprTest, DivisionByZeroConstant) {
  EXPECT_FALSE(eval("4 / 0").has_value());
}

TEST_F(ExprTest, ModuloByZeroConstant) {
  EXPECT_FALSE(eval("4 % 0").has_value());
}

TEST_F(ExprTest, ArithmeticWrapsInsteadOfOverflowing) {
  // int64 overflow is undefined behaviour and INT64_MIN / -1 traps on
  // x86; constant expressions wrap in two's complement instead.
  constexpr std::int64_t kMin = INT64_MIN;
  EXPECT_EQ(eval("0x7FFFFFFFFFFFFFFF + 1"), ExprValue::absolute(kMin));
  EXPECT_EQ(eval("(0 - 0x7FFFFFFFFFFFFFFF) - 2"),
            ExprValue::absolute(INT64_MAX));
  EXPECT_EQ(eval("0x4000000000000000 * 4"), ExprValue::absolute(0));
  EXPECT_EQ(eval("-(0x7FFFFFFFFFFFFFFF + 1)"), ExprValue::absolute(kMin));
  EXPECT_EQ(eval("(0x7FFFFFFFFFFFFFFF + 1) / -1"), ExprValue::absolute(kMin));
  EXPECT_EQ(eval("(0x7FFFFFFFFFFFFFFF + 1) % -1"), ExprValue::absolute(0));
  EXPECT_EQ(eval("-7 / -1"), ExprValue::absolute(7));
  EXPECT_FALSE(diags_.has_errors()) << diags_.to_string();
}

TEST_F(ExprTest, AllHexFormsEvaluateEqually) {
  EXPECT_EQ(eval("#FF"), ExprValue::absolute(0xFF));
  EXPECT_EQ(eval("0FFh"), ExprValue::absolute(0xFF));
  EXPECT_EQ(eval("#FF == 0xFF"), ExprValue::absolute(1));
  EXPECT_EQ(eval("0FFh == 0xFF"), ExprValue::absolute(1));
  EXPECT_EQ(eval("#C000 + 38h"), ExprValue::absolute(0xC038));
}

TEST_F(ExprTest, BinaryLiteralsAndModuloCompose) {
  EXPECT_EQ(eval("%1010"), ExprValue::absolute(10));
  EXPECT_EQ(eval("%10110011 & #F0"), ExprValue::absolute(0xB0));
  // Same '%' character, both roles in one expression.
  EXPECT_EQ(eval("%1010 % 3"), ExprValue::absolute(1));
  EXPECT_EQ(eval("(%101)"), ExprValue::absolute(5));
}

TEST_F(ExprTest, MalformedExpressionsAreRejected) {
  EXPECT_FALSE(eval("1 +").has_value());
  EXPECT_FALSE(eval("(1 + 2").has_value());
  EXPECT_FALSE(eval("* 3").has_value());
  EXPECT_FALSE(eval("1 + + +").has_value());
  EXPECT_FALSE(eval("DEFINED(").has_value());
  EXPECT_TRUE(diags_.has_errors());
}

// ------------------------------------------------------------- assembler ---

class AsmTest : public ::testing::Test {
 protected:
  std::optional<AssembleResult> assemble(std::string_view source,
                                         AssemblerOptions options = {}) {
    Assembler assembler(vfs_, diags_, std::move(options));
    return assembler.assemble_source("/test.asm", source);
  }

  VirtualFileSystem vfs_;
  DiagnosticEngine diags_;
};

TEST_F(AsmTest, EmptySourceProducesEmptyObject) {
  auto r = assemble("; nothing here\n\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->object.total_bytes(), 0u);
}

TEST_F(AsmTest, SingleInstructionEncodes12Bytes) {
  auto r = assemble("_main:\n  NOP\n  HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  EXPECT_EQ(r->object.total_bytes(), 24u);
  ASSERT_EQ(r->object.symbols.size(), 1u);
  EXPECT_EQ(r->object.symbols[0].name, "_main");
  EXPECT_EQ(r->object.symbols[0].offset, 0u);
}

TEST_F(AsmTest, EquBothSyntaxForms) {
  auto r = assemble(
      "PAGE .EQU 8\n"
      ".EQU OTHER, PAGE + 1\n"
      "_main: MOV d0, OTHER\n"
      " HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  auto instr = advm::isa::decode(word);
  ASSERT_TRUE(instr.has_value());
  EXPECT_EQ(instr->imm, 9u);
}

TEST_F(AsmTest, EquRequiresDefinedSymbols) {
  EXPECT_FALSE(assemble("X .EQU UNDEFINED_THING\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.undefined-symbol"));
}

TEST_F(AsmTest, EquConflictingRedefinitionRejected) {
  EXPECT_FALSE(assemble("X .EQU 1\nX .EQU 2\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.equ-redefined"));
}

TEST_F(AsmTest, EquIdenticalRedefinitionTolerated) {
  EXPECT_TRUE(assemble("X .EQU 1\nX .EQU 1\n_main: HALT\n").has_value());
}

TEST_F(AsmTest, DefineSubstitutesTokens) {
  auto r = assemble(
      ".DEFINE CallAddr A12\n"
      "_main: LOAD CallAddr, 0x2000\n"
      " CALL CallAddr\n"
      " HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  auto load = advm::isa::decode(word);
  ASSERT_TRUE(load.has_value());
  ASSERT_TRUE(load->rc.has_value());
  EXPECT_TRUE(load->rc->is_address());
  EXPECT_EQ(load->rc->index, 12);

  std::copy_n(r->object.sections[0].bytes.begin() + 12, 12, word.begin());
  auto call = advm::isa::decode(word);
  ASSERT_TRUE(call.has_value());
  EXPECT_EQ(call->op, Opcode::Call);
  ASSERT_TRUE(call->rb.has_value());  // indirect call via the defined alias
  EXPECT_EQ(call->rb->index, 12);
}

TEST_F(AsmTest, IncludeResolvesViaIncludeDirs) {
  vfs_.write("/env/Abstraction_Layer/Globals.inc", "PAGE .EQU 7\n");
  AssemblerOptions opts;
  opts.include_dirs = {"/env/Abstraction_Layer"};
  auto r = assemble(
      ".INCLUDE Globals.inc\n"
      "_main: MOV d0, PAGE\n HALT\n",
      opts);
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  ASSERT_EQ(r->includes.size(), 1u);
  EXPECT_EQ(r->includes[0].to_file, "/env/Abstraction_Layer/Globals.inc");
}

TEST_F(AsmTest, IncludeRelativeToIncludingFile) {
  vfs_.write("/env/test.asm", ".INCLUDE helper.inc\n_main: HALT\n");
  vfs_.write("/env/helper.inc", "VALUE .EQU 3\n");
  Assembler assembler(vfs_, diags_, {});
  auto r = assembler.assemble_file("/env/test.asm");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
}

TEST_F(AsmTest, MissingIncludeReported) {
  EXPECT_FALSE(assemble(".INCLUDE nothere.inc\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.include-not-found"));
}

TEST_F(AsmTest, IncludeCycleDetected) {
  vfs_.write("/a.inc", ".INCLUDE b.inc\n");
  vfs_.write("/b.inc", ".INCLUDE a.inc\n");
  EXPECT_FALSE(assemble(".INCLUDE a.inc\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.include-cycle"));
}

TEST_F(AsmTest, ConditionalAssemblySelectsBranch) {
  auto r = assemble(
      "MODE .EQU 2\n"
      ".IF MODE == 1\n"
      "_main: MOV d0, 111\n HALT\n"
      ".ELSE\n"
      "_main: MOV d0, 222\n HALT\n"
      ".ENDIF\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  EXPECT_EQ(advm::isa::decode(word)->imm, 222u);
}

TEST_F(AsmTest, NestedConditionals) {
  auto r = assemble(
      "A .EQU 1\nB .EQU 0\n"
      ".IF A\n"
      ".IF B\n_main: MOV d0, 1\n HALT\n.ELSE\n_main: MOV d0, 2\n HALT\n"
      ".ENDIF\n"
      ".ELSE\n"
      ".IF B\njunk junk junk\n.ENDIF\n"  // inactive: never parsed
      ".ENDIF\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  EXPECT_EQ(advm::isa::decode(word)->imm, 2u);
}

TEST_F(AsmTest, IfdefChecksDefinesAndEquates) {
  auto r = assemble(
      ".DEFINE Alias d1\n"
      ".IFDEF Alias\nGOOD .EQU 1\n.ENDIF\n"
      ".IFNDEF Missing\nALSO .EQU 1\n.ENDIF\n"
      "_main: MOV d0, GOOD + ALSO\n HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
}

TEST_F(AsmTest, UnterminatedIfReported) {
  EXPECT_FALSE(assemble(".IF 1\nNOP\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.unterminated-if"));
}

TEST_F(AsmTest, UnmatchedElseEndifReported) {
  EXPECT_FALSE(assemble(".ELSE\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.unmatched-else"));
  diags_.clear();
  EXPECT_FALSE(assemble(".ENDIF\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.unmatched-endif"));
}

TEST_F(AsmTest, PredefinesActLikeCliDefines) {
  AssemblerOptions opts;
  opts.predefines["DERIVATIVE"] = 2;
  auto r = assemble(
      ".IF DERIVATIVE == 2\n_main: MOV d0, 77\n HALT\n"
      ".ELSE\n_main: MOV d0, 88\n HALT\n.ENDIF\n",
      opts);
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  EXPECT_EQ(advm::isa::decode(word)->imm, 77u);
}

TEST_F(AsmTest, MacroExpansionWithParamsAndLocalLabels) {
  auto r = assemble(
      ".MACRO WAIT_TWICE count\n"
      " MOV d1, count\n"
      "again@:\n"
      " SUB d1, d1, 1\n"
      " JNZ again@\n"
      ".ENDM\n"
      "_main:\n"
      " WAIT_TWICE 5\n"
      " WAIT_TWICE 9\n"
      " HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  // 2 expansions * 3 instructions + HALT = 7 instructions.
  EXPECT_EQ(r->object.total_bytes(), 7u * 12u);
  // Each expansion produced a distinct local label.
  EXPECT_EQ(r->object.symbols.size(), 3u);  // _main + 2 unique labels
}

TEST_F(AsmTest, MacroArityMismatchReported) {
  EXPECT_FALSE(assemble(".MACRO M a, b\n NOP\n.ENDM\n_main: M 1\n HALT\n")
                   .has_value());
  EXPECT_TRUE(diags_.has_code("asm.macro-arity"));
}

TEST_F(AsmTest, UnterminatedMacroReported) {
  EXPECT_FALSE(assemble(".MACRO M\n NOP\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.unterminated-macro"));
}

TEST_F(AsmTest, DataDirectives) {
  auto r = assemble(
      "_main: HALT\n"
      ".SECTION data\n"
      ".DB 1, 2, \"AB\"\n"
      ".DW 0x1234\n"
      ".DD 0xDEADBEEF\n"
      ".ALIGN 4\n"
      ".SPACE 3\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  const auto* data = r->object.find_section("data");
  ASSERT_NE(data, nullptr);
  // 4 (.DB) + 2 (.DW) + 4 (.DD) = 10, align to 12, + 3 space = 15
  EXPECT_EQ(data->bytes.size(), 15u);
  EXPECT_EQ(data->bytes[0], 1);
  EXPECT_EQ(data->bytes[2], 'A');
  EXPECT_EQ(data->bytes[4], 0x34);
  EXPECT_EQ(data->bytes[5], 0x12);
  EXPECT_EQ(data->bytes[6], 0xEF);
}

TEST_F(AsmTest, DdWithLabelEmitsRelocation) {
  auto r = assemble(
      "_main: HALT\n"
      ".SECTION data\n"
      "table: .DD _main, other\n"
      "other: .DD table + 4\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  EXPECT_EQ(r->object.relocations.size(), 3u);
  EXPECT_EQ(r->object.relocations[2].addend, 4);
}

TEST_F(AsmTest, OrgMakesSectionAbsolute) {
  auto r = assemble(".SECTION boot\n.ORG 0xF000\n_main: HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  const auto* boot = r->object.find_section("boot");
  ASSERT_NE(boot, nullptr);
  ASSERT_TRUE(boot->org.has_value());
  EXPECT_EQ(*boot->org, 0xF000u);
}

TEST_F(AsmTest, OrgAfterBytesRejected) {
  EXPECT_FALSE(assemble("NOP\n.ORG 0x100\n_main: HALT\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.org-after-bytes"));
}

TEST_F(AsmTest, UserErrorDirective) {
  EXPECT_FALSE(
      assemble(".ERROR \"unsupported derivative\"\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.user-error"));
}

TEST_F(AsmTest, UnknownMnemonicReported) {
  EXPECT_FALSE(assemble("_main: FROBNICATE d0\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.unknown-mnemonic"));
}

TEST_F(AsmTest, DuplicateLabelReported) {
  EXPECT_FALSE(assemble("x: NOP\nx: NOP\n_main: HALT\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.duplicate-label"));
}

TEST_F(AsmTest, DuplicateLabelFoundAmongThousandsOfLabels) {
  std::ostringstream source;
  for (int i = 0; i < 2000; ++i) {
    source << "label" << i << ": NOP\n.local" << i << ": NOP\n";
  }
  source << "_main: HALT\n";
  auto clean = assemble(source.str());
  ASSERT_TRUE(clean.has_value()) << diags_.to_string();
  EXPECT_EQ(clean->object.symbols.size(), 4001u);

  diags_.clear();
  source << "label1234: HALT\n";
  EXPECT_FALSE(assemble(source.str()).has_value());
  ASSERT_EQ(diags_.all().size(), 1u) << diags_.to_string();
  const auto& diag = diags_.all().front();
  EXPECT_EQ(diag.code, "asm.duplicate-label");
  EXPECT_EQ(diag.message, "label 'label1234' already defined");
  EXPECT_EQ(diag.loc.line, 4002u);
  EXPECT_EQ(diag.loc.column, 1u);
}

TEST_F(AsmTest, TrapRangeChecked) {
  EXPECT_FALSE(assemble("_main: TRAP 300\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.trap-range"));
}

TEST_F(AsmTest, StoreRequiresMemoryDestination) {
  EXPECT_FALSE(assemble("_main: STORE d1, d2\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.store-dest"));
}

TEST_F(AsmTest, MovRejectsMemoryOperand) {
  EXPECT_FALSE(assemble("_main: MOV d1, [0x100]\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.mov-memory"));
}

// ---------------------------------------------------------------- linker ---

class LinkTest : public ::testing::Test {
 protected:
  std::optional<ObjectFile> obj(std::string_view name,
                                std::string_view source) {
    Assembler assembler(vfs_, diags_, {});
    auto r = assembler.assemble_source(name, source);
    if (!r) return std::nullopt;
    return std::move(r->object);
  }

  VirtualFileSystem vfs_;
  DiagnosticEngine diags_;
};

TEST_F(LinkTest, TwoObjectCallAcrossFiles) {
  auto test = obj("/t/test1.asm",
                  "_main:\n"
                  " LOAD a12, Base_Init_Register\n"
                  " CALL a12\n"
                  " HALT\n");
  auto base = obj("/t/base.asm",
                  "Base_Init_Register:\n"
                  " MOV d4, 0x55\n"
                  " RETURN\n");
  ASSERT_TRUE(test && base) << diags_.to_string();

  std::vector<ObjectFile> objects{*test, *base};
  auto image = link(objects, {}, diags_);
  ASSERT_TRUE(image.has_value()) << diags_.to_string();

  const auto* sym = image->find_symbol("Base_Init_Register");
  ASSERT_NE(sym, nullptr);
  EXPECT_EQ(sym->defined_in, "/t/base.asm");
  ASSERT_EQ(sym->referenced_by.size(), 1u);
  EXPECT_EQ(sym->referenced_by[0], "/t/test1.asm");

  // The LOAD's imm32 was patched with the function's linked address.
  const auto& seg = image->segments[0];
  std::uint32_t patched = seg.bytes[8] | (seg.bytes[9] << 8) |
                          (seg.bytes[10] << 16) | (seg.bytes[11] << 24);
  EXPECT_EQ(patched, sym->address);
}

TEST_F(LinkTest, EntrySymbolRequired) {
  auto o = obj("/t/nomain.asm", "fn: RETURN\n");
  ASSERT_TRUE(o.has_value());
  std::vector<ObjectFile> objects{*o};
  EXPECT_FALSE(link(objects, {}, diags_).has_value());
  EXPECT_TRUE(diags_.has_code("link.no-entry"));
}

TEST_F(LinkTest, UndefinedSymbolReported) {
  auto o = obj("/t/t.asm", "_main: CALL NotDefined\n HALT\n");
  ASSERT_TRUE(o.has_value());
  std::vector<ObjectFile> objects{*o};
  EXPECT_FALSE(link(objects, {}, diags_).has_value());
  EXPECT_TRUE(diags_.has_code("link.undefined-symbol"));
}

TEST_F(LinkTest, DuplicateSymbolAcrossObjectsReported) {
  auto a = obj("/t/a.asm", "_main: HALT\nshared: NOP\n");
  auto b = obj("/t/b.asm", "shared: NOP\n");
  ASSERT_TRUE(a && b);
  std::vector<ObjectFile> objects{*a, *b};
  EXPECT_FALSE(link(objects, {}, diags_).has_value());
  EXPECT_TRUE(diags_.has_code("link.duplicate-symbol"));
}

TEST_F(LinkTest, LocalLabelsDoNotCollideAcrossObjects) {
  auto a = obj("/t/a.asm", "_main: NOP\n.loop: JMP .loop\n HALT\n");
  auto b = obj("/t/b.asm", "helper: NOP\n.loop: JMP .loop\n RETURN\n");
  ASSERT_TRUE(a && b) << diags_.to_string();
  std::vector<ObjectFile> objects{*a, *b};
  EXPECT_TRUE(link(objects, {}, diags_).has_value()) << diags_.to_string();
}

TEST_F(LinkTest, AbsoluteSectionPlacedAtOrg) {
  auto rom = obj("/t/rom.asm",
                 ".SECTION boot\n.ORG 0xF000\nES_Fn: RETURN\n");
  auto test = obj("/t/t.asm", "_main: CALL ES_Fn\n HALT\n");
  ASSERT_TRUE(rom && test);
  std::vector<ObjectFile> objects{*rom, *test};
  auto image = link(objects, {}, diags_);
  ASSERT_TRUE(image.has_value()) << diags_.to_string();
  EXPECT_EQ(image->find_symbol("ES_Fn")->address, 0xF000u);
}

TEST_F(LinkTest, OverlappingAbsoluteSectionsRejected) {
  auto a = obj("/t/a.asm", ".ORG 0x100\n_main: HALT\n");
  auto b = obj("/t/b.asm", ".ORG 0x104\nf: HALT\n");
  ASSERT_TRUE(a && b);
  std::vector<ObjectFile> objects{*a, *b};
  EXPECT_FALSE(link(objects, {}, diags_).has_value());
  EXPECT_TRUE(diags_.has_code("link.overlap"));
}

TEST_F(LinkTest, CodePlacementStartsAtCodeBase) {
  auto o = obj("/t/t.asm", "_main: HALT\n");
  ASSERT_TRUE(o.has_value());
  LinkOptions opts;
  opts.code_base = 0x4000;
  std::vector<ObjectFile> objects{*o};
  auto image = link(objects, opts, diags_);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->entry, 0x4000u);
}

// --------------------------------------------- paper code, assembled as-is --

// Fig 6 of the paper, adapted only in that Globals.inc lives in the VFS.
TEST_F(LinkTest, PaperFig6AssemblesVerbatim) {
  vfs_.write("/env/Abstraction_Layer/Globals.inc",
             ";; Globals.inc\n"
             "PAGE_FIELD_SIZE .EQU 5\n"
             "PAGE_FIELD_START_POSITION .EQU 0\n"
             "TEST1_TARGET_PAGE .EQU 8\n"
             "TEST2_TARGET_PAGE .EQU 7\n");
  vfs_.write("/env/test1/test.asm",
             ";; Code for test 1\n"
             ".INCLUDE Globals.inc\n"
             "TEST_PAGE .EQU TEST1_TARGET_PAGE\n"
             "_main:\n"
             " INSERT d14, d14, TEST_PAGE, PAGE_FIELD_START_POSITION, "
             "PAGE_FIELD_SIZE\n"
             " HALT\n");

  AssemblerOptions opts;
  opts.include_dirs = {"/env/Abstraction_Layer"};
  Assembler assembler(vfs_, diags_, opts);
  auto r = assembler.assemble_file("/env/test1/test.asm");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();

  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  auto insert = advm::isa::decode(word);
  ASSERT_TRUE(insert.has_value());
  EXPECT_EQ(insert->op, Opcode::Insert);
  EXPECT_EQ(insert->imm, 8u);   // TEST1_TARGET_PAGE
  EXPECT_EQ(insert->pos, 0u);   // PAGE_FIELD_START_POSITION
  EXPECT_EQ(insert->width, 5u); // PAGE_FIELD_SIZE
}

// ------------------------------------------------- further directive edges --

TEST_F(AsmTest, DefinedPseudoFunctionInConditional) {
  auto r = assemble(
      ".IF DEFINED(NOT_THERE)\n"
      "junk junk junk\n"
      ".ENDIF\n"
      "X .EQU 1\n"
      ".IF DEFINED(X)\n"
      "_main: HALT\n"
      ".ENDIF\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  EXPECT_EQ(r->object.total_bytes(), 12u);
}

TEST_F(AsmTest, DwWithLabelReferenceRejected) {
  // Only 32-bit (.DD) storage can hold a relocated address: .DB/.DW do not
  // allow forward/label references at all.
  EXPECT_FALSE(
      assemble("_main: HALT\n.SECTION data\n.DW _main\n").has_value());
  EXPECT_TRUE(diags_.has_code("asm.undefined-symbol"));
}

TEST_F(AsmTest, MacroArgumentMayBeMemoryOperand) {
  auto r = assemble(
      ".MACRO FETCH dest, src\n"
      " LOAD dest, src\n"
      ".ENDM\n"
      "_main:\n"
      " LEA a4, 0x4000\n"
      " FETCH d1, [a4 + 8]\n"
      " HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin() + 12, 12, word.begin());
  auto load = advm::isa::decode(word);
  ASSERT_TRUE(load.has_value());
  EXPECT_EQ(load->mode, AddrMode::RegIndirectOff);
  EXPECT_EQ(load->imm, 8u);
}

TEST_F(AsmTest, MacroInInactiveBranchNotExpanded) {
  auto r = assemble(
      ".MACRO BOOM\n"
      " .ERROR \"must not expand\"\n"
      ".ENDM\n"
      ".IF 0\n"
      " BOOM\n"
      ".ENDIF\n"
      "_main: HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
}

TEST_F(AsmTest, WarningDirectiveDoesNotFailAssembly) {
  auto r = assemble(".WARNING \"heads up\"\n_main: HALT\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(diags_.warning_count(), 1u);
  EXPECT_TRUE(diags_.has_code("asm.user-warning"));
}

TEST_F(AsmTest, ModuloAndComplementInEquates) {
  auto r = assemble(
      "A .EQU 29 % 8\n"        // 5
      "B .EQU ~0 & 0xFF\n"     // 255
      "_main: MOV d0, A + B\n HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  EXPECT_EQ(advm::isa::decode(word)->imm, 260u);
}

TEST_F(AsmTest, NegativeImmediateWrapsToTwosComplement) {
  auto r = assemble("_main: MOV d0, 0 - 1\n HALT\n");
  ASSERT_TRUE(r.has_value()) << diags_.to_string();
  advm::isa::EncodedInstr word{};
  std::copy_n(r->object.sections[0].bytes.begin(), 12, word.begin());
  EXPECT_EQ(advm::isa::decode(word)->imm, 0xFFFF'FFFFu);
}

TEST_F(AsmTest, EquatesAreFileLocalAcrossObjects) {
  // EQUs travel via .INCLUDE (the paper's sharing mechanism), never via the
  // linker: an equate defined in one object is invisible to another.
  Assembler assembler(vfs_, diags_, {});
  auto a = assembler.assemble_source("/a.asm", "SHARED .EQU 5\nfn: HALT\n");
  ASSERT_TRUE(a.has_value());
  auto b = assembler.assemble_source("/b.asm",
                                     "_main: MOV d0, SHARED\n HALT\n");
  ASSERT_TRUE(b.has_value()) << diags_.to_string();  // becomes a label ref
  std::vector<ObjectFile> objects{a->object, b->object};
  EXPECT_FALSE(link(objects, {}, diags_).has_value());
  EXPECT_TRUE(diags_.has_code("link.undefined-symbol"));
}

// Fig 7 of the paper: test → Base_Functions wrapper → embedded software,
// three layers linked together.
TEST_F(LinkTest, PaperFig7ThreeLayerLink) {
  vfs_.write("/env/Abstraction_Layer/Globals.inc",
             ".DEFINE CallAddr A12\n"
             "REG_INIT_VALUE .EQU 0xA5\n"
             "ADDR .EQU 0xE000\n"
             ".DEFINE ValueForReg d4\n");

  AssemblerOptions opts;
  opts.include_dirs = {"/env/Abstraction_Layer"};

  Assembler assembler(vfs_, diags_, opts);
  auto test = assembler.assemble_source(
      "/env/test1/test.asm",
      ";; Code for test 1\n"
      ".INCLUDE Globals.inc\n"
      "_main:\n"
      " LOAD CallAddr, Base_Init_Register\n"
      " CALL CallAddr\n"
      " HALT\n");
  auto base = assembler.assemble_source(
      "/env/Abstraction_Layer/base_functions.asm",
      ";; Base_Functions.asm\n"
      ".INCLUDE Globals.inc\n"
      "Base_Init_Register:\n"
      " LOAD CallAddr, ES_Init_Register\n"
      " CALL CallAddr\n"
      " RETURN\n");
  auto es = assembler.assemble_source(
      "/global/Embedded_Software.asm",
      ";; Embedded_Software.asm\n"
      ".INCLUDE Globals.inc\n"
      "ES_Init_Register:\n"
      " LOAD ValueForReg, REG_INIT_VALUE\n"
      " STORE [ADDR], ValueForReg\n"
      " RETURN\n");
  ASSERT_TRUE(test && base && es) << diags_.to_string();

  std::vector<ObjectFile> objects{test->object, base->object, es->object};
  auto image = link(objects, {}, diags_);
  ASSERT_TRUE(image.has_value()) << diags_.to_string();

  // Cross-reference captures the layering: the test references only the
  // wrapper; only the wrapper references the embedded-software function.
  const auto* wrapper = image->find_symbol("Base_Init_Register");
  const auto* es_fn = image->find_symbol("ES_Init_Register");
  ASSERT_TRUE(wrapper && es_fn);
  ASSERT_EQ(wrapper->referenced_by.size(), 1u);
  EXPECT_EQ(wrapper->referenced_by[0], "/env/test1/test.asm");
  ASSERT_EQ(es_fn->referenced_by.size(), 1u);
  EXPECT_EQ(es_fn->referenced_by[0],
            "/env/Abstraction_Layer/base_functions.asm");
}

}  // namespace
