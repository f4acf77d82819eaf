#include "advm/violations.h"

#include <algorithm>

#include "advm/environment.h"
#include "advm/regression.h"
#include "asm/lexer.h"
#include "soc/global_layer.h"
#include "support/diagnostics.h"
#include "support/text.h"

namespace advm::core {

using assembler::Token;
using assembler::TokenKind;

std::size_t ViolationReport::count(std::string_view code) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [&](const Violation& v) { return v.code == code; }));
}

std::map<std::string, std::size_t> ViolationReport::by_code() const {
  std::map<std::string, std::size_t> out;
  for (const auto& v : violations) ++out[v.code];
  return out;
}

namespace {

/// Literals below this are treated as structural (loop steps, bit widths);
/// at or above it they are device facts that belong in the globals file.
constexpr std::int64_t kMagicThreshold = 0x10000;

bool is_global_layer_file(std::string_view name) {
  const std::string base = support::base_name(name);
  return base == soc::kRegisterDefsFile ||
         base == soc::kEmbeddedSoftwareFile || base == kTrapLibraryFile ||
         base == soc::kCommonFunctionsFile;
}

/// Token-level scan of one test source for include/magic/field violations.
void scan_source(const std::string& path, const std::string& source,
                 ViolationReport& report) {
  support::DiagnosticEngine scratch;  // lexer errors are not violations
  const support::SourceName file(path);
  std::vector<Token> tokens;
  std::uint32_t line_no = 0;
  for (std::string_view line : support::split_lines(source)) {
    ++line_no;
    assembler::lex_line(line, file, line_no, scratch, tokens);
    if (tokens.size() <= 1) continue;

    // Direct include of a global-layer file.
    if (tokens[0].is_ident() &&
        support::equals_nocase(tokens[0].text, ".INCLUDE") &&
        tokens.size() > 2 && tokens[1].is_ident() &&
        is_global_layer_file(tokens[1].text)) {
      report.violations.push_back(
          {"advm.global-include", path, tokens[1].loc,
           "test includes global-layer file '" + tokens[1].text +
               "' directly"});
    }

    // Large literals anywhere on the line.
    for (const Token& tok : tokens) {
      if (tok.kind == TokenKind::Number && tok.value >= kMagicThreshold) {
        report.violations.push_back(
            {"advm.hardwired-magic", path, tok.loc,
             "hardwired value " + tok.text});
      }
    }

    // INSERT/EXTRACT with a raw numeric bit position. Skip the optional
    // leading label, find the mnemonic, then locate the pos operand
    // (operand index 3 for INSERT, 2 for EXTRACT) by counting commas.
    std::size_t head = 0;
    if (tokens.size() > 2 && tokens[0].is_ident() &&
        tokens[1].is_punct(":")) {
      head = 2;
    }
    if (head < tokens.size() && tokens[head].is_ident()) {
      int pos_operand = -1;
      if (support::equals_nocase(tokens[head].text, "INSERT")) {
        pos_operand = 3;
      } else if (support::equals_nocase(tokens[head].text, "EXTRACT")) {
        pos_operand = 2;
      }
      if (pos_operand > 0) {
        int operand = 0;
        for (std::size_t i = head + 1; i < tokens.size(); ++i) {
          if (tokens[i].is_punct(",")) {
            ++operand;
            continue;
          }
          if (operand == pos_operand &&
              tokens[i].kind == TokenKind::Number) {
            report.violations.push_back(
                {"advm.hardwired-field", path, tokens[i].loc,
                 "bit position '" + tokens[i].text +
                     "' hardwired instead of a field define"});
            break;
          }
          if (operand > pos_operand) break;
        }
      }
    }
  }
}

/// Builds a file-level violation (no source location). Field-by-field
/// assignment instead of a braced temporary: the `{}` SourceLoc member in a
/// pushed-back aggregate trips GCC 12's -Wmaybe-uninitialized false
/// positive under -O3, and the tree builds -Werror.
Violation file_violation(std::string code, std::string file,
                         std::string detail) {
  Violation v;
  v.code = std::move(code);
  v.file = std::move(file);
  v.detail = std::move(detail);
  return v;
}

/// Link-level check: does test `test` of `env` reference symbols defined in
/// the global layer? Requires a successful build of the full cell; a cell
/// that does not build yields the one failure build_cell reports.
void check_linkage(const support::VirtualFileSystem& vfs,
                   const EnvBuildContext& env, std::size_t test,
                   const soc::DerivativeSpec& spec, ObjectCache& cache,
                   ViolationReport& report) {
  CellBuild built = build_cell(vfs, cache, env, test, spec);
  if (!built.image) {
    report.violations.push_back(file_violation("advm.unbuildable",
                                               std::move(built.failed_file),
                                               std::move(built.failure)));
    return;
  }
  const std::string test_path = env.test_source(test);
  for (const auto& [name, symbol] : built.image->symbols) {
    if (!is_global_layer_file(symbol.defined_in)) continue;
    for (const std::string& referrer : symbol.referenced_by) {
      if (referrer == test_path) {
        report.violations.push_back(file_violation(
            "advm.global-call", test_path,
            "test calls global-layer symbol '" + name + "' (defined in " +
                support::base_name(symbol.defined_in) +
                ") without a Base_ wrapper"));
      }
    }
  }
}

void check_environment_name(std::string_view env_dir,
                            ViolationReport& report) {
  const std::string name = support::base_name(env_dir);
  const std::string upper = support::to_upper(name);
  for (const soc::DerivativeSpec* d : soc::all_derivatives()) {
    std::string marker = support::to_upper(d->name);
    // Both "SC88-A" and the family name "SC88" taint an environment name.
    if (upper.find(marker) != std::string::npos ||
        upper.find("SC88") != std::string::npos) {
      report.violations.push_back(file_violation(
          "advm.derivative-name", std::string(env_dir),
          "environment name '" + name +
              "' is derivative specific (paper §2 forbids this)"));
      return;
    }
  }
}

}  // namespace

ViolationReport ViolationChecker::check_system(
    std::string_view system_root, const soc::DerivativeSpec& spec) {
  ViolationReport report;
  for (const EnvBuildContext& env :
       prepare_system(vfs_, system_root, 1, *cache_)) {
    check_environment_name(env.dir, report);
    for (std::size_t t = 0; t < env.tests.size(); ++t) {
      const std::string test_path = env.test_source(t);
      scan_source(test_path, vfs_.read_required(test_path), report);
      check_linkage(vfs_, env, t, spec, *cache_, report);
    }
  }
  return report;
}

}  // namespace advm::core
