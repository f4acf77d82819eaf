// Line-oriented lexer for SC88 assembler source.
//
// Assembler input is fundamentally line structured (one statement per line,
// ';' comments to end of line), so the lexer tokenises one line at a time.
// The paper's sources use ';;' comments, `.INCLUDE` directives, `NAME .EQU
// expr` equates and `label:` definitions — all representable with this token
// set.
#pragma once

#include <string_view>
#include <vector>

#include "asm/token.h"
#include "support/diagnostics.h"

namespace advm::assembler {

/// Tokenises a single logical line into `out`, replacing what it held, so
/// a caller lexing many lines reuses one buffer. `file`/`line` seed the
/// SourceLocs. Malformed input (bad numbers, unterminated strings, stray
/// characters) produces diagnostics and is skipped, so callers always
/// receive a well-formed (possibly empty) token list terminated by
/// EndOfLine.
void lex_line(std::string_view text, support::SourceName file,
              std::uint32_t line, support::DiagnosticEngine& diags,
              std::vector<Token>& out);

}  // namespace advm::assembler
