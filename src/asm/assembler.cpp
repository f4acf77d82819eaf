#include "asm/assembler.h"

#include <algorithm>
#include <string_view>

#include "asm/expr.h"
#include "asm/lexer.h"
#include "isa/instruction.h"
#include "isa/opcodes.h"
#include "isa/registers.h"
#include "support/hash.h"
#include "support/text.h"

namespace advm::assembler {

using advm::isa::AddrMode;
using advm::isa::Cond;
using advm::isa::Instruction;
using advm::isa::Opcode;
using advm::isa::OperandPattern;
using advm::isa::RegSpec;
using advm::support::DiagnosticEngine;
using advm::support::SourceLoc;
using advm::support::SourceName;

namespace {

constexpr std::size_t kMaxDefineExpansionDepth = 16;
constexpr std::size_t kMaxIncludeDepth = 32;
constexpr std::size_t kMaxMacroDepth = 64;

/// Flexible source operand after parsing: a register, an immediate
/// expression, or one of the memory forms.
struct SrcOperand {
  AddrMode mode = AddrMode::None;
  std::optional<RegSpec> reg;  ///< Register mode value or indirect pointer
  ExprValue value;             ///< Immediate / Absolute / offset expression
};

enum class Directive : std::uint8_t {
  None,
  Align,
  Ascii,
  Asciiz,
  Db,
  Dd,
  Define,
  Dw,
  Else,
  Endif,
  Endm,
  Equ,
  Error,
  If,
  Ifdef,
  Ifndef,
  Include,
  Macro,
  Org,
  Section,
  Space,
  Warning,
};

/// Every directive by its upper-case spelling, sorted for find_nocase.
constexpr std::pair<std::string_view, Directive> kDirectives[] = {
    {".ALIGN", Directive::Align},     {".ASCII", Directive::Ascii},
    {".ASCIIZ", Directive::Asciiz},   {".DB", Directive::Db},
    {".DD", Directive::Dd},           {".DEFINE", Directive::Define},
    {".DW", Directive::Dw},           {".ELSE", Directive::Else},
    {".ENDIF", Directive::Endif},     {".ENDM", Directive::Endm},
    {".EQU", Directive::Equ},         {".ERROR", Directive::Error},
    {".IF", Directive::If},           {".IFDEF", Directive::Ifdef},
    {".IFNDEF", Directive::Ifndef},   {".INCLUDE", Directive::Include},
    {".MACRO", Directive::Macro},     {".ORG", Directive::Org},
    {".SECTION", Directive::Section}, {".SPACE", Directive::Space},
    {".WARNING", Directive::Warning},
};
static_assert(std::ranges::is_sorted(kDirectives, {},
                                     &std::pair<std::string_view,
                                                Directive>::first));

/// The directive `name` spells in any letter case; None for any other name.
Directive directive_of(std::string_view name) {
  if (name.empty() || name[0] != '.') return Directive::None;
  const Directive* directive = support::find_nocase(kDirectives, name);
  return directive != nullptr ? *directive : Directive::None;
}

/// The names a unit has defined, in two layers: a map it shares (the
/// predefines, or the state a served include memo entry left), read in
/// place, under the unit's own definitions. Serving a memo hit swaps the
/// shared map in instead of copying its nodes.
template <class V>
class Scope {
 public:
  using Map = std::map<std::string, V, std::less<>>;

  /// Starts over with `shared` (which may be null) as the only layer.
  void reset(const Map* shared) {
    shared_ = shared;
    own_.clear();
  }

  [[nodiscard]] const V* find(std::string_view name) const {
    if (auto it = own_.find(name); it != own_.end()) return &it->second;
    if (shared_ != nullptr) {
      if (auto it = shared_->find(name); it != shared_->end()) {
        return &it->second;
      }
    }
    return nullptr;
  }

  /// Defines `name` unless it is defined; returns the value it now has.
  const V& try_emplace(std::string_view name, V value) {
    if (const V* held = find(name)) return *held;
    return own_.emplace(std::string(name), std::move(value)).first->second;
  }

  /// Defines or redefines `name`.
  void assign(std::string_view name, V value) {
    own_.insert_or_assign(std::string(name), std::move(value));
  }

  [[nodiscard]] bool empty() const {
    return own_.empty() && (shared_ == nullptr || shared_->empty());
  }
  /// Names in both layers; one that assign() redefined counts twice.
  [[nodiscard]] std::size_t size() const {
    return own_.size() + (shared_ != nullptr ? shared_->size() : 0);
  }

  /// Both layers as one map, the unit's own definitions winning.
  [[nodiscard]] Map flattened() const {
    Map out = own_;
    if (shared_ != nullptr) out.insert(shared_->begin(), shared_->end());
    return out;
  }

 private:
  const Map* shared_ = nullptr;
  Map own_;
};

}  // namespace

std::uint64_t options_fingerprint(const AssemblerOptions& options) {
  support::Fnv1a h;
  h.update(std::uint64_t{options.include_dirs.size()});
  for (const std::string& dir : options.include_dirs) h.update(dir);
  h.update(std::uint64_t{options.predefines.size()});
  for (const auto& [name, value] : options.predefines) {
    h.update(name);
    h.update(static_cast<std::uint64_t>(value));
  }
  return h.digest();
}

std::shared_ptr<const IncludeMemo::Effect> IncludeMemo::lookup(
    const support::VirtualFileSystem& vfs, const std::string& path,
    std::uint64_t options_digest) {
  std::shared_ptr<const Effect> effect;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({path, options_digest});
    if (it == entries_.end()) return nullptr;
    effect = it->second;
  }
  for (const auto& [file, content] : effect->files) {
    const std::string* now = vfs.find(file);
    if (now == nullptr || *now != content) {
      return nullptr;
    }
  }
  for (const std::string& miss : effect->probed_misses) {
    if (vfs.exists(miss)) return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return effect;
}

void IncludeMemo::remember(const std::string& path,
                           std::uint64_t options_digest, Effect effect) {
  auto entry = std::make_shared<const Effect>(std::move(effect));
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[{path, options_digest}] = std::move(entry);
}

std::size_t IncludeMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

class Assembler::Impl {
 public:
  Impl(const support::VirtualFileSystem& vfs, DiagnosticEngine& diags,
       AssemblerOptions options, IncludeMemo* memo)
      : vfs_(vfs),
        diags_(diags),
        options_(std::move(options)),
        memo_(memo),
        options_digest_(memo ? options_fingerprint(options_) : 0),
        lookup_([this](std::string_view name) -> std::optional<ExprValue> {
          if (const std::int64_t* value = equates_.find(name)) {
            return ExprValue::absolute(*value);
          }
          return std::nullopt;
        }) {}

  std::optional<AssembleResult> assemble_file(std::string_view path) {
    std::string norm = support::normalize_path(path);
    const std::string* content = vfs_.find(norm);
    if (content == nullptr) {
      diags_.error("asm.no-such-file", "cannot open '" + norm + "'");
      return std::nullopt;
    }
    return run(norm, *content);
  }

  std::optional<AssembleResult> assemble_source(std::string_view name,
                                                std::string_view source) {
    return run(std::string(name), source);
  }

  [[nodiscard]] const std::vector<IncludeEdge>& last_includes() const {
    return includes_;
  }

  [[nodiscard]] const std::vector<std::string>& last_probed_misses() const {
    return probed_misses_;
  }

 private:
  // --------------------------------------------------------------- driver --
  std::optional<AssembleResult> run(const std::string& name,
                                    std::string_view source) {
    reset(name);
    const std::size_t errors_before = diags_.error_count();

    process_buffer(name, source);

    if (!cond_stack_.empty()) {
      diags_.error("asm.unterminated-if",
                   "missing .ENDIF at end of assembly");
    }
    if (collecting_macro_) {
      diags_.error("asm.unterminated-macro",
                   "missing .ENDM for macro '" + collecting_name_ + "'");
    }
    if (diags_.error_count() != errors_before) return std::nullopt;

    AssembleResult result;
    result.object = std::move(object_);
    result.includes = std::move(includes_);
    result.probed_misses = std::move(probed_misses_);
    return result;
  }

  void reset(const std::string& name) {
    object_ = ObjectFile{};
    object_.name = name;
    object_.sections.push_back(ObjSection{"code", std::nullopt, {}});
    current_section_ = 0;
    includes_.clear();
    probed_misses_.clear();
    label_slots_.clear();
    served_.reset();
    equates_.reset(&options_.predefines);
    defines_.reset(nullptr);
    macros_.clear();
    cond_stack_.clear();
    include_stack_.clear();
    macro_instance_ = 0;
    macro_depth_ = 0;
  }

  void process_buffer(std::string_view file, std::string_view content) {
    const SourceName name(file);
    std::vector<Token> tokens;  // one buffer for every line of the file
    std::uint32_t line_no = 0;
    for (std::string_view line : support::split_lines(content)) {
      ++line_no;
      process_line(name, line_no, line, tokens);
    }
  }

  // ----------------------------------------------------------- line logic --
  void process_line(SourceName file, std::uint32_t line_no,
                    std::string_view text, std::vector<Token>& tokens) {
    // Macro body collection intercepts everything except .ENDM / nested defs.
    if (collecting_macro_) {
      std::string_view trimmed = support::trim(text);
      if (support::starts_with_nocase(trimmed, ".ENDM")) {
        macros_[collecting_name_] = std::move(collecting_body_);
        collecting_macro_ = false;
        return;
      }
      if (support::starts_with_nocase(trimmed, ".MACRO")) {
        diags_.error("asm.nested-macro", "macro definitions cannot nest",
                     SourceLoc{file, line_no, 1});
        return;
      }
      collecting_body_.lines.push_back(
          MacroLine{std::string(text), file, line_no});
      return;
    }

    lex_line(text, file, line_no, diags_, tokens);
    process_token_line(tokens);
  }

  // -------------------------------------------------------------- defines --
  /// Replaces defined names by their bodies until none is left, and says
  /// whether it replaced any. A line naming no define is not copied.
  bool expand_defines(std::vector<Token>& tokens) {
    if (defines_.empty()) return false;
    const auto body_of = [this](const Token& tok) {
      return tok.is_ident() ? defines_.find(tok.text) : nullptr;
    };
    for (std::size_t depth = 0; depth < kMaxDefineExpansionDepth; ++depth) {
      if (std::none_of(tokens.begin(), tokens.end(), [&](const Token& tok) {
            return body_of(tok) != nullptr;
          })) {
        return depth != 0;
      }
      std::vector<Token>& out = expansion_;
      out.clear();
      for (Token& tok : tokens) {
        const std::vector<Token>* body = body_of(tok);
        if (body == nullptr) {
          out.push_back(std::move(tok));
          continue;
        }
        for (Token replacement : *body) {
          replacement.loc = tok.loc;  // report at use site
          out.push_back(std::move(replacement));
        }
      }
      tokens.swap(out);
    }
    diags_.error("asm.define-recursion",
                 "recursive .DEFINE expansion exceeds depth limit",
                 tokens.empty() ? SourceLoc{} : tokens.front().loc);
    return true;
  }

  void handle_define(const std::vector<Token>& tokens) {
    if (tokens.size() < 3 || !tokens[1].is_ident()) {
      diags_.error("asm.bad-define", ".DEFINE requires a name and a body",
                   tokens[0].loc);
      return;
    }
    std::vector<Token> body(tokens.begin() + 2, tokens.end() - 1);  // drop EOL
    if (body.empty()) {
      diags_.error("asm.bad-define", ".DEFINE body is empty", tokens[1].loc);
      return;
    }
    defines_.assign(tokens[1].text, std::move(body));
  }

  // --------------------------------------------------------------- equates --
  void handle_equ(const std::string& name, const std::vector<Token>& tokens,
                  std::size_t cursor) {
    std::span<const Token> rest(tokens.data() + cursor,
                                tokens.size() - cursor);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    if (!value) return;
    if (!rest[consumed].is_eol()) {
      diags_.error("asm.trailing-tokens", "unexpected tokens after .EQU value",
                   rest[consumed].loc);
      return;
    }
    // Redefinition with the *same* value is tolerated (a file included twice
    // via two paths); changing a value mid-assembly is an error that the
    // paper's single-point-of-change discipline relies on catching.
    if (equates_.try_emplace(name, *value) != *value) {
      diags_.error("asm.equ-redefined",
                   "'" + name + "' .EQU redefined with a different value",
                   tokens[0].loc);
    }
  }

  // ---------------------------------------------------------- conditionals --
  bool conditions_active() const {
    return std::all_of(cond_stack_.begin(), cond_stack_.end(),
                       [](const CondFrame& f) { return f.active; });
  }

  void handle_if(std::vector<Token>& tokens) {
    CondFrame frame;
    if (!conditions_active()) {
      // Enclosing region inactive: do not evaluate, just track nesting.
      frame.active = false;
      frame.taken = true;  // suppress .ELSE activation
      cond_stack_.push_back(frame);
      return;
    }
    expand_defines(tokens);
    std::span<const Token> rest(tokens.data() + 1, tokens.size() - 1);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    frame.active = value.value_or(0) != 0;
    frame.taken = frame.active;
    cond_stack_.push_back(frame);
  }

  void handle_ifdef(const std::vector<Token>& tokens, bool negate) {
    CondFrame frame;
    if (!conditions_active()) {
      frame.active = false;
      frame.taken = true;
      cond_stack_.push_back(frame);
      return;
    }
    if (tokens.size() < 3 || !tokens[1].is_ident()) {
      diags_.error("asm.bad-ifdef", ".IFDEF/.IFNDEF require a symbol name",
                   tokens[0].loc);
      cond_stack_.push_back(CondFrame{false, true, false});
      return;
    }
    const std::string& name = tokens[1].text;
    bool defined = equates_.find(name) != nullptr ||
                   defines_.find(name) != nullptr || macros_.count(name) != 0;
    frame.active = negate ? !defined : defined;
    frame.taken = frame.active;
    cond_stack_.push_back(frame);
  }

  void handle_else(const std::vector<Token>& tokens) {
    if (cond_stack_.empty()) {
      diags_.error("asm.unmatched-else", ".ELSE without .IF", tokens[0].loc);
      return;
    }
    CondFrame& frame = cond_stack_.back();
    if (frame.seen_else) {
      diags_.error("asm.duplicate-else", "second .ELSE for the same .IF",
                   tokens[0].loc);
      return;
    }
    frame.seen_else = true;
    frame.active = !frame.taken && parent_active();
    frame.taken = frame.taken || frame.active;
  }

  bool parent_active() const {
    if (cond_stack_.size() <= 1) return true;
    return std::all_of(cond_stack_.begin(), cond_stack_.end() - 1,
                       [](const CondFrame& f) { return f.active; });
  }

  void handle_endif(const std::vector<Token>& tokens) {
    if (cond_stack_.empty()) {
      diags_.error("asm.unmatched-endif", ".ENDIF without .IF",
                   tokens[0].loc);
      return;
    }
    cond_stack_.pop_back();
  }

  // ----------------------------------------------------------------- macros --
  void handle_macro_start(const std::vector<Token>& tokens) {
    if (tokens.size() < 3 || !tokens[1].is_ident()) {
      diags_.error("asm.bad-macro", ".MACRO requires a name", tokens[0].loc);
      return;
    }
    collecting_name_ = tokens[1].text;
    collecting_body_ = MacroDef{};
    std::size_t cursor = 2;
    while (!tokens[cursor].is_eol()) {
      if (!tokens[cursor].is_ident()) {
        diags_.error("asm.bad-macro-param", "macro parameter must be a name",
                     tokens[cursor].loc);
        return;
      }
      collecting_body_.params.push_back(tokens[cursor].text);
      ++cursor;
      if (tokens[cursor].is_punct(",")) ++cursor;
    }
    collecting_macro_ = true;
  }

  void expand_macro(const std::string& name, const std::vector<Token>& tokens,
                    std::size_t cursor, const SourceLoc& loc) {
    if (macro_depth_ >= kMaxMacroDepth) {
      diags_.error("asm.macro-depth", "macro expansion too deep", loc);
      return;
    }
    const MacroDef& macro = macros_.at(name);

    // Split the remaining tokens into comma-separated argument lists.
    std::vector<std::vector<Token>> args;
    std::vector<Token> current;
    int bracket_depth = 0;
    for (std::size_t i = cursor; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.is_eol()) break;
      if (t.is_punct("[") || t.is_punct("(")) ++bracket_depth;
      if (t.is_punct("]") || t.is_punct(")")) --bracket_depth;
      if (t.is_punct(",") && bracket_depth == 0) {
        args.push_back(std::move(current));
        current.clear();
        continue;
      }
      current.push_back(t);
    }
    if (!current.empty()) args.push_back(std::move(current));

    if (args.size() != macro.params.size()) {
      diags_.error("asm.macro-arity",
                   "macro '" + name + "' expects " +
                       std::to_string(macro.params.size()) + " argument(s), " +
                       "got " + std::to_string(args.size()),
                   loc);
      return;
    }

    const std::size_t instance = ++macro_instance_;
    ++macro_depth_;
    std::vector<Token> line_tokens;
    for (const MacroLine& body_line : macro.lines) {
      lex_line(body_line.text, body_line.file, body_line.line, diags_,
               line_tokens);
      substitute_macro_tokens(line_tokens, macro.params, args, instance);
      process_token_line(line_tokens);
    }
    --macro_depth_;
  }

  /// Processes one tokenised statement line: conditionals, defines, labels,
  /// directives, instructions, macro invocations. Shared by direct source
  /// lines and macro-expanded body lines.
  void process_token_line(std::vector<Token>& tokens) {
    if (tokens.size() <= 1) return;  // blank / comment-only line

    // Conditional-assembly directives act even inside inactive regions
    // (nesting must still be tracked).
    const Directive first =
        tokens[0].is_ident() ? directive_of(tokens[0].text) : Directive::None;
    switch (first) {
      case Directive::If:
        return handle_if(tokens);
      case Directive::Ifdef:
        return handle_ifdef(tokens, /*negate=*/false);
      case Directive::Ifndef:
        return handle_ifdef(tokens, /*negate=*/true);
      case Directive::Else:
        return handle_else(tokens);
      case Directive::Endif:
        return handle_endif(tokens);
      default:
        break;
    }
    if (!conditions_active()) return;

    // Lazy directives keep their operand tokens unexpanded.
    if (first == Directive::Define) return handle_define(tokens);
    if (first == Directive::Macro) return handle_macro_start(tokens);

    const bool expanded = expand_defines(tokens);

    std::size_t cursor = 0;
    while (cursor + 1 < tokens.size() && tokens[cursor].is_ident() &&
           tokens[cursor + 1].is_punct(":")) {
      define_label(tokens[cursor]);
      cursor += 2;
    }
    if (tokens[cursor].is_eol()) return;
    if (!tokens[cursor].is_ident()) {
      diags_.error("asm.expected-statement",
                   "expected mnemonic, directive or label",
                   tokens[cursor].loc);
      return;
    }
    if (cursor + 1 < tokens.size() && tokens[cursor + 1].is_ident() &&
        directive_of(tokens[cursor + 1].text) == Directive::Equ) {
      handle_equ(tokens[cursor].text, tokens, cursor + 2);
      return;
    }
    const Token& head = tokens[cursor];
    if (head.text[0] == '.') {
      handle_directive(cursor == 0 && !expanded ? first
                                                : directive_of(head.text),
                       tokens, cursor);
      return;
    }
    if (auto mm = isa::lookup_mnemonic(head.text)) {
      parse_instruction(*mm, tokens, cursor + 1);
      return;
    }
    if (macros_.count(head.text) != 0) {
      expand_macro(head.text, tokens, cursor + 1, head.loc);
      return;
    }
    diags_.error("asm.unknown-mnemonic",
                 "unknown mnemonic or directive '" + head.text + "'",
                 head.loc);
  }

  static void substitute_macro_tokens(std::vector<Token>& tokens,
                                      const std::vector<std::string>& params,
                                      const std::vector<std::vector<Token>>& args,
                                      std::size_t instance) {
    std::vector<Token> out;
    out.reserve(tokens.size());
    for (Token& tok : tokens) {
      if (tok.is_ident()) {
        // Parameter substitution.
        bool substituted = false;
        for (std::size_t p = 0; p < params.size(); ++p) {
          if (tok.text == params[p]) {
            for (Token arg_tok : args[p]) {
              arg_tok.loc = tok.loc;
              out.push_back(std::move(arg_tok));
            }
            substituted = true;
            break;
          }
        }
        if (substituted) continue;
        // '@' → per-instance suffix, making macro-local labels unique.
        if (tok.text.find('@') != std::string::npos) {
          tok.text = support::replace_all(
              tok.text, "@", "__m" + std::to_string(instance));
        }
      }
      out.push_back(std::move(tok));
    }
    tokens = std::move(out);
  }

  // ---------------------------------------------------------------- labels --
  /// Object-local labels ('.'-prefixed) are mangled with the object name so
  /// that different test cells can reuse '.loop' etc. without link clashes.
  std::string mangle(std::string name) const {
    if (!name.empty() && name.front() == '.') {
      return "$local$" + object_.name + "$" + name;
    }
    return name;
  }

  void define_label(const Token& tok) {
    std::string name = mangle(tok.text);
    if (2 * (object_.symbols.size() + 1) > label_slots_.size()) {
      grow_label_slots();
    }
    std::uint32_t& slot = label_slot(name);
    if (slot != 0) {
      diags_.error("asm.duplicate-label",
                   "label '" + tok.text + "' already defined", tok.loc);
      return;
    }
    slot = static_cast<std::uint32_t>(object_.symbols.size() + 1);
    ObjSymbol sym;
    sym.name = std::move(name);
    sym.section = current().name;
    sym.offset = static_cast<std::uint32_t>(current().bytes.size());
    sym.loc = tok.loc;
    object_.symbols.push_back(std::move(sym));
  }

  /// The slot of label_slots_ that holds `name`, or the empty slot where
  /// it would go (linear probing).
  std::uint32_t& label_slot(std::string_view name) {
    const std::size_t mask = label_slots_.size() - 1;
    for (std::size_t i = std::hash<std::string_view>{}(name) & mask;;
         i = (i + 1) & mask) {
      std::uint32_t& slot = label_slots_[i];
      if (slot == 0 || object_.symbols[slot - 1].name == name) return slot;
    }
  }

  /// Doubles the label index (at least 64 slots) and re-inserts every
  /// label defined so far.
  void grow_label_slots() {
    label_slots_.assign(std::max<std::size_t>(64, 2 * label_slots_.size()),
                        0);
    for (std::size_t i = 0; i < object_.symbols.size(); ++i) {
      label_slot(object_.symbols[i].name) = static_cast<std::uint32_t>(i + 1);
    }
  }

  // ------------------------------------------------------------- directives --
  /// Runs the directive `head`, which spells `directive`. Conditionals,
  /// .DEFINE and .MACRO act only as a line's first token (see
  /// process_token_line); anywhere else they are unknown here.
  void handle_directive(Directive directive, std::vector<Token>& tokens,
                        std::size_t cursor) {
    const Token& head = tokens[cursor];
    switch (directive) {
      case Directive::Include:
        return handle_include(tokens, cursor);
      case Directive::Equ: {
        // Directive-first form: .EQU NAME, expr
        if (cursor + 1 >= tokens.size() || !tokens[cursor + 1].is_ident()) {
          diags_.error("asm.bad-equ", ".EQU requires a name", head.loc);
          return;
        }
        std::size_t value_at = cursor + 2;
        if (value_at < tokens.size() && tokens[value_at].is_punct(",")) {
          ++value_at;
        }
        handle_equ(tokens[cursor + 1].text, tokens, value_at);
        return;
      }
      case Directive::Org:
        return handle_org(tokens, cursor);
      case Directive::Section:
        return handle_section(tokens, cursor);
      case Directive::Align:
        return handle_align(tokens, cursor);
      case Directive::Space:
        return handle_space(tokens, cursor);
      case Directive::Db:
        return handle_data(tokens, cursor, 1);
      case Directive::Dw:
        return handle_data(tokens, cursor, 2);
      case Directive::Dd:
        return handle_data(tokens, cursor, 4);
      case Directive::Ascii:
        return handle_ascii(tokens, cursor, false);
      case Directive::Asciiz:
        return handle_ascii(tokens, cursor, true);
      case Directive::Error:
      case Directive::Warning: {
        std::string msg = "(no message)";
        if (cursor + 1 < tokens.size() &&
            tokens[cursor + 1].kind == TokenKind::String) {
          msg = tokens[cursor + 1].text;
        }
        if (directive == Directive::Error) {
          diags_.error("asm.user-error", msg, head.loc);
        } else {
          diags_.warning("asm.user-warning", msg, head.loc);
        }
        return;
      }
      case Directive::Endm:
        diags_.error("asm.unmatched-endm", ".ENDM without .MACRO", head.loc);
        return;
      default:
        break;
    }
    diags_.error("asm.unknown-directive",
                 "unknown directive '" + head.text + "'", head.loc);
  }

  void handle_include(const std::vector<Token>& tokens, std::size_t cursor) {
    if (cursor + 1 >= tokens.size() ||
        (!tokens[cursor + 1].is_ident() &&
         tokens[cursor + 1].kind != TokenKind::String)) {
      diags_.error("asm.bad-include", ".INCLUDE requires a file name",
                   tokens[cursor].loc);
      return;
    }
    const Token& name_tok = tokens[cursor + 1];
    if (include_stack_.size() >= kMaxIncludeDepth) {
      diags_.error("asm.include-depth", "includes nested too deeply",
                   name_tok.loc);
      return;
    }

    const std::string& current_file =
        include_stack_.empty() ? object_.name : include_stack_.back();

    auto resolved = resolve_include(name_tok.text, current_file);
    if (!resolved) {
      diags_.error("asm.include-not-found",
                   "cannot find include file '" + name_tok.text + "'",
                   name_tok.loc);
      return;
    }
    for (const auto& open_file : include_stack_) {
      if (open_file == *resolved) {
        diags_.error("asm.include-cycle",
                     "include cycle through '" + *resolved + "'",
                     name_tok.loc);
        return;
      }
    }

    includes_.push_back(IncludeEdge{current_file, *resolved, name_tok.loc});
    const bool memoizable = memo_ != nullptr && at_entry_state();
    if (memoizable) {
      if (auto effect = memo_->lookup(vfs_, *resolved, options_digest_)) {
        // At the entry state the unit holds only the predefines, which the
        // entry's equates include: its maps replace this unit's in place.
        equates_.reset(&effect->equates);
        defines_.reset(&effect->defines);
        includes_.insert(includes_.end(), effect->includes.begin(),
                         effect->includes.end());
        probed_misses_.insert(probed_misses_.end(),
                              effect->probed_misses.begin(),
                              effect->probed_misses.end());
        served_ = std::move(effect);
        return;
      }
    }
    const std::size_t edges_before = includes_.size();
    const std::size_t misses_before = probed_misses_.size();
    const std::size_t diags_before = diags_.all().size();

    const std::string& content = vfs_.read_required(*resolved);
    include_stack_.push_back(*resolved);
    process_buffer(*resolved, content);
    include_stack_.pop_back();

    // Record only an include that left nothing but equates and defines
    // behind: no bytes, labels, sections, macros, open .IF or diagnostic.
    if (!memoizable || !at_entry_state(/*allow_definitions=*/true) ||
        diags_.all().size() != diags_before) {
      return;
    }
    IncludeMemo::Effect effect;
    effect.equates = equates_.flattened();
    effect.defines = defines_.flattened();
    effect.includes.assign(includes_.begin() + edges_before, includes_.end());
    effect.probed_misses.assign(probed_misses_.begin() + misses_before,
                                probed_misses_.end());
    effect.files.emplace_back(*resolved, content);
    for (const IncludeEdge& edge : effect.includes) {
      effect.files.emplace_back(edge.to_file,
                                vfs_.read_required(edge.to_file));
    }
    memo_->remember(*resolved, options_digest_, std::move(effect));
  }

  /// True while the translation unit has no state of its own: top of the
  /// include stack, nothing emitted, no macro, no open `.IF`, and — unless
  /// `allow_definitions` — no equate beyond the predefines and no define.
  /// The include memo serves and records includes only from this state.
  [[nodiscard]] bool at_entry_state(bool allow_definitions = false) const {
    const ObjSection& code = object_.sections.front();
    return include_stack_.empty() && cond_stack_.empty() &&
           macros_.empty() && !collecting_macro_ &&
           object_.sections.size() == 1 && !code.org && code.bytes.empty() &&
           object_.symbols.empty() && object_.relocations.empty() &&
           (allow_definitions ||
            (defines_.empty() &&
             equates_.size() == options_.predefines.size()));
  }

  std::optional<std::string> resolve_include(const std::string& name,
                                             const std::string& current_file) {
    // Every candidate probed *before* the one that resolves is recorded:
    // if such a path comes into existence later it would shadow today's
    // resolution, so cached objects must revalidate against the set (the
    // ccache direct-mode hole the object cache otherwise shares).
    auto probe = [&](std::string candidate) -> std::optional<std::string> {
      if (vfs_.exists(candidate)) return candidate;
      probed_misses_.push_back(std::move(candidate));
      return std::nullopt;
    };
    // 1. Relative to the including file's directory.
    if (auto hit =
            probe(support::join_path(support::parent_path(current_file),
                                     name))) {
      return hit;
    }
    // 2. Include search path.
    for (const auto& dir : options_.include_dirs) {
      if (auto hit = probe(support::join_path(dir, name))) return hit;
    }
    // 3. As given (absolute path). A miss here is recorded too: when the
    // include is not found anywhere, the cached BUILD-FAIL must be
    // invalidated the moment the file appears at any candidate path.
    if (auto hit = probe(support::normalize_path(name))) return hit;
    return std::nullopt;
  }

  void handle_org(const std::vector<Token>& tokens, std::size_t cursor) {
    std::span<const Token> rest(tokens.data() + cursor + 1,
                                tokens.size() - cursor - 1);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    if (!value) return;
    ObjSection& sec = current();
    if (!sec.bytes.empty()) {
      diags_.error("asm.org-after-bytes",
                   ".ORG must precede any emitted bytes in a section",
                   tokens[cursor].loc);
      return;
    }
    sec.org = static_cast<std::uint32_t>(*value);
  }

  void handle_section(const std::vector<Token>& tokens, std::size_t cursor) {
    if (cursor + 1 >= tokens.size() || !tokens[cursor + 1].is_ident()) {
      diags_.error("asm.bad-section", ".SECTION requires a name",
                   tokens[cursor].loc);
      return;
    }
    const std::string& name = tokens[cursor + 1].text;
    for (std::size_t i = 0; i < object_.sections.size(); ++i) {
      if (object_.sections[i].name == name) {
        current_section_ = i;
        return;
      }
    }
    object_.sections.push_back(ObjSection{name, std::nullopt, {}});
    current_section_ = object_.sections.size() - 1;
  }

  void handle_align(const std::vector<Token>& tokens, std::size_t cursor) {
    std::span<const Token> rest(tokens.data() + cursor + 1,
                                tokens.size() - cursor - 1);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    if (!value) return;
    if (*value <= 0 || *value > 4096) {
      diags_.error("asm.bad-align", "alignment must be in 1..4096",
                   tokens[cursor].loc);
      return;
    }
    auto align = static_cast<std::size_t>(*value);
    while (current().bytes.size() % align != 0) {
      current().bytes.push_back(0);
    }
  }

  void handle_space(const std::vector<Token>& tokens, std::size_t cursor) {
    std::span<const Token> rest(tokens.data() + cursor + 1,
                                tokens.size() - cursor - 1);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    if (!value) return;
    if (*value < 0 || *value > (1 << 24)) {
      diags_.error("asm.bad-space", ".SPACE size out of range",
                   tokens[cursor].loc);
      return;
    }
    current().bytes.insert(current().bytes.end(),
                           static_cast<std::size_t>(*value), 0);
  }

  void handle_data(const std::vector<Token>& tokens, std::size_t cursor,
                   std::uint8_t size) {
    std::size_t i = cursor + 1;
    while (i < tokens.size() && !tokens[i].is_eol()) {
      if (tokens[i].kind == TokenKind::String && size == 1) {
        for (char c : tokens[i].text) {
          current().bytes.push_back(static_cast<std::uint8_t>(c));
        }
        ++i;
      } else {
        std::span<const Token> rest(tokens.data() + i, tokens.size() - i);
        std::size_t consumed = 0;
        EvalOptions opts;
        opts.allow_forward_refs = (size == 4);
        auto value = evaluate_expr(rest, consumed, lookup_, opts, diags_);
        if (!value) return;
        i += consumed;
        emit_value(*value, size, tokens[cursor].loc);
      }
      if (i < tokens.size() && tokens[i].is_punct(",")) ++i;
    }
  }

  void handle_ascii(const std::vector<Token>& tokens, std::size_t cursor,
                    bool zero_terminate) {
    if (cursor + 1 >= tokens.size() ||
        tokens[cursor + 1].kind != TokenKind::String) {
      diags_.error("asm.bad-ascii", ".ASCII/.ASCIIZ require a string",
                   tokens[cursor].loc);
      return;
    }
    for (char c : tokens[cursor + 1].text) {
      current().bytes.push_back(static_cast<std::uint8_t>(c));
    }
    if (zero_terminate) current().bytes.push_back(0);
  }

  void emit_value(const ExprValue& value, std::uint8_t size,
                  const SourceLoc& loc) {
    ObjSection& sec = current();
    if (!value.is_absolute()) {
      if (size != 4) {
        diags_.error("asm.reloc-size",
                     "label references require 32-bit (.DD) storage", loc);
        return;
      }
      Relocation rel;
      rel.section = sec.name;
      rel.offset = static_cast<std::uint32_t>(sec.bytes.size());
      rel.symbol = mangle(value.symbol);
      rel.addend = value.constant;
      rel.size = 4;
      rel.loc = loc;
      object_.relocations.push_back(std::move(rel));
      for (int i = 0; i < 4; ++i) sec.bytes.push_back(0);
      return;
    }
    const auto v = static_cast<std::uint64_t>(value.constant);
    for (std::uint8_t i = 0; i < size; ++i) {
      sec.bytes.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
    }
  }

  // ------------------------------------------------------------ instructions --
  /// Parses the flexible source operand: register / immediate-expression /
  /// [abs] / [aN] / [aN + off].
  std::optional<SrcOperand> parse_src(const std::vector<Token>& tokens,
                                      std::size_t& cursor) {
    SrcOperand src;
    const Token& t = tokens[cursor];

    if (t.is_punct("[")) {
      ++cursor;
      // Register-indirect?
      if (tokens[cursor].is_ident()) {
        if (auto reg = isa::parse_register(tokens[cursor].text)) {
          if (reg->is_address()) {
            ++cursor;
            if (tokens[cursor].is_punct("]")) {
              ++cursor;
              src.mode = AddrMode::RegIndirect;
              src.reg = *reg;
              return src;
            }
            // [aN + expr] / [aN - expr]: evaluate the rest as an offset.
            std::span<const Token> rest(tokens.data() + cursor,
                                        tokens.size() - cursor);
            std::size_t consumed = 0;
            EvalOptions opts;  // offsets must be absolute
            auto value =
                evaluate_expr(rest, consumed, lookup_, opts, diags_);
            if (!value) return std::nullopt;
            cursor += consumed;
            if (!tokens[cursor].is_punct("]")) {
              diags_.error("asm.expected-bracket", "expected ']'",
                           tokens[cursor].loc);
              return std::nullopt;
            }
            ++cursor;
            if (!value->is_absolute()) {
              diags_.error("asm.reloc-offset",
                           "indirect offsets must be absolute",
                           t.loc);
              return std::nullopt;
            }
            src.mode = AddrMode::RegIndirectOff;
            src.reg = *reg;
            src.value = *value;
            return src;
          }
          diags_.error("asm.indirect-needs-areg",
                       "indirect addressing requires an address register",
                       tokens[cursor].loc);
          return std::nullopt;
        }
      }
      // [expr] absolute address.
      std::span<const Token> rest(tokens.data() + cursor,
                                  tokens.size() - cursor);
      std::size_t consumed = 0;
      EvalOptions opts;
      opts.allow_forward_refs = true;
      auto value = evaluate_expr(rest, consumed, lookup_, opts, diags_);
      if (!value) return std::nullopt;
      cursor += consumed;
      if (!tokens[cursor].is_punct("]")) {
        diags_.error("asm.expected-bracket", "expected ']'",
                     tokens[cursor].loc);
        return std::nullopt;
      }
      ++cursor;
      src.mode = AddrMode::Absolute;
      src.value = *value;
      return src;
    }

    if (t.is_ident()) {
      if (auto reg = isa::parse_register(t.text)) {
        ++cursor;
        src.mode = AddrMode::Register;
        src.reg = *reg;
        return src;
      }
    }

    std::span<const Token> rest(tokens.data() + cursor,
                                tokens.size() - cursor);
    std::size_t consumed = 0;
    EvalOptions opts;
    opts.allow_forward_refs = true;
    auto value = evaluate_expr(rest, consumed, lookup_, opts, diags_);
    if (!value) return std::nullopt;
    cursor += consumed;
    src.mode = AddrMode::Immediate;
    src.value = *value;
    return src;
  }

  std::optional<RegSpec> expect_register(const std::vector<Token>& tokens,
                                         std::size_t& cursor) {
    const Token& t = tokens[cursor];
    if (t.is_ident()) {
      if (auto reg = isa::parse_register(t.text)) {
        ++cursor;
        return reg;
      }
    }
    diags_.error("asm.expected-register",
                 "expected a register (d0..d15 / a0..a15)", t.loc);
    return std::nullopt;
  }

  bool expect_comma(const std::vector<Token>& tokens, std::size_t& cursor) {
    if (tokens[cursor].is_punct(",")) {
      ++cursor;
      return true;
    }
    diags_.error("asm.expected-comma", "expected ','", tokens[cursor].loc);
    return false;
  }

  std::optional<std::int64_t> expect_absolute(
      const std::vector<Token>& tokens, std::size_t& cursor) {
    std::span<const Token> rest(tokens.data() + cursor,
                                tokens.size() - cursor);
    std::size_t consumed = 0;
    auto value = evaluate_absolute(rest, consumed, lookup_, diags_);
    if (!value) return std::nullopt;
    cursor += consumed;
    return value;
  }

  void parse_instruction(const isa::MnemonicMatch& mm,
                         const std::vector<Token>& tokens,
                         std::size_t cursor) {
    const isa::OpcodeInfo& info = isa::opcode_info(mm.op);
    const SourceLoc loc = tokens.empty() ? SourceLoc{} : tokens[0].loc;

    Instruction instr;
    instr.op = mm.op;
    instr.cond = mm.cond;
    // Relocation request against the imm32 field, if any.
    std::optional<ExprValue> reloc_value;

    auto use_value = [&](ExprValue&& v) {
      if (v.is_absolute()) {
        instr.imm = static_cast<std::uint32_t>(v.constant);
      } else {
        reloc_value = std::move(v);
        instr.imm = 0;  // patched by the linker
      }
    };

    switch (info.pattern) {
      case OperandPattern::None:
        break;

      case OperandPattern::RcSrc: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        auto src = parse_src(tokens, cursor);
        if (!src) return;
        if (mm.op == Opcode::Mov &&
            (src->mode == AddrMode::Absolute ||
             src->mode == AddrMode::RegIndirect ||
             src->mode == AddrMode::RegIndirectOff)) {
          diags_.error("asm.mov-memory",
                       "MOV does not access memory; use LOAD", loc);
          return;
        }
        if (mm.op == Opcode::Lea) {
          if (!rc->is_address()) {
            diags_.error("asm.lea-dest",
                         "LEA destination must be an address register", loc);
            return;
          }
          if (src->mode != AddrMode::Immediate) {
            diags_.error("asm.lea-src", "LEA source must be an address value",
                         loc);
            return;
          }
        }
        instr.rc = *rc;
        instr.mode = src->mode;
        instr.rb = src->reg;
        use_value(std::move(src->value));
        break;
      }

      case OperandPattern::MemRa: {
        auto dst = parse_src(tokens, cursor);
        if (!dst) return;
        if (dst->mode != AddrMode::Absolute &&
            dst->mode != AddrMode::RegIndirect &&
            dst->mode != AddrMode::RegIndirectOff) {
          diags_.error("asm.store-dest",
                       "STORE destination must be a memory operand", loc);
          return;
        }
        if (!expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra) return;
        instr.ra = *ra;
        instr.mode = dst->mode;
        instr.rb = dst->reg;
        use_value(std::move(dst->value));
        break;
      }

      case OperandPattern::Ra: {
        auto ra = expect_register(tokens, cursor);
        if (!ra) return;
        instr.ra = *ra;
        break;
      }

      case OperandPattern::Rc: {
        auto rc = expect_register(tokens, cursor);
        if (!rc) return;
        instr.rc = *rc;
        break;
      }

      case OperandPattern::RcRaSrc: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra || !expect_comma(tokens, cursor)) return;
        auto src = parse_src(tokens, cursor);
        if (!src) return;
        if (src->mode != AddrMode::Immediate &&
            src->mode != AddrMode::Register) {
          diags_.error("asm.alu-src",
                       "ALU source must be a register or immediate", loc);
          return;
        }
        instr.rc = *rc;
        instr.ra = *ra;
        instr.mode = src->mode;
        instr.rb = src->reg;
        use_value(std::move(src->value));
        break;
      }

      case OperandPattern::RaSrc: {
        auto ra = expect_register(tokens, cursor);
        if (!ra || !expect_comma(tokens, cursor)) return;
        auto src = parse_src(tokens, cursor);
        if (!src) return;
        if (src->mode != AddrMode::Immediate &&
            src->mode != AddrMode::Register) {
          diags_.error("asm.cmp-src",
                       "CMP source must be a register or immediate", loc);
          return;
        }
        instr.ra = *ra;
        instr.mode = src->mode;
        instr.rb = src->reg;
        use_value(std::move(src->value));
        break;
      }

      case OperandPattern::RcRa: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra) return;
        instr.rc = *rc;
        instr.ra = *ra;
        break;
      }

      case OperandPattern::RcRaSrcPosW: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra || !expect_comma(tokens, cursor)) return;
        auto src = parse_src(tokens, cursor);
        if (!src) return;
        if (src->mode != AddrMode::Immediate &&
            src->mode != AddrMode::Register) {
          diags_.error("asm.insert-src",
                       "INSERT value must be a register or immediate", loc);
          return;
        }
        if (!expect_comma(tokens, cursor)) return;
        auto pos = expect_absolute(tokens, cursor);
        if (!pos || !expect_comma(tokens, cursor)) return;
        auto width = expect_absolute(tokens, cursor);
        if (!width) return;
        instr.rc = *rc;
        instr.ra = *ra;
        instr.mode = src->mode;
        instr.rb = src->reg;
        use_value(std::move(src->value));
        instr.pos = static_cast<std::uint8_t>(*pos);
        instr.width = static_cast<std::uint8_t>(*width);
        break;
      }

      case OperandPattern::RcRaPosW: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra || !expect_comma(tokens, cursor)) return;
        auto pos = expect_absolute(tokens, cursor);
        if (!pos || !expect_comma(tokens, cursor)) return;
        auto width = expect_absolute(tokens, cursor);
        if (!width) return;
        instr.rc = *rc;
        instr.ra = *ra;
        instr.pos = static_cast<std::uint8_t>(*pos);
        instr.width = static_cast<std::uint8_t>(*width);
        break;
      }

      case OperandPattern::Target: {
        // CALL aN / JMP aN — register-indirect control transfer.
        if (tokens[cursor].is_ident()) {
          if (auto reg = isa::parse_register(tokens[cursor].text)) {
            if (reg->is_address()) {
              ++cursor;
              // Indirect target: signalled by rb presence alone — the mode
              // byte of the Jmp family carries the branch condition.
              instr.rb = *reg;
              break;
            }
            diags_.error("asm.target-areg",
                         "indirect jump/call target must be an address "
                         "register",
                         tokens[cursor].loc);
            return;
          }
        }
        std::span<const Token> rest(tokens.data() + cursor,
                                    tokens.size() - cursor);
        std::size_t consumed = 0;
        EvalOptions opts;
        opts.allow_forward_refs = true;
        auto value = evaluate_expr(rest, consumed, lookup_, opts, diags_);
        if (!value) return;
        cursor += consumed;
        use_value(std::move(*value));
        break;
      }

      case OperandPattern::Imm8: {
        auto value = expect_absolute(tokens, cursor);
        if (!value) return;
        if (*value < 0 || *value > 255) {
          diags_.error("asm.trap-range", "TRAP number must be 0..255", loc);
          return;
        }
        instr.pos = static_cast<std::uint8_t>(*value);
        break;
      }

      case OperandPattern::RcCr: {
        auto rc = expect_register(tokens, cursor);
        if (!rc || !expect_comma(tokens, cursor)) return;
        if (!tokens[cursor].is_ident()) {
          diags_.error("asm.expected-crname", "expected core register name",
                       tokens[cursor].loc);
          return;
        }
        auto cr = isa::parse_core_reg(tokens[cursor].text);
        if (!cr) {
          diags_.error("asm.bad-crname",
                       "unknown core register '" + tokens[cursor].text + "'",
                       tokens[cursor].loc);
          return;
        }
        ++cursor;
        instr.rc = *rc;
        instr.pos = static_cast<std::uint8_t>(*cr);
        break;
      }

      case OperandPattern::CrRa: {
        if (!tokens[cursor].is_ident()) {
          diags_.error("asm.expected-crname", "expected core register name",
                       tokens[cursor].loc);
          return;
        }
        auto cr = isa::parse_core_reg(tokens[cursor].text);
        if (!cr) {
          diags_.error("asm.bad-crname",
                       "unknown core register '" + tokens[cursor].text + "'",
                       tokens[cursor].loc);
          return;
        }
        ++cursor;
        if (!expect_comma(tokens, cursor)) return;
        auto ra = expect_register(tokens, cursor);
        if (!ra) return;
        instr.ra = *ra;
        instr.pos = static_cast<std::uint8_t>(*cr);
        break;
      }
    }

    if (!tokens[cursor].is_eol()) {
      diags_.error("asm.trailing-tokens",
                   "unexpected tokens after instruction operands",
                   tokens[cursor].loc);
      return;
    }

    emit_instruction(instr, std::move(reloc_value), loc);
  }

  void emit_instruction(const Instruction& instr,
                        std::optional<ExprValue> reloc_value,
                        const SourceLoc& loc) {
    isa::EncodeError err;
    auto encoded = isa::encode(instr, &err);
    if (!encoded) {
      diags_.error("asm.encode", std::string("cannot encode instruction: ") +
                                     isa::to_string(err),
                   loc);
      return;
    }
    ObjSection& sec = current();
    const std::size_t offset = sec.bytes.size();
    if (reloc_value) {
      Relocation rel;
      rel.section = sec.name;
      rel.offset = static_cast<std::uint32_t>(offset + 8);  // imm32 field
      rel.symbol = mangle(std::move(reloc_value->symbol));
      rel.addend = reloc_value->constant;
      rel.size = 4;
      rel.loc = loc;
      object_.relocations.push_back(std::move(rel));
    }
    sec.bytes.insert(sec.bytes.end(), encoded->begin(), encoded->end());
  }

  ObjSection& current() { return object_.sections[current_section_]; }

  // ------------------------------------------------------------------ state --
  struct MacroLine {
    std::string text;
    SourceName file;
    std::uint32_t line = 0;
  };
  struct MacroDef {
    std::vector<std::string> params;
    std::vector<MacroLine> lines;
  };
  struct CondFrame {
    bool active = false;
    bool taken = false;
    bool seen_else = false;
  };

  const support::VirtualFileSystem& vfs_;
  DiagnosticEngine& diags_;
  AssemblerOptions options_;
  IncludeMemo* memo_ = nullptr;
  std::uint64_t options_digest_ = 0;

  ObjectFile object_;
  std::vector<IncludeEdge> includes_;
  std::vector<std::string> probed_misses_;
  /// Index of object_.symbols by name, so a duplicate label is a lookup,
  /// not a scan of every label so far: open addressing over a power-of-two
  /// table kept at most half full, each slot a symbol index + 1 (0 =
  /// empty). reset() empties it and keeps its capacity.
  std::vector<std::uint32_t> label_slots_;
  /// The memo entry whose maps equates_ and defines_ share, if one served.
  std::shared_ptr<const IncludeMemo::Effect> served_;
  Scope<std::int64_t> equates_;
  Scope<std::vector<Token>> defines_;
  std::vector<Token> expansion_;  ///< expand_defines' output buffer
  std::map<std::string, MacroDef, std::less<>> macros_;
  std::vector<CondFrame> cond_stack_;
  std::vector<std::string> include_stack_;
  std::size_t current_section_ = 0;
  std::size_t macro_instance_ = 0;
  std::size_t macro_depth_ = 0;
  bool collecting_macro_ = false;
  std::string collecting_name_;
  MacroDef collecting_body_;
  /// Resolves identifiers to equates for every expression of the unit.
  const SymbolLookup lookup_;
};

Assembler::Assembler(const support::VirtualFileSystem& vfs,
                     DiagnosticEngine& diags, AssemblerOptions options,
                     IncludeMemo* memo)
    : impl_(std::make_unique<Impl>(vfs, diags, std::move(options), memo)) {}

Assembler::~Assembler() = default;

std::optional<AssembleResult> Assembler::assemble_file(std::string_view path) {
  return impl_->assemble_file(path);
}

std::optional<AssembleResult> Assembler::assemble_source(
    std::string_view name, std::string_view source) {
  return impl_->assemble_source(name, source);
}

const std::vector<IncludeEdge>& Assembler::last_includes() const {
  return impl_->last_includes();
}

const std::vector<std::string>& Assembler::last_probed_misses() const {
  return impl_->last_probed_misses();
}

}  // namespace advm::assembler
