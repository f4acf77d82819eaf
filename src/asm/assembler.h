// The SC88 macro assembler.
//
// A single-pass assembler in the classic style the ADVM paper's sources
// assume:
//
//  * `.INCLUDE file`            — textual include, resolved against the
//                                 including file's directory then the
//                                 configured include paths (this is how the
//                                 abstraction layer's Globals.inc reaches
//                                 every test, paper Fig 6);
//  * `NAME .EQU expr`           — evaluated constant; must be resolvable at
//                                 the point of definition;
//  * `.DEFINE NAME tokens...`   — token-level alias (paper Fig 7:
//                                 `.DEFINE CallAddr A12`);
//  * `.MACRO name [p1, p2] ... .ENDM` — token-substituting macros, `@` in
//                                 identifiers becomes a unique suffix;
//  * `.IF expr / .ELSE / .ENDIF`, `.IFDEF/.IFNDEF NAME` — conditional
//                                 assembly (how one abstraction layer serves
//                                 many derivatives and platforms);
//  * `.ORG/.SECTION/.ALIGN/.SPACE/.DB/.DW/.DD/.ASCII/.ASCIIZ`;
//  * `.ERROR/.WARNING "msg"`    — environment guard rails.
//
// Label references always become relocations (resolved by the linker), so
// forward references to labels need no second pass. Labels whose name starts
// with '.' are object-local: they are name-mangled per object and never
// collide across test cells.
//
// Include memo. Every ADVM test opens with `.INCLUDE Globals.inc`, so a
// regression processes the same abstraction layer once per test. An
// Assembler given an IncludeMemo replays such an include instead:
//
//  * Eligible: an `.INCLUDE` reached with an empty include stack, no
//    equates but the predefines, no defines or macros, nothing emitted
//    (no label, byte, relocation, `.ORG` or `.SECTION`) and no `.IF` open.
//  * Recorded: only when processing the include emitted nothing, defined
//    no label, section or macro, left no `.IF` open and produced no
//    diagnostic. The entry holds the include's whole effect — the equates
//    and defines afterwards, the nested IncludeEdges and probed misses in
//    order — keyed by (resolved path, options_fingerprint). A newer
//    recording replaces the older one.
//  * Served: only while every file the include read still has its
//    recorded content and every recorded probed miss still misses. A hit
//    appends the edges and misses exactly where a full pass would, so the
//    object cache and the violation checker cannot tell the difference.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/object.h"
#include "asm/token.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace advm::assembler {

struct AssemblerOptions {
  /// Search path for .INCLUDE (after the including file's own directory).
  std::vector<std::string> include_dirs;
  /// Pre-defined equates, the CLI `-D NAME=value` equivalent. This is the
  /// hook the ADVM uses to select derivative/platform without editing code.
  std::map<std::string, std::int64_t> predefines;
  bool emit_listing = false;
  std::size_t max_include_depth = 32;
  std::size_t max_macro_depth = 64;
};

/// One `.INCLUDE` occurrence — the include graph feeds the ADVM
/// abstraction-violation checker (tests must not include global-layer files
/// directly).
struct IncludeEdge {
  std::string from_file;  ///< normalised path of the including file
  std::string to_file;    ///< normalised path of the included file
  support::SourceLoc loc;
};

struct AssembleResult {
  ObjectFile object;
  std::vector<IncludeEdge> includes;
  /// Include paths probed and found missing before each include resolved
  /// (in probe order: sibling directory first, then the search path). If
  /// one of these files is created later it shadows the recorded
  /// resolution — the object cache revalidates entries against this set.
  std::vector<std::string> probed_misses;
  std::string listing;  ///< populated when options.emit_listing
};

/// FNV-1a fingerprint of everything in AssemblerOptions that can change an
/// assembly's output (include path order, predefines, limits).
[[nodiscard]] std::uint64_t options_fingerprint(
    const AssemblerOptions& options);

/// The include memo (see the file comment). Thread-safe: one memo serves
/// every Assembler of a process, on any number of threads.
class IncludeMemo {
 public:
  /// The whole effect of one eligible include on the assembler's state.
  struct Effect {
    std::map<std::string, std::int64_t, std::less<>> equates;
    std::map<std::string, std::vector<Token>, std::less<>> defines;
    std::vector<IncludeEdge> includes;  ///< nested edges, in order
    std::vector<std::string> probed_misses;
    /// Every file the include read (itself first) with its content then.
    std::vector<std::pair<std::string, std::string>> files;
  };

  /// The recorded effect of the include at `path` under options with
  /// `options_digest`, if one is held and still valid against `vfs`.
  [[nodiscard]] std::shared_ptr<const Effect> lookup(
      const support::VirtualFileSystem& vfs, const std::string& path,
      std::uint64_t options_digest);
  /// Records (or replaces) the effect of the include at `path`.
  void remember(const std::string& path, std::uint64_t options_digest,
                Effect effect);

  [[nodiscard]] std::size_t size() const;  ///< entries held
  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::pair<std::string, std::uint64_t>,
           std::shared_ptr<const Effect>>
      entries_;
  std::atomic<std::uint64_t> hits_{0};
};

/// Assembles one translation unit (a top-level file plus everything it
/// includes) into an object file.
class Assembler {
 public:
  /// `memo`, when given, serves and records eligible includes; the output
  /// is the same with or without it.
  Assembler(const support::VirtualFileSystem& vfs,
            support::DiagnosticEngine& diags, AssemblerOptions options,
            IncludeMemo* memo = nullptr);
  ~Assembler();

  Assembler(const Assembler&) = delete;
  Assembler& operator=(const Assembler&) = delete;

  /// Assembles the file at `path` in the VFS. Returns nullopt if any error
  /// diagnostic was produced.
  [[nodiscard]] std::optional<AssembleResult> assemble_file(
      std::string_view path);

  /// Assembles an in-memory buffer under a synthetic name. Includes are
  /// resolved against options.include_dirs only.
  [[nodiscard]] std::optional<AssembleResult> assemble_source(
      std::string_view name, std::string_view source);

  /// Include edges gathered by the most recent *failed* assemble_* call
  /// (on success they move into the AssembleResult and this is empty).
  /// Lets callers name the include that introduced a build failure.
  [[nodiscard]] const std::vector<IncludeEdge>& last_includes() const;

  /// Probed-but-missing include paths of the most recent *failed*
  /// assemble_* call (successful calls move them into the AssembleResult).
  [[nodiscard]] const std::vector<std::string>& last_probed_misses() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace advm::assembler
