// Binary-level CFG reconstruction over a linked image.
//
// The static analyzer (`advm lint`) decodes an Image's code segments on the
// fixed 12-byte instruction grid — the same decode the simulator's
// decoded-execution loop performs, but without executing — and computes
// which slots any execution can reach. Roots are the link entry, every
// direct CALL target, and every address-taken code address (an immediate
// operand that lands exactly on the instruction grid: installed IRQ
// handlers, CallAddr-style indirect-call targets, default trap handlers).
// Working on the *linked* image instead of the sources means the analyses
// see exactly the bytes a platform would fetch: relocations are patched,
// section placement is final, and cross-object fall-through is visible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asm/linker.h"
#include "isa/instruction.h"

namespace advm::lint {

/// One 12-byte instruction slot of a code segment.
struct Slot {
  std::uint32_t address = 0;
  std::optional<isa::Instruction> instr;  ///< nullopt → illegal encoding
  std::uint8_t opcode_byte = 0;           ///< raw byte 0 (diagnostics)
  bool zero = false;       ///< all twelve bytes are zero (padding/space)
  bool reachable = false;  ///< some execution path can fetch this slot
};

/// The decoded slots of one placed code segment.
struct CodeRegion {
  std::uint32_t base = 0;
  std::uint32_t size = 0;  ///< bytes; slots cover the full 12-byte words
  std::string source;      ///< object (source file) that emitted the bytes
  std::vector<Slot> slots;

  [[nodiscard]] std::uint32_t end() const { return base + size; }
};

/// (address, name) pairs sorted by address — an attribution table.
using SymbolTable = std::vector<std::pair<std::uint32_t, std::string>>;

/// Code-address → nearest preceding symbol attribution.
struct SymbolRef {
  std::string name;
  std::uint32_t offset = 0;  ///< address − symbol address

  /// "_main" / "_main+0x24".
  [[nodiscard]] std::string to_string() const;
};

struct CodeModel {
  std::vector<CodeRegion> regions;
  std::uint32_t entry = 0;
  /// Function entry addresses discovered during reachability (the link
  /// entry, direct CALL targets, address-taken code addresses), sorted.
  std::vector<std::uint32_t> roots;
  /// (address, name) of every linked symbol that lands inside a code
  /// region, sorted by address — finding attribution.
  SymbolTable symbols;

  /// The slot at exactly `address` (on-grid); nullptr off the grid or
  /// outside every code region.
  [[nodiscard]] const Slot* slot_at(std::uint32_t address) const;
  [[nodiscard]] Slot* slot_at(std::uint32_t address);
  [[nodiscard]] const CodeRegion* region_of(std::uint32_t address) const;
  /// Nearest symbol at or before `address`; nullopt when no code symbol
  /// precedes it.
  [[nodiscard]] std::optional<SymbolRef> symbol_before(
      std::uint32_t address) const;
};

/// Nearest entry of a sorted table at or before `address`; nullopt when
/// none precedes it. CodeModel::symbol_before and the regression runner's
/// stuck-loop note share this attribution.
[[nodiscard]] std::optional<SymbolRef> symbol_before(
    const SymbolTable& symbols, std::uint32_t address);

/// Decodes the image's code segments, discovers function roots and
/// computes reachability. Pure function of the image.
[[nodiscard]] CodeModel build_code_model(const assembler::Image& image);

/// Appends the static intra-procedural flow successors of `slot`:
/// fall-through and direct branch targets. CALL falls through (the callee
/// is a separate function root); RETURN/RETI/HALT and an unconditional
/// indirect JMP end the path. Appended addresses are not guaranteed to
/// have slots (a branch can leave the code image) — callers filter.
void append_flow_successors(const Slot& slot, std::vector<std::uint32_t>* out);

/// The slot addresses of the function rooted at `root`: the closure of
/// append_flow_successors restricted to addresses that have slots, in
/// deterministic discovery order.
[[nodiscard]] std::vector<std::uint32_t> function_addresses(
    const CodeModel& model, std::uint32_t root);

}  // namespace advm::lint
