// Linker: combines object files into a loadable memory image.
//
// Placement model: absolute sections (.ORG) land exactly where they ask;
// relocatable sections are concatenated region by region — "code" sections
// from `code_base` upward, every other section name from `data_base` upward
// (12-byte aligned so instruction words never straddle a section seam).
//
// Besides the image, the linker produces a full symbol cross-reference
// (which object defined each symbol, which objects referenced it). The ADVM
// violation checker (experiment E1) uses that cross-reference to detect
// test-layer code calling global-layer functions directly — the "abuse"
// of the paper's Fig 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "asm/object.h"
#include "support/diagnostics.h"

namespace advm::assembler {

struct LinkOptions {
  std::uint32_t code_base = 0x0000'1000;
  std::uint32_t data_base = 0x0010'0000;
  std::string entry_symbol = "_main";

  bool operator==(const LinkOptions&) const = default;
};

/// A placed, fully patched run of bytes. Carries its provenance (section
/// name and originating object) so image-level consumers — the static
/// analyzer in src/advm/lint/ foremost — can tell code from data and
/// attribute findings to the source file that emitted the bytes.
struct Segment {
  std::uint32_t base = 0;
  std::vector<std::uint8_t> bytes;
  std::string section;  ///< section name ("code", "data", ...)
  std::string source;   ///< object (source file) name that emitted the bytes

  [[nodiscard]] std::uint32_t end() const {
    return base + static_cast<std::uint32_t>(bytes.size());
  }
};

/// Symbol after placement, with cross-reference data.
struct LinkedSymbol {
  std::string name;
  std::uint32_t address = 0;
  std::string defined_in;                  ///< object (source file) name
  std::string section;                     ///< section the symbol lives in
  std::vector<std::string> referenced_by;  ///< objects with relocs against it
};

/// Linked program image.
struct Image {
  std::vector<Segment> segments;
  std::uint32_t entry = 0;
  std::map<std::string, LinkedSymbol, std::less<>> symbols;

  [[nodiscard]] const LinkedSymbol* find_symbol(std::string_view name) const;
  [[nodiscard]] std::size_t total_bytes() const;
};

/// Links the given objects. Returns nullopt and reports diagnostics on
/// duplicate symbols, unresolved references, overlapping placements or a
/// missing entry symbol.
///
/// The pointer form is the primary one: callers that link the same shared
/// objects into many images (the regression matrix links every cached test
/// object against the same base-function/trap/ES objects) pass pointers and
/// never copy an ObjectFile. Pointers must stay valid for the call only.
[[nodiscard]] std::optional<Image> link(
    std::span<const ObjectFile* const> objects, const LinkOptions& options,
    support::DiagnosticEngine& diags);

/// Convenience overload for callers that hold objects by value.
[[nodiscard]] std::optional<Image> link(std::span<const ObjectFile> objects,
                                        const LinkOptions& options,
                                        support::DiagnosticEngine& diags);

}  // namespace advm::assembler
