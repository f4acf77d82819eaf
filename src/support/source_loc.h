// Source locations for assembler diagnostics.
//
// Every token, directive and diagnostic in the ADVM toolchain carries a
// SourceLoc so that errors in generated test environments can be traced back
// to the exact file and line of the offending assembler source — essential
// when the abstraction layer expands includes and macros (paper §4).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace advm::support {

/// A source file name, interned for the life of the process. Making one
/// from a string looks the name up in a process-wide table (thread-safe)
/// and keeps a pointer to the table's copy, which is never freed: copying a
/// SourceName copies that pointer, and it stays readable after the buffer,
/// VFS or string it was made from is gone. Equal names share one copy, so
/// comparing two compares pointers.
class SourceName {
 public:
  SourceName() = default;  ///< the empty name
  // Implicit, like the std::string member this type replaces.
  SourceName(std::string_view name);  // NOLINT(google-explicit-constructor)
  SourceName(const std::string& name)  // NOLINT(google-explicit-constructor)
      : SourceName(std::string_view(name)) {}
  SourceName(const char* name)  // NOLINT(google-explicit-constructor)
      : SourceName(std::string_view(name)) {}

  [[nodiscard]] const std::string& str() const;

  friend bool operator==(SourceName a, SourceName b) {
    return a.name_ == b.name_;
  }

 private:
  const std::string* name_ = nullptr;  ///< null for the empty name
};

/// A position inside a named source buffer (1-based line/column). Copying
/// one never allocates.
struct SourceLoc {
  SourceName file;  ///< VFS path or synthetic name ("<generated:...>")
  std::uint32_t line = 0;
  std::uint32_t column = 0;

  [[nodiscard]] bool valid() const { return line != 0; }

  /// "file:line:col" — the conventional compiler-style rendering.
  [[nodiscard]] std::string to_string() const {
    if (!valid()) return "<unknown>";
    return file.str() + ":" + std::to_string(line) + ":" +
           std::to_string(column);
  }

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

}  // namespace advm::support
