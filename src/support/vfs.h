// In-memory virtual file system.
//
// ADVM test environments are *trees of assembler source files* (paper
// Figs 3 and 5). Building, mutating and porting those trees thousands of
// times per benchmark run would thrash the host filesystem, so environments
// live in a VirtualFileSystem and are only materialised to disk on demand
// (see advm::DirectoryMaterializer). The VFS is also what gives release
// labels (paper §3) their snapshot semantics: a label is a content hash of a
// subtree, and a frozen regression reads through the snapshot, not the
// mutable tree.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace advm::support {

/// Normalises a VFS path: collapses "//", resolves "." and "..", strips any
/// trailing slash, and guarantees a single leading '/'.
[[nodiscard]] std::string normalize_path(std::string_view path);

/// Returns the parent directory of a normalised path ("/" for top level).
[[nodiscard]] std::string parent_path(std::string_view path);

/// Returns the last component of a normalised path.
[[nodiscard]] std::string base_name(std::string_view path);

/// Joins two path fragments with exactly one '/'.
[[nodiscard]] std::string join_path(std::string_view a, std::string_view b);

/// A flat, ordered, in-memory file store keyed by normalised absolute paths.
/// Directories are implicit (a directory exists iff some file lies under it),
/// matching how the assembler and environment generators use paths.
class VirtualFileSystem {
 public:
  /// Creates or overwrites a file.
  void write(std::string_view path, std::string content);

  /// Reads a file; nullopt if absent.
  [[nodiscard]] std::optional<std::string> read(std::string_view path) const;

  /// Reads a file that must exist; throws std::out_of_range otherwise.
  [[nodiscard]] const std::string& read_required(std::string_view path) const;

  [[nodiscard]] bool exists(std::string_view path) const;

  /// True if at least one file lies strictly under `dir`.
  [[nodiscard]] bool dir_exists(std::string_view dir) const;

  /// Removes a file; returns whether anything was removed.
  bool remove(std::string_view path);

  /// Removes every file under `dir`; returns the number removed.
  std::size_t remove_tree(std::string_view dir);

  /// All file paths under `dir` (recursive), sorted.
  [[nodiscard]] std::vector<std::string> list_tree(std::string_view dir) const;

  /// Immediate children of `dir`: files and (implicit) subdirectory names,
  /// sorted, without duplicates. Directory entries carry a trailing '/'.
  [[nodiscard]] std::vector<std::string> list_dir(std::string_view dir) const;

  /// Deep-copies a subtree to another prefix (used by release snapshots).
  void copy_tree(std::string_view from_dir, std::string_view to_dir);

  /// Copies a subtree into another VFS (snapshot isolation).
  void export_tree(std::string_view dir, VirtualFileSystem& dest,
                   std::string_view dest_dir) const;

  /// Sum of content sizes in bytes (metric for the substrate bench).
  [[nodiscard]] std::size_t total_bytes() const;

 private:
  std::map<std::string, std::string, std::less<>> files_;
};

}  // namespace advm::support
