// Content hashing for release labels (paper §3).
//
// A release label freezes the exact content of a test environment; we
// implement that as a 64-bit FNV-1a digest over (path, content) pairs in
// sorted path order. Not cryptographic — collision resistance at the level
// of "did anybody edit a file under this label" is all the methodology needs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace advm::support {

class VirtualFileSystem;

/// Incremental FNV-1a (64-bit).
class Fnv1a {
 public:
  Fnv1a& update(std::string_view bytes);
  Fnv1a& update(std::uint64_t v);
  /// Feeds `bytes` to `a` and to `b` in one pass: the digests of two
  /// update() calls at about the cost of one, as the two chains of
  /// multiplies overlap.
  static void update_both(Fnv1a& a, Fnv1a& b, std::string_view bytes);
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t state_ = kOffset;
};

/// Digest of a single buffer.
[[nodiscard]] std::uint64_t hash_bytes(std::string_view bytes);

/// Digest of every (path, content) pair under `dir`, in sorted path order.
/// Paths are hashed relative to `dir` so that identical trees rooted at
/// different prefixes compare equal.
[[nodiscard]] std::uint64_t hash_tree(const VirtualFileSystem& vfs,
                                      std::string_view dir);

/// Renders a digest as 16 lowercase hex digits (label-friendly).
[[nodiscard]] std::string hash_to_string(std::uint64_t digest);

}  // namespace advm::support
