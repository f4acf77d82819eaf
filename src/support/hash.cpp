#include "support/hash.h"

#include <array>

#include "support/vfs.h"

namespace advm::support {

Fnv1a& Fnv1a::update(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= kPrime;
  }
  return *this;
}

void Fnv1a::update_both(Fnv1a& a, Fnv1a& b, std::string_view bytes) {
  std::uint64_t sa = a.state_;
  std::uint64_t sb = b.state_;
  for (unsigned char c : bytes) {
    sa = (sa ^ c) * kPrime;
    sb = (sb ^ c) * kPrime;
  }
  a.state_ = sa;
  b.state_ = sb;
}

Fnv1a& Fnv1a::update(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xFF;
    state_ *= kPrime;
  }
  return *this;
}

std::uint64_t hash_bytes(std::string_view bytes) {
  return Fnv1a().update(bytes).digest();
}

std::uint64_t hash_tree(const VirtualFileSystem& vfs, std::string_view dir) {
  std::string prefix = normalize_path(dir);
  if (prefix != "/") prefix += '/';
  Fnv1a h;
  for (const std::string& path : vfs.list_tree(dir)) {
    std::string rel = path.substr(prefix.size());
    h.update(rel);
    h.update(std::uint64_t{0x1F});  // path/content separator
    h.update(vfs.read_required(path));
    h.update(std::uint64_t{0x1E});  // record separator
  }
  return h.digest();
}

std::string hash_to_string(std::uint64_t digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

}  // namespace advm::support
