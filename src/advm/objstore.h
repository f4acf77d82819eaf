// Persistent tier of the content-addressed object cache.
//
// The in-memory ObjectCache dies with its process, so every `advm`
// invocation used to start cold. This store keeps successful cache entries
// on disk, keyed by the same 64-bit content digest the in-memory map uses,
// so consecutive CLI invocations (and concurrently running ones, or a
// restarted `advm serve` daemon) share one cache by construction
// (SessionConfig::cache_dir points them at the same directory).
//
// Entries carry everything revalidation needs — source/options digests, the
// resolved include list, the probed-and-missing include candidates, and the
// deps digest — so a disk hit honours exactly the same staleness rules as
// an in-memory hit (including the search-path shadowing rule).
//
// Concurrency: writers serialise nothing. Each store() writes a private
// temp file in the cache directory and publishes it with an atomic
// rename(2), so a reader either sees a complete entry or none, and two
// workers racing on the same key leave whichever complete entry renamed
// last. Loads verify a magic header, a format version and a trailing
// payload checksum; torn, truncated or foreign files fail closed to a miss.
//
// The store never deletes an entry: the directory grows with every distinct
// key published to it, and removing it (or any entry in it) is always safe.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.h"

namespace advm::core {

/// One cache entry as persisted: the key material the in-memory tier
/// re-verifies on every hit plus the payload it would have built.
struct StoredObject {
  std::string path;
  std::uint64_t source_digest = 0;
  std::uint64_t options_digest = 0;
  std::uint64_t deps_digest = 0;
  std::vector<assembler::IncludeEdge> includes;
  std::vector<std::string> probed_misses;
  assembler::ObjectFile object;
};

/// Serialized image of a StoredObject (exposed for corruption tests).
[[nodiscard]] std::string encode_stored_object(const StoredObject& entry);

/// Inverse of encode_stored_object; nullopt on any structural damage.
[[nodiscard]] std::optional<StoredObject> decode_stored_object(
    std::string_view bytes);

class PersistentObjectStore {
 public:
  /// `dir` is created on first use. All operations are best-effort: I/O
  /// failure degrades to a miss (load) or a skipped write (store) — a
  /// broken cache directory must never fail an assembly.
  explicit PersistentObjectStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Entry file name for a cache key ("<16 hex digits>.advmobj").
  [[nodiscard]] static std::string entry_name(std::uint64_t key);

  [[nodiscard]] std::optional<StoredObject> load(std::uint64_t key) const;

  /// Atomic-rename publish. Returns whether the entry landed.
  bool store(std::uint64_t key, const StoredObject& entry);

 private:
  std::string dir_;
};

}  // namespace advm::core
