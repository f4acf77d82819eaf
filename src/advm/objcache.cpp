#include "advm/objcache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/diagnostics.h"
#include "support/hash.h"

namespace advm::core {

using assembler::Assembler;
using assembler::AssemblerOptions;
using assembler::IncludeEdge;
using assembler::ObjectFile;
using assembler::options_fingerprint;

namespace {

/// Digest over the current content of every include an assembly resolved.
/// A regenerated Globals.inc (porting, `advm random`) changes this, which
/// invalidates the entry; a vanished include changes it too.
std::uint64_t deps_digest_of(const support::VirtualFileSystem& vfs,
                             const std::vector<IncludeEdge>* includes) {
  support::Fnv1a h;
  if (includes == nullptr) return h.digest();
  for (const IncludeEdge& edge : *includes) {
    h.update(edge.to_file);
    if (const std::string* content = vfs.find(edge.to_file)) {
      h.update(*content);
    } else {
      h.update(std::uint64_t{0xdeadULL});  // absent ≠ empty
    }
  }
  return h.digest();
}

/// True while every include path that was probed-and-missing at build time
/// is still missing. A hit on such a path means a newly created file now
/// shadows the entry's recorded resolution.
bool probed_misses_still_missing(const support::VirtualFileSystem& vfs,
                                 const std::vector<std::string>* probed) {
  if (probed == nullptr) return true;
  for (const std::string& path : *probed) {
    if (vfs.exists(path)) return false;
  }
  return true;
}

}  // namespace

std::uint64_t ObjectCache::deps_digest(
    const support::VirtualFileSystem& vfs,
    const std::vector<IncludeEdge>* includes) {
  if (includes == nullptr || includes->empty()) {
    return deps_digest_of(vfs, includes);
  }
  std::string key;
  for (const IncludeEdge& edge : *includes) {
    key += edge.to_file;
    key += '\n';
  }
  std::shared_ptr<const DepsDigest> held;
  {
    const std::lock_guard<std::mutex> lock(deps_mutex_);
    if (auto it = deps_memo_.find(key); it != deps_memo_.end()) {
      held = it->second;
    }
  }
  const auto unchanged = [&vfs](const auto& file) {
    const std::string* now = vfs.find(file.first);
    return file.second ? now != nullptr && *now == *file.second
                       : now == nullptr;
  };
  if (held != nullptr &&
      std::all_of(held->files.begin(), held->files.end(), unchanged)) {
    return held->digest;
  }
  auto fresh = std::make_shared<DepsDigest>();
  for (const IncludeEdge& edge : *includes) {
    const std::string* content = vfs.find(edge.to_file);
    fresh->files.emplace_back(edge.to_file,
                              content != nullptr
                                  ? std::optional<std::string>(*content)
                                  : std::nullopt);
  }
  fresh->digest = deps_digest_of(vfs, includes);
  const std::uint64_t digest = fresh->digest;
  const std::lock_guard<std::mutex> lock(deps_mutex_);
  deps_memo_[std::move(key)] = std::move(fresh);
  return digest;
}

CachedObject ObjectCache::assemble(const support::VirtualFileSystem& vfs,
                                   std::string_view path,
                                   const AssemblerOptions& options) {
  const std::string norm = support::normalize_path(path);
  CachedObject out;

  const std::string* source = vfs.find(norm);
  if (source == nullptr) {
    // Uncacheable (there is no content to key on); reproduce the
    // assembler's missing-file diagnostic verbatim.
    misses_.fetch_add(1, std::memory_order_relaxed);
    support::DiagnosticEngine diags;
    Assembler assembler(vfs, diags, options);
    (void)assembler.assemble_file(norm);
    out.error = diags.to_string();
    out.includes = std::make_shared<const std::vector<IncludeEdge>>();
    return out;
  }

  const std::uint64_t options_digest = options_fingerprint(options);
  support::Fnv1a source_hash;
  support::Fnv1a key;
  key.update(norm);
  support::Fnv1a::update_both(source_hash, key, *source);
  key.update(options_digest);
  const std::uint64_t source_digest = source_hash.digest();

  Entry* entry = nullptr;
  {
    // Map nodes never move and entries are never erased, so the pointer
    // stays valid after the map lock is released.
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = &entries_[key.digest()];
  }

  bool persist = false;
  {
    // Entry-level lock: one thread builds, concurrent same-key requests
    // wait and then hit — the counters come out the same for any pool size.
    const std::lock_guard<std::mutex> lock(entry->mutex);
    const bool same_inputs = entry->valid && entry->path == norm &&
                             entry->source_digest == source_digest &&
                             entry->options_digest == options_digest;
    if (same_inputs &&
        deps_digest(vfs, entry->includes.get()) == entry->deps_digest &&
        probed_misses_still_missing(vfs, entry->probed_misses.get())) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      out.object = entry->object;
      out.error = entry->error;
      out.includes = entry->includes;
      out.hit = true;
      return out;
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    if (entry->valid) {  // stale: an include changed underneath the entry
      bytes_.fetch_sub(entry->object_bytes, std::memory_order_relaxed);
      entry->valid = false;
    }

    // Persistent tier: a disk entry under the same key is adopted iff it
    // passes exactly the revalidation an in-memory hit would (same inputs,
    // same include contents, probed misses still missing). One probe per
    // build attempt, under the entry lock — same-key racers then hit.
    if (store_ != nullptr) {
      if (auto stored = store_->load(key.digest());
          stored && stored->path == norm &&
          stored->source_digest == source_digest &&
          stored->options_digest == options_digest) {
        auto includes = std::make_shared<const std::vector<IncludeEdge>>(
            std::move(stored->includes));
        if (deps_digest(vfs, includes.get()) == stored->deps_digest &&
            probed_misses_still_missing(vfs, &stored->probed_misses)) {
          persistent_hits_.fetch_add(1, std::memory_order_relaxed);
          entry->object =
              std::make_shared<const ObjectFile>(std::move(stored->object));
          entry->error.clear();
          entry->includes = std::move(includes);
          entry->probed_misses =
              std::make_shared<const std::vector<std::string>>(
                  std::move(stored->probed_misses));
          entry->object_bytes = entry->object->total_bytes();
          entry->path = norm;
          entry->source_digest = source_digest;
          entry->options_digest = options_digest;
          entry->deps_digest = stored->deps_digest;
          entry->valid = true;
          bytes_.fetch_add(entry->object_bytes, std::memory_order_relaxed);
        }
      }
    }

    if (!entry->valid) {
      support::DiagnosticEngine diags;
      Assembler assembler(vfs, diags, options, &include_memo_);
      auto result = assembler.assemble_file(norm);
      if (result) {
        entry->object =
            std::make_shared<const ObjectFile>(std::move(result->object));
        entry->error.clear();
        entry->includes = std::make_shared<const std::vector<IncludeEdge>>(
            std::move(result->includes));
        entry->probed_misses =
            std::make_shared<const std::vector<std::string>>(
                std::move(result->probed_misses));
        entry->object_bytes = entry->object->total_bytes();
        persist = store_ != nullptr;
      } else {
        entry->object = nullptr;
        entry->error = diags.to_string();
        entry->includes = std::make_shared<const std::vector<IncludeEdge>>(
            assembler.last_includes());
        entry->probed_misses =
            std::make_shared<const std::vector<std::string>>(
                assembler.last_probed_misses());
        entry->object_bytes = 0;
      }
      entry->path = norm;
      entry->source_digest = source_digest;
      entry->options_digest = options_digest;
      entry->deps_digest = deps_digest(vfs, entry->includes.get());
      entry->valid = true;
      bytes_.fetch_add(entry->object_bytes, std::memory_order_relaxed);
    }

    out.object = entry->object;
    out.error = entry->error;
    out.includes = entry->includes;

    // Publish successful builds (not failures: a failure is cheap to
    // reproduce and its diagnostics may embed absolute search paths).
    // Still under the entry lock, so the written payload is stable.
    if (persist && entry->object != nullptr) {
      StoredObject stored;
      stored.path = entry->path;
      stored.source_digest = entry->source_digest;
      stored.options_digest = entry->options_digest;
      stored.deps_digest = entry->deps_digest;
      stored.includes = *entry->includes;
      stored.probed_misses = *entry->probed_misses;
      stored.object = *entry->object;
      if (store_->store(key.digest(), stored)) {
        persistent_stores_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return out;
}

ObjectCacheStats ObjectCache::stats() const {
  ObjectCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.persistent_hits = persistent_hits_.load(std::memory_order_relaxed);
  s.persistent_stores = persistent_stores_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace advm::core
