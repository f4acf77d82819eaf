#include "advm/release.h"

#include "advm/regression.h"
#include "support/hash.h"

namespace advm::core {

using support::join_path;

namespace {
constexpr std::string_view kReleaseRoot = "/releases";
}  // namespace

SystemRelease ReleaseManager::create_system_release(
    const std::string& name, const SystemLayout& layout) {
  SystemRelease release;
  release.name = name;
  release.root = join_path(kReleaseRoot, name);
  vfs_.remove_tree(release.root);

  support::Fnv1a composed;

  // Global libraries snapshot first (they are part of the frozen world).
  {
    ReleaseLabel label;
    label.name = name + "/" + kGlobalLibrariesDir;
    label.source_dir = layout.global_dir;
    label.snapshot_dir = join_path(release.root, kGlobalLibrariesDir);
    vfs_.copy_tree(label.source_dir, label.snapshot_dir);
    label.content_hash = support::hash_tree(vfs_, label.snapshot_dir);
    composed.update(label.name);
    composed.update(label.content_hash);
    release.sub_labels.push_back(std::move(label));
  }

  for (const EnvironmentLayout& env : layout.environments) {
    ReleaseLabel label;
    label.name = name + "/" + env.name;
    label.source_dir = env.dir;
    label.snapshot_dir = join_path(release.root, env.name);
    vfs_.copy_tree(label.source_dir, label.snapshot_dir);
    label.content_hash = support::hash_tree(vfs_, label.snapshot_dir);
    composed.update(label.name);
    composed.update(label.content_hash);
    release.sub_labels.push_back(std::move(label));
  }
  release.composed_hash = composed.digest();
  return release;
}

bool ReleaseManager::verify(const ReleaseLabel& label) const {
  return support::hash_tree(vfs_, label.snapshot_dir) == label.content_hash;
}

bool ReleaseManager::verify(const SystemRelease& release) const {
  // Sub-label tree hashing is the expensive part and each sub-label is
  // independent, so it fans out over the worker pool; the composed hash is
  // then folded serially in label order (its definition is order-sensitive).
  std::vector<std::uint64_t> hashes(release.sub_labels.size());
  parallel_for(release.sub_labels.size(), jobs_, [&](std::size_t i) {
    hashes[i] = support::hash_tree(vfs_, release.sub_labels[i].snapshot_dir);
  });

  support::Fnv1a composed;
  for (std::size_t i = 0; i < release.sub_labels.size(); ++i) {
    const ReleaseLabel& label = release.sub_labels[i];
    if (hashes[i] != label.content_hash) return false;
    composed.update(label.name);
    composed.update(label.content_hash);
  }
  return composed.digest() == release.composed_hash;
}

}  // namespace advm::core
