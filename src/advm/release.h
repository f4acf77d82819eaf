// Release labels — the paper's §3 revision-control mechanism.
//
// "each module or test class owner will be responsible for releasing a
//  working version of their test environment. Such releases can be
//  controlled by revision control software in the form of a label. ...
//  it is now possible to release an instance of the complete test
//  environment for regressions by creating a label composed of sub-labels
//  for each environment." (paper §3)
//
// A label here is a content-hashed snapshot of an environment subtree.
// Frozen regressions run against the snapshot, so trunk churn on the
// abstraction layer cannot perturb them — experiment E8 demonstrates this
// and its control arm (running against the live tree) failing to be stable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "advm/boardpool.h"
#include "advm/environment.h"
#include "advm/objcache.h"
#include "advm/regression.h"
#include "support/vfs.h"

namespace advm::core {

struct ReleaseLabel {
  std::string name;           ///< e.g. "PAGE_MODULE_R1"
  std::string source_dir;     ///< what was labelled
  std::string snapshot_dir;   ///< frozen copy
  std::uint64_t content_hash = 0;
};

/// A system-level release composed of per-environment sub-labels
/// (plus the global libraries), as the paper prescribes.
struct SystemRelease {
  std::string name;
  std::string root;  ///< usable as a system root for RegressionRunner
  std::vector<ReleaseLabel> sub_labels;
  std::uint64_t composed_hash = 0;
};

class ReleaseManager {
 public:
  /// `jobs` sizes the worker pool that sub-label verification and frozen
  /// regressions fan out over (1 = serial, 0 = one per hardware thread).
  /// Pass `cache`/`boards` to share one object cache and board pool with
  /// other subsystems in the process; by default the manager owns its own
  /// (shared across this manager's frozen regressions either way).
  explicit ReleaseManager(support::VirtualFileSystem& vfs,
                          std::string release_root = "/releases",
                          std::size_t jobs = 1, ObjectCache* cache = nullptr,
                          BoardPool* boards = nullptr)
      : vfs_(vfs),
        release_root_(std::move(release_root)),
        jobs_(jobs),
        cache_(cache ? cache : &owned_cache_),
        boards_(boards ? boards : &owned_boards_) {}

  /// Snapshots a whole system environment: one sub-label per module
  /// environment plus one for the global libraries; the composed hash
  /// covers them all.
  SystemRelease create_system_release(const std::string& name,
                                      const SystemLayout& layout);

  /// True if the snapshot still matches the label's recorded hash (nobody
  /// tampered with the frozen tree).
  [[nodiscard]] bool verify(const ReleaseLabel& label) const;
  [[nodiscard]] bool verify(const SystemRelease& release) const;

  /// Runs the frozen snapshot's full regression on the worker pool. The
  /// manager keeps one object cache across calls, so repeated verifies of
  /// the same (immutable) snapshot reuse every object instead of
  /// re-lexing — the report's cache counters show pure hits from the
  /// second verify on.
  [[nodiscard]] RegressionReport run_frozen(
      const SystemRelease& release, const soc::DerivativeSpec& spec,
      sim::PlatformKind platform, std::uint64_t max_instructions = 2'000'000);

 private:
  support::VirtualFileSystem& vfs_;
  std::string release_root_;
  std::size_t jobs_ = 1;
  ObjectCache owned_cache_;  ///< shared across this manager's regressions
  ObjectCache* cache_ = nullptr;
  BoardPool owned_boards_;
  BoardPool* boards_ = nullptr;
};

}  // namespace advm::core
