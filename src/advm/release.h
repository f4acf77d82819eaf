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
// A frozen regression is RegressionRunner::run_system on the snapshot's
// root, so trunk churn on the abstraction layer cannot perturb it —
// experiment E8 demonstrates this and its control arm (running against the
// live tree) failing to be stable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advm/environment.h"
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
  /// `jobs` sizes the worker pool sub-label verification fans out over
  /// (1 = serial, 0 = one per hardware thread).
  explicit ReleaseManager(support::VirtualFileSystem& vfs,
                          std::size_t jobs = 1)
      : vfs_(vfs), jobs_(jobs) {}

  /// Snapshots a whole system environment: one sub-label per module
  /// environment plus one for the global libraries; the composed hash
  /// covers them all. The snapshot lands at /releases/<name>, and `root`
  /// of the result is a system root any RegressionRunner regresses like
  /// the live tree.
  SystemRelease create_system_release(const std::string& name,
                                      const SystemLayout& layout);

  /// True if the snapshot still matches the label's recorded hash (nobody
  /// tampered with the frozen tree).
  [[nodiscard]] bool verify(const ReleaseLabel& label) const;
  [[nodiscard]] bool verify(const SystemRelease& release) const;

 private:
  support::VirtualFileSystem& vfs_;
  std::size_t jobs_ = 1;
};

}  // namespace advm::core
