// advm::Session — the one abstraction layer over the toolchain itself.
//
// The paper's point is that a single abstraction layer serves every
// derivative and every change scenario; the toolchain deserves the same
// treatment. A Session owns the resources every operation needs — the
// VirtualFileSystem the environments live in, the derivative registry, the
// shared content-addressed ObjectCache, the soc::Board pool and the
// thread-pool size — and exposes one typed request/result pair per verb:
//
//   BuildRequest   → BuildResult     generate a system environment (init)
//   RunRequest     → RunResult       regression on one (derivative, platform)
//   MatrixRequest  → MatrixResult    derivative × platform cube + roll-up
//   PortRequest    → PortResult      retarget the tree in place
//   CheckRequest   → CheckResult     abstraction-violation report
//   LintRequest    → LintResult      binary-level dataflow analysis (lint)
//   ReleaseRequest → ReleaseResult   frozen snapshot + verify + regression
//   RandomRequest  → RandomResult    randomized Globals.inc regeneration
//
// Callers construct a request struct and call `session.run(request)`;
// validation comes back as a typed Status instead of subsystem wiring
// errors. Every verb validates through one preamble, in one order: the
// session config, the derivative(s), the platform(s), the verb's own
// check, then that the tree holds at least one environment (init, which
// creates the tree, skips the last). Every operation in one process
// shares one cache and one board pool *by construction*.
//
// `run`, `matrix` and `release` all regress through one RegressionRunner
// over the Session's cache and board pool (`release` on its snapshot's
// root), so every record comes from core::run_cell within the one
// soc::kInstructionBudget.
//
// SessionConfig holds exactly what a caller can set from the CLI or the
// daemon: the worker-pool size and the persistent cache directory. The
// object cache and the board pool are unbounded for the Session's life,
// and release snapshots land under /releases in the VFS.
//
// Every result serializes to stable JSON through src/advm/report.h, which
// is what `advm --format json` prints for machine consumers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "advm/boardpool.h"
#include "advm/environment.h"
#include "advm/lint/lint.h"
#include "advm/objcache.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "advm/release.h"
#include "advm/violations.h"
#include "soc/board.h"
#include "support/vfs.h"

namespace advm::core {

/// Outcome of request validation/execution. `code` is a stable
/// machine-readable identifier ("advm.unknown-derivative", ...); empty
/// means success. `message` is the human-readable diagnostic.
struct Status {
  std::string code;
  std::string message;

  [[nodiscard]] bool ok() const { return code.empty(); }
  [[nodiscard]] static Status error(std::string code, std::string message) {
    Status s;
    s.code = std::move(code);
    s.message = std::move(message);
    return s;
  }
};

// --------------------------------------------------------------- requests --

/// `init`: generate the canonical five-module system verification
/// environment in the session VFS, `tests_per_module` tests each.
struct BuildRequest {
  /// Upper bound request validation enforces on tests_per_module (a
  /// typo'd --tests must fail typed, not exhaust memory generating it).
  static constexpr std::size_t kMaxTestsPerModule = 10'000;

  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::size_t tests_per_module = 5;
};

struct BuildResult {
  Status status;
  std::string derivative;  ///< resolved spec name
  SystemLayout layout;
  std::size_t files = 0;  ///< files in the generated tree
  std::size_t tests = 0;  ///< test cells across all environments
};

/// `run`: full regression of the tree under `root` on one
/// (derivative, platform) pair.
struct RunRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::string platform = "golden-model";
};

struct RunResult {
  Status status;
  RegressionReport report;
};

/// `matrix`: the derivative × platform cube over one tree — every test
/// assembles once, every cell links against the shared cache.
struct MatrixRequest {
  std::string root = "/SYS";
  std::vector<std::string> derivatives = {"SC88-A"};
  std::vector<std::string> platforms = {"golden-model"};
  /// Not a setting: every run uses soc::kInstructionBudget. Kept as a
  /// member only because perfbench/replay.cpp reads
  /// `MatrixRequest{}.max_instructions`.
  static constexpr std::uint64_t max_instructions = soc::kInstructionBudget;
};

struct MatrixResult {
  Status status;
  std::vector<RegressionReport> cells;  ///< derivative-major order

  [[nodiscard]] bool all_passed() const;
};

/// `port`: retarget the tree in place to another derivative (abstraction
/// layer regenerates; ADVM test layers stay untouched).
struct PortRequest {
  std::string root = "/SYS";
  std::string to;
};

struct PortResult {
  Status status;
  std::string target;
  RepairReport repair;
};

/// `check`: abstraction-violation report for the tree under `root`.
struct CheckRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
};

struct CheckResult {
  Status status;
  ViolationReport report;
};

/// `lint`: binary-level dataflow analysis of every test cell under
/// `root` — each cell is built with the cell recipe every verb shares
/// (advm/regression.h), then the linked image's CFG is analyzed (see
/// advm/lint/analyses.h).
struct LintRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
};

struct LintResult {
  Status status;
  LintReport report;
};

/// `release`: freeze the tree as a content-hashed snapshot (the paper's
/// §3 label), verify it and regress the frozen copy.
struct ReleaseRequest {
  std::string root = "/SYS";
  std::string name = "R1";
  std::string derivative = "SC88-A";
  std::string platform = "golden-model";
};

struct ReleaseResult {
  Status status;
  SystemRelease release;
  bool verified = false;
  RegressionReport frozen;  ///< the frozen copy's regression
};

/// `random`: regenerate every ADVM environment's Globals.inc from a
/// seeded constraint randomization (corner-case focus, paper §4).
struct RandomRequest {
  std::string root = "/SYS";
  std::string derivative = "SC88-A";
  std::uint64_t seed = 1;
};

struct RandomResult {
  Status status;
  std::uint64_t seed = 0;  ///< the seed the assignment was drawn from
  std::size_t regenerated = 0;  ///< Globals.inc instances rewritten
  std::map<std::string, std::int64_t> values;  ///< randomized defines
};

// ---------------------------------------------------------------- session --

/// The settings `advm` and `advm serve` fill from --jobs and --cache-dir.
struct SessionConfig {
  /// Worker-pool size for every operation: 1 = serial, 0 = one worker per
  /// hardware thread. Values above kMaxJobs fail request validation.
  std::size_t jobs = 1;
  /// Persistent object-cache directory; empty = in-memory cache only.
  /// Consecutive sessions (and CLI invocations) pointed at the same
  /// directory share one cache by construction.
  std::string cache_dir;

  /// Upper bound request validation enforces (guards against a typo'd
  /// --jobs silently fanning out the whole machine).
  static constexpr std::size_t kMaxJobs = 1'000'000;

  /// Pool-size sanity, applied by every verb: an absurd value fails as a
  /// typed Status, never fans out across the machine.
  [[nodiscard]] Status validate() const;
};

class Session {
 public:
  explicit Session(SessionConfig config = {})
      : config_(std::move(config)), cache_(config_.cache_dir) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] support::VirtualFileSystem& vfs() { return vfs_; }
  [[nodiscard]] const support::VirtualFileSystem& vfs() const { return vfs_; }
  [[nodiscard]] ObjectCache& cache() { return cache_; }
  [[nodiscard]] BoardPool& boards() { return boards_; }

  [[nodiscard]] BuildResult run(const BuildRequest& request);
  [[nodiscard]] RunResult run(const RunRequest& request);
  [[nodiscard]] MatrixResult run(const MatrixRequest& request);
  [[nodiscard]] PortResult run(const PortRequest& request);
  [[nodiscard]] CheckResult run(const CheckRequest& request);
  [[nodiscard]] LintResult run(const LintRequest& request);
  [[nodiscard]] ReleaseResult run(const ReleaseRequest& request);
  [[nodiscard]] RandomResult run(const RandomRequest& request);

 private:
  SessionConfig config_;
  support::VirtualFileSystem vfs_;
  ObjectCache cache_;
  BoardPool boards_;
};

}  // namespace advm::core
