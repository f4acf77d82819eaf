// Regression runner: builds and executes every test cell of a system
// verification environment on a chosen (derivative, platform) pair.
//
// Discovery is directory-driven (paper Figs 3/5): anything under the system
// root with a TESTPLAN.TXT is a module environment; each subdirectory with
// a test.asm is a test cell; an Abstraction_Layer/ directory marks the ADVM
// methodology. Because discovery reads the tree — not some side table — a
// frozen release snapshot (paper §3) regresses exactly like the live tree.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "advm/boardpool.h"
#include "advm/context.h"
#include "advm/objcache.h"
#include "sim/machine.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "soc/simctrl.h"
#include "support/vfs.h"

namespace advm::core {

struct TestRunRecord {
  std::string environment;
  std::string test_id;
  bool build_ok = false;
  soc::Verdict verdict = soc::Verdict::None;
  sim::StopReason stop = sim::StopReason::Running;
  std::string detail;  ///< diagnostics on build failure; console otherwise
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t state_digest = 0;  ///< architectural state at stop (E4)
  double modeled_seconds = 0.0;
  /// Set when the simulator proved the run stuck in a loop and skipped to
  /// the budget: "stuck polling uart+0x4 at ES_Uart_Send_Byte". Outside
  /// outcome_digest().
  std::string stuck;

  [[nodiscard]] bool passed() const {
    return build_ok && verdict == soc::Verdict::Pass &&
           stop == sim::StopReason::Halted;
  }
};

struct RegressionReport {
  std::string derivative;
  sim::PlatformKind platform = sim::PlatformKind::GoldenModel;
  std::vector<TestRunRecord> records;
  /// Object-cache activity for the run that produced this report:
  /// hits/misses are the run's own requests, bytes the cache footprint
  /// afterwards. Every cell of a matrix run shares one assembly phase, so
  /// every cell's report carries the same (run-wide) numbers.
  ObjectCacheStats cache;

  [[nodiscard]] std::size_t passed() const;
  [[nodiscard]] std::size_t failed() const;
  [[nodiscard]] std::size_t build_failures() const;
  [[nodiscard]] bool all_passed() const;
  [[nodiscard]] std::uint64_t total_instructions() const;
  [[nodiscard]] double total_modeled_seconds() const;

  /// Digest over (test id, verdict, state digest) — two regressions agree
  /// iff this matches. The reproducibility token of experiment E8.
  [[nodiscard]] std::uint64_t outcome_digest() const;
};

/// One (derivative, platform) pair of a regression matrix.
struct MatrixCell {
  const soc::DerivativeSpec* spec = nullptr;
  sim::PlatformKind platform = sim::PlatformKind::GoldenModel;
};

class RegressionRunner {
 public:
  /// `jobs` sizes the worker pool used to execute test cells: 1 (default)
  /// runs serially on the calling thread, 0 means "one per hardware
  /// thread". Whatever the pool size, records land in discovery order, so
  /// reports are byte-identical to a serial run.
  ///
  /// Every run goes through two phases: an assembly phase that builds each
  /// translation unit exactly once into `cache` (the runner's own cache by
  /// default — pass one in to share objects across runners, e.g. between a
  /// regression and a violation check in one process), and a link+run phase
  /// that executes the (cell × test) cube against the cached objects
  /// without copying any of them. Boards for the link+run phase are leased
  /// from `boards` (the runner's own pool by default), so repeated runs
  /// reuse reset soc::Board instances instead of reconstructing them.
  explicit RegressionRunner(const support::VirtualFileSystem& vfs,
                            std::size_t jobs = 1, ObjectCache* cache = nullptr,
                            BoardPool* boards = nullptr)
      : vfs_(vfs),
        jobs_(jobs),
        cache_(cache ? cache : &owned_cache_),
        boards_(boards ? boards : &owned_boards_) {}

  /// Session wiring: every resource (VFS, cache, board pool, jobs policy)
  /// comes from the shared context.
  explicit RegressionRunner(const SessionContext& ctx)
      : RegressionRunner(ctx.vfs, ctx.jobs, &ctx.cache, &ctx.boards) {}

  /// Runs every environment under `system_root`.
  [[nodiscard]] RegressionReport run_system(
      std::string_view system_root, const soc::DerivativeSpec& spec,
      sim::PlatformKind platform,
      std::uint64_t max_instructions = 2'000'000);

  /// Runs a single module environment (global libraries at `global_dir`).
  [[nodiscard]] RegressionReport run_environment(
      std::string_view env_dir, std::string_view global_dir,
      const soc::DerivativeSpec& spec, sim::PlatformKind platform,
      std::uint64_t max_instructions = 2'000'000);

  /// Runs the full derivative × platform matrix over one system tree.
  /// Environment builds are shared across cells (they are target-neutral by
  /// construction — that is the ADVM premise), and every test cell of every
  /// matrix entry is fanned out over the same worker pool. Reports come
  /// back in `cells` order, each internally in discovery order.
  [[nodiscard]] std::vector<RegressionReport> run_matrix(
      std::string_view system_root, const std::vector<MatrixCell>& cells,
      std::uint64_t max_instructions = 2'000'000);

 private:
  const support::VirtualFileSystem& vfs_;
  std::size_t jobs_ = 1;
  ObjectCache owned_cache_;
  ObjectCache* cache_ = nullptr;
  BoardPool owned_boards_;
  BoardPool* boards_ = nullptr;
};

/// Environment discovery under a system root, in deterministic VFS order:
/// every directory with a TESTPLAN.TXT except the global libraries.
/// Returns absolute environment directories. The runner and the lint
/// driver use this one function, so every verb agrees on the tree.
[[nodiscard]] std::vector<std::string> discover_environments(
    const support::VirtualFileSystem& vfs, std::string_view system_root);

/// Test-cell discovery for one environment, in deterministic VFS order:
/// every subdirectory with a test.asm except the abstraction layer.
/// Returns cell names relative to `env_dir`.
[[nodiscard]] std::vector<std::string> discover_tests(
    const support::VirtualFileSystem& vfs, std::string_view env_dir);

/// Runs `count` independent tasks on `jobs` worker threads (0 → one per
/// hardware thread; ≤1 → inline on the caller). Tasks are claimed from an
/// atomic cursor, so any task graph whose outputs are indexed by task id is
/// deterministic regardless of pool size. Exceptions thrown by a task are
/// rethrown on the caller after all workers drain.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& task);

/// Renders a human-readable summary table of a regression report.
[[nodiscard]] std::string format_report(const RegressionReport& report);

}  // namespace advm::core
