// Regression runner: builds and executes every test cell of a system
// verification environment on a chosen (derivative, platform) pair.
//
// Discovery is directory-driven (paper Figs 3/5): anything under the system
// root with a TESTPLAN.TXT is a module environment; each subdirectory with
// a test.asm is a test cell; an Abstraction_Layer/ directory marks the ADVM
// methodology. Because discovery reads the tree — not some side table — a
// frozen release snapshot (paper §3) regresses exactly like the live tree.
//
// This header is the one place that knows the tree and how a test cell is
// built: every verb (run, matrix, release, lint, check, port, random)
// finds environments and cells through discover_environments and
// discover_tests, and every verb that builds a cell does it through
// prepare_environment and link_cell.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "advm/boardpool.h"
#include "advm/objcache.h"
#include "asm/linker.h"
#include "sim/machine.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "soc/simctrl.h"
#include "support/diagnostics.h"
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
  /// Reads of never-written registers and RAM bytes, counted only on
  /// platforms with X-checking (hdl-gate). Outside outcome_digest(); they
  /// never change a verdict.
  std::uint64_t x_register_reads = 0;
  std::uint64_t x_ram_reads = 0;

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
  /// without copying any of them: one link per (test, derivative), the
  /// image shared by every platform cell of that derivative. Boards for
  /// the link+run phase are leased from `boards` (the runner's own pool by
  /// default), so repeated runs reuse reset soc::Board instances instead
  /// of reconstructing them.
  explicit RegressionRunner(const support::VirtualFileSystem& vfs,
                            std::size_t jobs = 1, ObjectCache* cache = nullptr,
                            BoardPool* boards = nullptr)
      : vfs_(vfs),
        jobs_(jobs),
        cache_(cache ? cache : &owned_cache_),
        boards_(boards ? boards : &owned_boards_) {}

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
  /// matrix entry is fanned out over the same worker pool. Each test is
  /// linked once per memory map: every cell whose derivative induces the
  /// same link_options() runs that one image, on its own board, so
  /// derivatives that share a memory map (and their platform cells) share
  /// each test's link. Reports come back in `cells` order, each internally
  /// in discovery order.
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
/// Returns absolute environment directories. Every verb — and the release
/// and port layouts — uses this one function, so they agree on the tree.
[[nodiscard]] std::vector<std::string> discover_environments(
    const support::VirtualFileSystem& vfs, std::string_view system_root);

/// Test-cell discovery for one environment, in deterministic VFS order:
/// every subdirectory with a test.asm except the abstraction layer.
/// Returns cell names relative to `env_dir`.
[[nodiscard]] std::vector<std::string> discover_tests(
    const support::VirtualFileSystem& vfs, std::string_view env_dir);

/// One environment ready to build its test cells: the discovered cells
/// and the half of every cell's build they share. The cell recipe is:
///   - include path: the environment's Abstraction_Layer/ (when present)
///     ahead of the global libraries, so the abstraction layer shadows
///     them;
///   - link order: the test object, then base_functions.asm, the trap
///     library, the embedded software and the common functions — each
///     only when its source exists;
///   - LinkOptions: link_options(derivative), the code and data bases.
/// Shared objects are held by pointer into the cache, so linking a cell
/// never copies them.
struct EnvBuildContext {
  std::string dir;                 ///< absolute environment directory
  std::vector<std::string> tests;  ///< discover_tests(dir)
  assembler::AssemblerOptions asm_options;
  std::vector<std::shared_ptr<const assembler::ObjectFile>> shared_objects;
  /// The first shared library that did not assemble, and its failed
  /// build; the libraries after it are not assembled. Empty when ok().
  std::string failed_library;
  CachedObject failure;

  [[nodiscard]] bool ok() const { return failed_library.empty(); }
  /// The test.asm path of cell `test` (an index into `tests`).
  [[nodiscard]] std::string test_source(std::size_t test) const;
};

/// Discovers the cells of one environment and assembles its shared
/// libraries through `cache` — once per environment, not once per cell.
[[nodiscard]] EnvBuildContext prepare_environment(
    const support::VirtualFileSystem& vfs, std::string_view env_dir,
    std::string_view global_dir, ObjectCache& cache);

/// prepare_environment for every environment under `system_root`, in
/// discovery order, fanned out over `jobs` workers (see parallel_for).
[[nodiscard]] std::vector<EnvBuildContext> prepare_system(
    const support::VirtualFileSystem& vfs, std::string_view system_root,
    std::size_t jobs, ObjectCache& cache);

/// The LinkOptions `spec` induces: its code and data bases. A linked image
/// depends on the derivative through these alone, so the matrix groups
/// cells by them — derivatives with equal link options share one image.
[[nodiscard]] assembler::LinkOptions link_options(
    const soc::DerivativeSpec& spec);

/// Links one cell of `env` — `test_object` first, then the shared objects,
/// all by pointer — with link_options(spec). Any derivative with the same
/// link options gets the same image. nullopt with the reasons in `diags`
/// when the cell does not link.
[[nodiscard]] std::optional<assembler::Image> link_cell(
    const EnvBuildContext& env, const assembler::ObjectFile& test_object,
    const soc::DerivativeSpec& spec, support::DiagnosticEngine& diags);

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
