// The `advm lint` driver: builds each test cell through the one cell
// recipe every verb shares (prepare_environment + link_cell, see
// advm/regression.h; the shared libraries assemble once per environment
// through the ObjectCache), then reconstructs a CodeModel from the linked
// image and runs the dataflow analyses over it. Findings are scoped to
// the cell's own test object (shared library code would otherwise repeat
// its findings once per cell) and attributed back to (environment, test,
// file, address, symbol).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "advm/context.h"
#include "advm/objcache.h"
#include "soc/derivative.h"
#include "support/vfs.h"

namespace advm::core {

/// Emitted when the cell cannot be assembled or linked at all — lint needs
/// a linked image, so a broken build is itself the (only) finding.
inline constexpr const char* kLintUnbuildable = "advm.lint-unbuildable";

struct LintFinding {
  std::string code;         ///< advm.lint-* (see advm/lint/analyses.h)
  std::string environment;  ///< module environment name
  std::string test_id;      ///< test cell name
  /// The cell's test.asm path — or, for a build failure, the environment
  /// library that did not assemble — relative to the system root.
  std::string file;
  std::uint32_t address = 0;  ///< linked code address; 0 for build failures
  std::string symbol;         ///< "_main+0x24"-style attribution; may be ""
  std::string detail;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::size_t cells = 0;  ///< test cells analyzed

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::size_t count(std::string_view code) const;
  [[nodiscard]] std::map<std::string, std::size_t> by_code() const;
};

class Linter {
 public:
  /// `jobs` sizes the worker pool cells are fanned out over (1 = serial,
  /// 0 = one per hardware thread); findings land in discovery order for
  /// any pool size. Objects come from `cache`, so a lint run shares its
  /// assembly phase with any check/run in the same process.
  explicit Linter(const support::VirtualFileSystem& vfs, ObjectCache& cache,
                  std::size_t jobs = 1)
      : vfs_(vfs), cache_(&cache), jobs_(jobs) {}

  /// Session wiring — VFS, cache and jobs policy from the shared context.
  explicit Linter(const SessionContext& ctx)
      : Linter(ctx.vfs, ctx.cache, ctx.jobs) {}

  /// Lints every test cell under a system root (discovery order).
  [[nodiscard]] LintReport lint_system(std::string_view system_root,
                                       const soc::DerivativeSpec& spec);

 private:
  const support::VirtualFileSystem& vfs_;
  ObjectCache* cache_ = nullptr;
  std::size_t jobs_ = 1;
};

/// Human-readable rendering: one line per finding plus a per-code rollup.
[[nodiscard]] std::string format_lint_report(const LintReport& report);

}  // namespace advm::core
