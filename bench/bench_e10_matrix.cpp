// E10 — assemble-once/link-per-cell matrix pipeline vs per-cell rebuilds.
//
// The ADVM premise (paper Fig 2, §2) is that test-layer sources are
// target-neutral: only the link bases and the board differ per derivative.
// The regression matrix therefore needs each translation unit assembled
// once per *process*, not once per *cell*. This harness grows a derivative
// × platform cube over a fixed 48-test system and reports, per cube size:
// the wall-clock of the per-cell rebuild baseline (each cell pays its own
// assembly, the pre-cache behaviour and what N separate `advm run`
// invocations still cost), the wall-clock of the assemble-once matrix
// pipeline, the speedup, and whether every cell's outcome digest matches
// its baseline run — the determinism gate.
//
// The assembly cost of the cached arm is cell-count-independent: its
// wall-clock grows only with the (cheap) link+run work, which is the whole
// point of the two-phase pipeline. A last row times the full cube through
// Session::run — the path `advm matrix` takes — on a cold session cache.
#include <iostream>

#include "advm/environment.h"
#include "advm/objcache.h"
#include "advm/regression.h"
#include "advm/session.h"
#include "asm/assembler.h"
#include "bench_util.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "support/text.h"
#include "support/vfs.h"

using namespace advm;
using namespace advm::core;

namespace {

// 0 = one worker per hardware thread, for both arms — the comparison is
// about assembly work, not pool size.
constexpr std::size_t kJobs = 0;

// Passing tests retire a few hundred instructions; tests of a derivative
// the tree was never ported to can run away to the cap. Both arms share
// this (generous, ~30× headroom) cap so runaway simulation cannot drown
// the build-cost comparison the harness exists to make.
constexpr std::uint64_t kMaxInstructions = 10'000;

/// Source lines fed to the assembler for one cold build of every
/// translation unit (top-level sources plus every resolved include), for
/// the lines/s throughput metric.
std::uint64_t count_assembled_lines(const support::VirtualFileSystem& vfs,
                                    const SystemLayout& layout) {
  std::uint64_t lines = 0;
  ObjectCache cache;
  for (const EnvironmentLayout& env : layout.environments) {
    assembler::AssemblerOptions options;
    if (!env.abstraction_dir.empty()) {
      options.include_dirs.push_back(env.abstraction_dir);
    }
    options.include_dirs.push_back(layout.global_dir);
    for (const TestSpec& test : env.tests) {
      const std::string path = env.dir + "/" + test.id + "/test.asm";
      auto built = cache.assemble(vfs, path, options);
      if (!built.ok()) continue;
      lines += support::count_lines(vfs.read_required(path));
      for (const auto& edge : *built.includes) {
        if (auto content = vfs.read(edge.to_file)) {
          lines += support::count_lines(*content);
        }
      }
    }
  }
  return lines;
}

}  // namespace

int main() {
  bench::banner(
      "E10 — assemble-once/link-per-cell matrix pipeline",
      "48-test ADVM system; derivative × platform cube grows from 1 to 8 "
      "cells.\nBaseline re-assembles per cell; the pipeline assembles each "
      "test exactly once.");

  SessionConfig session_config;
  session_config.jobs = kJobs;
  Session session(std::move(session_config));
  support::VirtualFileSystem& vfs = session.vfs();
  SystemConfig config;
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 15, true},
      {"UART_MODULE", ModuleKind::Uart, 12, true},
      {"NVM_MODULE", ModuleKind::Nvm, 12, true},
      {"TIMER_MODULE", ModuleKind::Timer, 9, true},
  };
  auto layout = build_system(vfs, config, soc::derivative_a());

  // 4 derivatives × 2 platforms, in cube-growth order.
  std::vector<MatrixCell> all_cells;
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    all_cells.push_back({spec, sim::PlatformKind::GoldenModel});
    all_cells.push_back({spec, sim::PlatformKind::RtlSim});
  }

  bench::Table table({"cells", "tests run", "per-cell rebuild ms",
                      "assemble-once ms", "speedup", "digests match"});

  double full_cached_seconds = 0;
  std::size_t full_tests = 0;
  double full_speedup = 0;
  std::vector<RegressionReport> full_reports;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}}) {
    const std::vector<MatrixCell> cells(all_cells.begin(),
                                        all_cells.begin() + n);

    // Baseline arm: every cell is its own cold run and re-assembles the
    // whole tree (a fresh runner per cell = a fresh object cache per cell).
    std::vector<std::uint64_t> baseline_digests;
    bench::Stopwatch baseline_watch;
    for (const MatrixCell& cell : cells) {
      RegressionRunner cold(vfs, kJobs);
      baseline_digests.push_back(
          cold.run_system(layout.root, *cell.spec, cell.platform,
                          kMaxInstructions)
              .outcome_digest());
    }
    const double baseline_ms = baseline_watch.millis();

    // Cached arm: one runner, one assembly phase, n link+run cells.
    RegressionRunner runner(vfs, kJobs);
    bench::Stopwatch cached_watch;
    auto reports = runner.run_matrix(layout.root, cells, kMaxInstructions);
    const double cached_ms = cached_watch.millis();

    bool match = reports.size() == baseline_digests.size();
    std::size_t tests = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      match = match && reports[i].outcome_digest() == baseline_digests[i];
      tests += reports[i].records.size();
    }

    const double speedup = cached_ms > 0 ? baseline_ms / cached_ms : 0;
    table.add_row(n, tests, baseline_ms, cached_ms, speedup,
                  match ? "yes" : "NO");
    if (n == 8) {
      full_cached_seconds = cached_ms / 1e3;
      full_tests = tests;
      full_speedup = speedup;
      full_reports = std::move(reports);
    }
  }
  table.print();
  bench::emit_json("e10_matrix", "scaling", table);

  // The same full cube through the public entry point: Session::run on a
  // cold session cache, which is what `advm matrix` executes. Its outcome
  // digests must match the cached arm's cell for cell.
  {
    MatrixRequest request;
    request.root = layout.root;
    request.platforms = {"golden-model", "hdl-rtl"};
    request.derivatives.clear();  // drop the SC88-A default
    for (std::size_t i = 0; i < full_reports.size();
         i += request.platforms.size()) {
      request.derivatives.push_back(full_reports[i].derivative);
    }
    request.max_instructions = kMaxInstructions;
    bench::Stopwatch watch;
    const MatrixResult result = session.run(request);
    const double session_ms = watch.millis();
    bool match = result.status.ok() &&
                 result.cells.size() == full_reports.size();
    for (std::size_t i = 0; match && i < result.cells.size(); ++i) {
      match = result.cells[i].outcome_digest() ==
              full_reports[i].outcome_digest();
    }
    bench::Table backends({"backend", "wall ms", "digests match"});
    backends.add_row("thread", session_ms, match ? "yes" : "NO");
    backends.print();
    bench::emit_json("e10_matrix", "backends", backends);
  }

  // Throughput metrics for the CI trend gate (tools/bench_trend.py).
  bench::Stopwatch lines_watch;
  const std::uint64_t lines = count_assembled_lines(vfs, layout);
  const double lines_seconds = lines_watch.seconds();
  const double lines_per_s = lines_seconds > 0 ? lines / lines_seconds : 0;
  const double tests_per_s =
      full_cached_seconds > 0 ? full_tests / full_cached_seconds : 0;

  bench::Table throughput({"metric", "value"});
  throughput.add_row("assembler lines/s", lines_per_s);
  throughput.add_row("regression tests/s", tests_per_s);
  throughput.print();
  bench::emit_json("e10_matrix", "throughput", throughput);

  std::cout << "\nclaim: assembly cost is cell-count-independent under the "
               "two-phase pipeline.\nmeasured: 8-cell speedup "
            << full_speedup << "x over per-cell rebuilds (target: >= 2x), "
            << "digests identical.\n";
  return full_speedup >= 2.0 ? 0 : 1;
}
