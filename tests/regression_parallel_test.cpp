// Determinism and coverage tests for the parallel regression executor.
//
// The contract under test: a RegressionRunner with any pool size produces a
// report byte-identical to the serial run — same record order, same
// verdicts, same state digests — because records land in pre-allocated
// slots indexed by discovery order, never by completion order. ADVM's
// revision-controlled regression loop (paper §3) is only trustworthy if a
// faster run can never change the answer. The board pool the workers
// lease from is covered here too, so the TSan lane runs it.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "advm/boardpool.h"
#include "advm/environment.h"
#include "advm/regression.h"
#include "soc/derivative.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using namespace advm::core;

SystemLayout build_test_system(support::VirtualFileSystem& vfs) {
  SystemConfig config;
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 4, true},
      {"UART_MODULE", ModuleKind::Uart, 3, true},
      {"NVM_MODULE", ModuleKind::Nvm, 3, true},
      {"TIMER_MODULE", ModuleKind::Timer, 2, true},
      {"MEM_MODULE", ModuleKind::Memory, 2, true},
  };
  return build_system(vfs, config, soc::derivative_a());
}

// ------------------------------------------------------------ parallel_for --

TEST(ParallelFor, RunsEveryTaskExactlyOnce) {
  for (std::size_t jobs : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                           std::size_t{8}, std::size_t{64}}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_for(hits.size(), jobs,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelFor, ZeroTasksIsANoOp) {
  parallel_for(0, 8, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(ParallelFor, PropagatesTaskExceptions) {
  EXPECT_THROW(parallel_for(16, 4,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

// ------------------------------------------------------------- board pool --

TEST(BoardPool, BoardReturnedOnOneThreadIsLeasedOnAnother) {
  // Both threads stay alive until the second has leased, so their ids
  // differ: the free list belongs to the board's spec value, not to the
  // thread that returned it.
  constexpr auto kPlatform = sim::PlatformKind::GoldenModel;
  BoardPool pool;
  std::latch returned(1);
  std::latch leased(1);
  std::thread first([&] {
    { auto lease = pool.acquire(soc::derivative_a(), kPlatform); }
    returned.count_down();
    leased.wait();
  });
  std::thread second([&] {
    returned.wait();
    { auto lease = pool.acquire(soc::derivative_a(), kPlatform); }
    leased.count_down();
  });
  first.join();
  second.join();
  const BoardPoolStats stats = pool.stats();
  EXPECT_EQ(stats.constructed, 1u);
  EXPECT_EQ(stats.reused, 1u);
}

TEST(BoardPool, EqualSpecValuesShareBoardsAndEditedSpecsNeverDo) {
  constexpr auto kPlatform = sim::PlatformKind::GoldenModel;
  BoardPool pool;
  soc::DerivativeSpec spec = soc::derivative_a();  // mutable local copy
  { auto lease = pool.acquire(spec, kPlatform); }

  // A distinct object with an equal value leases the pooled board.
  const soc::DerivativeSpec twin = spec;
  { auto lease = pool.acquire(twin, kPlatform); }
  EXPECT_EQ(pool.stats().reused, 1u);

  // The same object edited in place describes different hardware: it must
  // never get the board built for the old value.
  spec.page_count += 1;
  {
    auto lease = pool.acquire(spec, kPlatform);
    EXPECT_EQ(lease.board().spec(), spec);
  }
  EXPECT_EQ(pool.stats().constructed, 2u);

  // Restoring the old value gets its board back.
  spec.page_count -= 1;
  {
    auto lease = pool.acquire(spec, kPlatform);
    EXPECT_EQ(lease.board().spec(), soc::derivative_a());
  }
  const BoardPoolStats stats = pool.stats();
  EXPECT_EQ(stats.constructed, 2u);
  EXPECT_EQ(stats.reused, 2u);
}

TEST(BoardPool, StaleKeysAreEvictedWhenTheSpecChangesUnderneath) {
  // The spec object at one address now describes different hardware. The
  // board pooled for the old value stays keyed by that value, so the edited
  // spec is never leased it.
  constexpr auto kPlatform = sim::PlatformKind::GoldenModel;
  BoardPool pool;
  soc::DerivativeSpec spec = soc::derivative_a();  // mutable local copy
  { auto lease = pool.acquire(spec, kPlatform); }

  spec.page_count += 1;
  {
    auto lease = pool.acquire(spec, kPlatform);
    EXPECT_EQ(lease.board().spec(), spec);
  }
  const BoardPoolStats stats = pool.stats();
  EXPECT_EQ(stats.constructed, 2u);
  EXPECT_EQ(stats.reused, 0u);
}

TEST(BoardPool, StaleFreeBoardsAreEvictedEagerlyOnRelease) {
  // A board pooled under the old spec value while a lease built under the
  // new value is still out: once both return, a lease for the new value
  // gets the new board, never its old-value sibling.
  constexpr auto kPlatform = sim::PlatformKind::GoldenModel;
  BoardPool pool;
  soc::DerivativeSpec spec = soc::derivative_a();
  std::optional<BoardPool::Lease> old_lease(pool.acquire(spec, kPlatform));
  spec.page_count += 1;
  std::optional<BoardPool::Lease> new_lease(pool.acquire(spec, kPlatform));

  old_lease.reset();
  new_lease.reset();
  EXPECT_EQ(pool.stats().constructed, 2u);

  {
    auto lease = pool.acquire(spec, kPlatform);
    EXPECT_EQ(lease.board().spec(), spec);
  }
  const BoardPoolStats stats = pool.stats();
  EXPECT_EQ(stats.constructed, 2u);
  EXPECT_EQ(stats.reused, 1u);
}

// ------------------------------------------------- serial/parallel parity --

TEST(ParallelRegression, ByteIdenticalReportAcrossAllDerivatives) {
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    RegressionRunner serial(vfs, 1);
    RegressionRunner parallel(vfs, 8);
    auto serial_report = serial.run_system(layout.root, *spec,
                                           sim::PlatformKind::GoldenModel);
    auto parallel_report = parallel.run_system(layout.root, *spec,
                                               sim::PlatformKind::GoldenModel);

    EXPECT_FALSE(serial_report.records.empty());
    EXPECT_EQ(format_report(serial_report), format_report(parallel_report))
        << spec->name;
    EXPECT_EQ(serial_report.outcome_digest(), parallel_report.outcome_digest())
        << spec->name;
  }
}

TEST(ParallelRegression, OversizedPoolStillDeterministic) {
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  RegressionRunner serial(vfs, 1);
  RegressionRunner flooded(vfs, 128);  // far more workers than test cells
  auto a = serial.run_system(layout.root, soc::derivative_b(),
                             sim::PlatformKind::RtlSim);
  auto b = flooded.run_system(layout.root, soc::derivative_b(),
                              sim::PlatformKind::RtlSim);
  EXPECT_EQ(format_report(a), format_report(b));
}

TEST(ParallelRegression, EnvironmentRunnerMatchesSerial) {
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);
  const std::string global_dir = layout.root + "/" + kGlobalLibrariesDir;
  const std::string env_dir = layout.root + "/PAGE_MODULE";

  RegressionRunner serial(vfs, 1);
  RegressionRunner parallel(vfs, 8);
  auto a = serial.run_environment(env_dir, global_dir, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);
  auto b = parallel.run_environment(env_dir, global_dir, soc::derivative_a(),
                                    sim::PlatformKind::GoldenModel);
  EXPECT_FALSE(a.records.empty());
  EXPECT_EQ(format_report(a), format_report(b));
}

// ------------------------------------------------------------ matrix runs --

TEST(ParallelRegression, MatrixMatchesIndividualRuns) {
  // The cached parallel matrix must be indistinguishable from a cold serial
  // run of every cell, on all four derivatives — the determinism contract
  // of the assemble-once pipeline. Each solo run gets a fresh runner (and
  // thus a cold cache) so its report reflects the same assembly work the
  // matrix run performed once.
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  std::vector<MatrixCell> cells;
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    cells.push_back({spec, sim::PlatformKind::GoldenModel});
    cells.push_back({spec, sim::PlatformKind::Accelerator});
  }

  RegressionRunner runner(vfs, 8);
  auto matrix = runner.run_matrix(layout.root, cells);
  ASSERT_EQ(matrix.size(), cells.size());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    RegressionRunner serial(vfs, 1);
    auto solo = serial.run_system(layout.root, *cells[i].spec,
                                  cells[i].platform);
    EXPECT_EQ(format_report(matrix[i]), format_report(solo))
        << cells[i].spec->name << " cell " << i;
    EXPECT_EQ(matrix[i].outcome_digest(), solo.outcome_digest());
  }
}

/// Every field of a record, detail included (format_report omits it).
std::string render_record(const TestRunRecord& r) {
  std::ostringstream os;
  os << r.environment << "/" << r.test_id << " build_ok=" << r.build_ok
     << " verdict=" << static_cast<int>(r.verdict)
     << " stop=" << static_cast<int>(r.stop) << " instr=" << r.instructions
     << " cyc=" << r.cycles << " digest=" << r.state_digest
     << " modeled=" << r.modeled_seconds << " stuck=" << r.stuck
     << " detail=" << r.detail;
  return os.str();
}

TEST(ParallelRegression, PlatformCellsOfADerivativeShareOneLink) {
  // The matrix links each (test, derivative) once and runs that image on
  // every platform cell of the derivative. Interleaved cells, a test that
  // does not assemble and one that does not link: each report must still
  // match a solo run of its cell record for record, at any pool size, and
  // a build failure reads the same on every platform of a derivative.
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);
  vfs.write(layout.root + "/MEM_MODULE/TEST_MEMORY_000/test.asm",
            ".INCLUDE Globals.inc\n_main:\n BOGUS d0, d0\n");
  vfs.write(layout.root + "/UART_MODULE/TEST_UART_000/test.asm",
            ".INCLUDE Globals.inc\n_main:\n CALL Nowhere_To_Be_Found\n");

  const std::vector<MatrixCell> cells = {
      {&soc::derivative_a(), sim::PlatformKind::GoldenModel},
      {&soc::derivative_b(), sim::PlatformKind::GoldenModel},
      {&soc::derivative_a(), sim::PlatformKind::RtlSim},
      {&soc::derivative_b(), sim::PlatformKind::RtlSim},
  };
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RegressionRunner runner(vfs, jobs);
    const auto matrix = runner.run_matrix(layout.root, cells);
    ASSERT_EQ(matrix.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      RegressionRunner serial(vfs, 1);
      const auto solo = serial.run_system(layout.root, *cells[i].spec,
                                          cells[i].platform);
      EXPECT_EQ(format_report(matrix[i]), format_report(solo))
          << "jobs " << jobs << " cell " << i;
      ASSERT_EQ(matrix[i].records.size(), solo.records.size());
      for (std::size_t r = 0; r < solo.records.size(); ++r) {
        EXPECT_EQ(render_record(matrix[i].records[r]),
                  render_record(solo.records[r]))
            << "jobs " << jobs << " cell " << i;
      }
    }

    std::size_t failures = 0;
    for (std::size_t cell : {0, 1}) {  // golden-model vs hdl-rtl
      const auto& golden = matrix[cell].records;
      const auto& rtl = matrix[cell + 2].records;
      for (std::size_t r = 0; r < golden.size(); ++r) {
        if (golden[r].build_ok) continue;
        ++failures;
        EXPECT_FALSE(golden[r].detail.empty());
        EXPECT_FALSE(rtl[r].build_ok);
        EXPECT_EQ(golden[r].detail, rtl[r].detail);
      }
    }
    EXPECT_EQ(failures, 4u) << "two broken cells on two derivatives";
    bool undefined_named = false;
    for (const auto& record : matrix[0].records) {
      undefined_named |=
          record.detail.find("Nowhere_To_Be_Found") != std::string::npos;
    }
    EXPECT_TRUE(undefined_named);
  }
}

TEST(ParallelRegression, CellsWithOneMemoryMapShareOneLink) {
  // The matrix links each test once per memory map: SC88-A and SC88-B
  // induce the same LinkOptions and share an image, while a copy of
  // SC88-A with its code ROM moved must link and run its own. Each report
  // must match a solo run of its cell record for record, at any pool size.
  soc::DerivativeSpec moved = soc::derivative_a();
  moved.name = "SC88-A-MOVED";
  moved.rom_base += 0x1000;
  ASSERT_EQ(link_options(soc::derivative_a()),
            link_options(soc::derivative_b()));
  ASSERT_FALSE(link_options(moved) == link_options(soc::derivative_a()));

  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);
  // The state digest covers registers, not the PC: this test leaves its
  // own code address in a register, so it shows which image ran.
  const std::string placed = "TEST_MEMORY_001";
  vfs.write(layout.root + "/MEM_MODULE/" + placed + "/test.asm",
            ".INCLUDE Globals.inc\n_main:\n LEA a12, _main\n"
            " CALL Base_Report_Pass\n");
  const std::vector<MatrixCell> cells = {
      {&soc::derivative_a(), sim::PlatformKind::GoldenModel},
      {&moved, sim::PlatformKind::GoldenModel},
      {&soc::derivative_b(), sim::PlatformKind::GoldenModel},
      {&soc::derivative_a(), sim::PlatformKind::RtlSim},
      {&moved, sim::PlatformKind::RtlSim},
      {&soc::derivative_b(), sim::PlatformKind::RtlSim},
  };
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    RegressionRunner runner(vfs, jobs);
    const auto matrix = runner.run_matrix(layout.root, cells);
    ASSERT_EQ(matrix.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      RegressionRunner serial(vfs, 1);
      const auto solo = serial.run_system(layout.root, *cells[i].spec,
                                          cells[i].platform);
      EXPECT_EQ(matrix[i].derivative, cells[i].spec->name);
      EXPECT_EQ(format_report(matrix[i]), format_report(solo))
          << "jobs " << jobs << " cell " << i;
      ASSERT_EQ(matrix[i].records.size(), solo.records.size());
      for (std::size_t r = 0; r < solo.records.size(); ++r) {
        EXPECT_EQ(render_record(matrix[i].records[r]),
                  render_record(solo.records[r]))
            << "jobs " << jobs << " cell " << i;
      }
    }

    // The moved map ran an image placed at its own code base.
    for (std::size_t cell : {0, 3}) {  // SC88-A golden-model, hdl-rtl
      const auto& a = matrix[cell].records;
      const auto& m = matrix[cell + 1].records;
      ASSERT_EQ(a.size(), m.size());
      bool placed_seen = false;
      for (std::size_t r = 0; r < a.size(); ++r) {
        ASSERT_TRUE(a[r].build_ok && m[r].build_ok) << a[r].test_id;
        EXPECT_EQ(a[r].verdict, m[r].verdict) << a[r].test_id;
        if (a[r].test_id != placed) continue;
        placed_seen = true;
        EXPECT_EQ(a[r].verdict, soc::Verdict::Pass);
        EXPECT_NE(a[r].state_digest, m[r].state_digest)
            << "the moved map ran SC88-A's image";
      }
      EXPECT_TRUE(placed_seen);
    }
  }
}

TEST(ParallelRegression, WarmRerunIsPureHitsAndDigestStable) {
  // Re-running on the same runner serves every object from the cache —
  // hit/miss counters swap — while the outcome digest must not move.
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  RegressionRunner runner(vfs, 4);
  auto cold = runner.run_system(layout.root, soc::derivative_a(),
                                sim::PlatformKind::GoldenModel);
  auto warm = runner.run_system(layout.root, soc::derivative_a(),
                                sim::PlatformKind::GoldenModel);

  EXPECT_EQ(cold.outcome_digest(), warm.outcome_digest());
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_GT(cold.cache.misses, 0u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.hits, cold.cache.misses);
  EXPECT_EQ(warm.cache.bytes, cold.cache.bytes);
}

TEST(ParallelRegression, AbstractionEditInvalidatesWarmCache) {
  // Porting-style churn regenerates files in place; the warm cache must
  // notice and re-assemble the affected translation units.
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  RegressionRunner runner(vfs, 4);
  auto before = runner.run_system(layout.root, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);

  const std::string globals =
      layout.root + "/PAGE_MODULE/" + kAbstractionLayerDir + "/Globals.inc";
  vfs.write(globals, vfs.read_required(globals) + "\nEXTRA_DEF .EQU 7\n");

  auto after = runner.run_system(layout.root, soc::derivative_a(),
                                 sim::PlatformKind::GoldenModel);
  // PAGE_MODULE units see a changed include → misses; the rest still hit.
  EXPECT_GT(after.cache.misses, 0u);
  EXPECT_GT(after.cache.hits, 0u);
  EXPECT_EQ(after.passed(), before.passed());
}

TEST(ParallelRegression, SharedObjectBuildFailureNamesOffendingInclude) {
  // When a shared object fails to assemble because of a file it included,
  // the BUILD-FAIL detail must carry the include trail naming that file.
  support::VirtualFileSystem vfs;
  auto layout = build_test_system(vfs);

  const std::string abstraction =
      layout.root + "/PAGE_MODULE/" + kAbstractionLayerDir;
  vfs.write(abstraction + "/Broken.inc", " .ERROR \"deliberately broken\"\n");
  vfs.write(abstraction + "/base_functions.asm",
            " .INCLUDE Globals.inc\n .INCLUDE Broken.inc\n");

  RegressionRunner runner(vfs, 2);
  auto report = runner.run_environment(
      layout.root + "/PAGE_MODULE", layout.root + "/" + kGlobalLibrariesDir,
      soc::derivative_a(), sim::PlatformKind::GoldenModel);

  ASSERT_FALSE(report.records.empty());
  for (const auto& record : report.records) {
    EXPECT_FALSE(record.build_ok);
    EXPECT_NE(record.detail.find("include trail"), std::string::npos)
        << record.detail;
    EXPECT_NE(record.detail.find("Broken.inc"), std::string::npos)
        << record.detail;
  }
}

TEST(ParallelRegression, FreshEnvironmentPassesOnItsOwnDerivative) {
  // Each derivative gets an environment generated for it; the parallel
  // matrix run over (its own derivative × golden model) must be all green.
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    support::VirtualFileSystem vfs;
    SystemConfig config;
    config.environments = {
        {"PAGE_MODULE", ModuleKind::Register, 3, true},
        {"UART_MODULE", ModuleKind::Uart, 2, true},
    };
    auto layout = build_system(vfs, config, *spec);

    RegressionRunner runner(vfs, 0);  // one worker per hardware thread
    auto reports = runner.run_matrix(
        layout.root, {{spec, sim::PlatformKind::GoldenModel}});
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].all_passed())
        << spec->name << "\n" << format_report(reports[0]);
  }
}

}  // namespace
