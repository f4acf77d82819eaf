// advm::Session — the typed request/result API.
//
// Covers the contract the CLI and the serve daemon rely on: request
// validation comes back as typed Status errors (unknown derivative /
// platform / bad root / absurd jobs), consecutive verbs on one session
// share one object cache and one board pool by construction, matrix cells
// come back derivative-major, two sessions pointed at one cache_dir share
// its persistent tier, and the JSON documents for `run` and `matrix` are
// byte-stable against checked-in goldens (tests/golden/session_*.json —
// the same bytes `advm --format json` prints).
//
// ADVM_GOLDEN_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "advm/regression.h"
#include "advm/report.h"
#include "advm/session.h"
#include "soc/derivative.h"

namespace {

using namespace advm;
using namespace advm::core;

std::string golden(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(ADVM_GOLDEN_DIR) / name;
  EXPECT_TRUE(std::filesystem::exists(path)) << "missing golden " << path;
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The canonical small system: five modules, two tests each, built into
/// the session's VFS at /SYS — the same tree `advm init --tests 2` puts on
/// disk.
BuildResult build_small_system(Session& session) {
  BuildRequest request;
  request.root = "/SYS";
  request.tests_per_module = 2;
  return session.run(request);
}

/// The 2 × 2 cube the matrix ordering and persistence tests run.
MatrixRequest small_cube() {
  MatrixRequest request;
  request.derivatives = {"SC88-A", "SC88-B"};
  request.platforms = {"golden-model", "accelerator"};
  return request;
}

// ------------------------------------------------------ request validation --

TEST(SessionValidation, UnknownDerivativeIsATypedError) {
  Session session;
  RunRequest request;
  request.derivative = "SC99-Z";
  RunResult result = session.run(request);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code, "advm.unknown-derivative");
  EXPECT_NE(result.status.message.find("unknown derivative 'SC99-Z'"),
            std::string::npos);
  EXPECT_NE(result.status.message.find("SC88-A"), std::string::npos);
  EXPECT_TRUE(result.report.records.empty());
}

TEST(SessionValidation, UnknownPlatformIsATypedError) {
  Session session;
  RunRequest request;
  request.platform = "warp-drive";
  RunResult result = session.run(request);
  EXPECT_EQ(result.status.code, "advm.unknown-platform");
  EXPECT_NE(result.status.message.find("unknown platform 'warp-drive'"),
            std::string::npos);
}

TEST(SessionValidation, BadRootIsATypedError) {
  Session session;  // nothing built: /SYS does not exist
  RunRequest run_request;
  EXPECT_EQ(session.run(run_request).status.code, "advm.bad-root");

  MatrixRequest matrix_request;
  EXPECT_EQ(session.run(matrix_request).status.code, "advm.bad-root");

  CheckRequest check_request;
  EXPECT_EQ(session.run(check_request).status.code, "advm.bad-root");

  PortRequest port_request;
  port_request.to = "SC88-C";
  EXPECT_EQ(session.run(port_request).status.code, "advm.bad-root");

  ReleaseRequest release_request;
  EXPECT_EQ(session.run(release_request).status.code, "advm.bad-root");

  RandomRequest random_request;
  EXPECT_EQ(session.run(random_request).status.code, "advm.bad-root");

  LintRequest lint_request;
  EXPECT_EQ(session.run(lint_request).status.code, "advm.bad-root");

  // A tree that exists but holds no environment is refused by every verb
  // alike, and a refused port writes nothing.
  session.vfs().write("/SYS/docs/README", "notes\n");
  EXPECT_EQ(session.run(run_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(matrix_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(check_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(lint_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(port_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(release_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.run(random_request).status.code, "advm.bad-root");
  EXPECT_EQ(session.vfs().list_tree("/SYS"),
            std::vector<std::string>{"/SYS/docs/README"});
}

TEST(SessionValidation, MatrixValidatesEveryAxisName) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());

  MatrixRequest request;
  request.derivatives = {"SC88-A", "SC99-Z"};
  EXPECT_EQ(session.run(request).status.code, "advm.unknown-derivative");

  request.derivatives = {"SC88-A"};
  request.platforms = {"golden-model", "warp-drive"};
  EXPECT_EQ(session.run(request).status.code, "advm.unknown-platform");

  request.platforms = {};
  EXPECT_EQ(session.run(request).status.code, "advm.empty-matrix");
}

TEST(SessionValidation, PortValidatesTargetName) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  PortRequest request;
  request.to = "SC99-Z";
  EXPECT_EQ(session.run(request).status.code, "advm.unknown-derivative");
}

TEST(SessionValidation, JobLimitIsATypedError) {
  {
    SessionConfig config;
    config.jobs = SessionConfig::kMaxJobs + 1;
    Session session(std::move(config));
    EXPECT_EQ(session.run(RunRequest{}).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(MatrixRequest{}).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(BuildRequest{}).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(ReleaseRequest{}).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(CheckRequest{}).status.code, "advm.bad-jobs");
    PortRequest port;
    port.to = "SC88-C";
    EXPECT_EQ(session.run(port).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(RandomRequest{}).status.code, "advm.bad-jobs");
    EXPECT_EQ(session.run(LintRequest{}).status.code, "advm.bad-jobs");
  }
  // jobs = 0 stays legal: it means one worker per hardware thread.
  {
    SessionConfig config;
    config.jobs = 0;
    Session session(std::move(config));
    ASSERT_TRUE(build_small_system(session).status.ok());
    EXPECT_TRUE(session.run(RunRequest{}).status.ok());
  }
}

TEST(SessionValidation, TestsPerModuleLimitIsATypedError) {
  Session session;
  BuildRequest request;
  request.tests_per_module = BuildRequest::kMaxTestsPerModule + 1;
  const BuildResult result = session.run(request);
  EXPECT_EQ(result.status.code, "advm.bad-tests");
  EXPECT_TRUE(session.vfs().list_tree("/SYS").empty());
}

// ------------------------------------------------------------ happy paths --

TEST(Session, BuildRunCheckPortReleaseEndToEnd) {
  Session session;
  BuildResult built = build_small_system(session);
  ASSERT_TRUE(built.status.ok()) << built.status.message;
  EXPECT_EQ(built.derivative, "SC88-A");
  EXPECT_EQ(built.tests, 10u);
  EXPECT_EQ(built.layout.environments.size(), 5u);
  EXPECT_GT(built.files, 0u);

  RunResult run = session.run(RunRequest{});
  ASSERT_TRUE(run.status.ok()) << run.status.message;
  EXPECT_TRUE(run.report.all_passed()) << format_report(run.report);

  CheckResult check = session.run(CheckRequest{});
  ASSERT_TRUE(check.status.ok());
  EXPECT_TRUE(check.report.clean());

  PortRequest port_request;
  port_request.to = "SC88-C";
  PortResult ported = session.run(port_request);
  ASSERT_TRUE(ported.status.ok());
  EXPECT_EQ(ported.target, "SC88-C");
  // The ADVM claim, through the typed API: no test file touched.
  EXPECT_EQ(ported.repair.test_layer.files_touched(), 0u);
  EXPECT_GT(ported.repair.abstraction_layer.files_touched(), 0u);

  RunRequest rerun_request;
  rerun_request.derivative = "SC88-C";
  RunResult rerun = session.run(rerun_request);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_TRUE(rerun.report.all_passed()) << format_report(rerun.report);

  ReleaseRequest release_request;
  release_request.derivative = "SC88-C";
  ReleaseResult released = session.run(release_request);
  ASSERT_TRUE(released.status.ok()) << released.status.message;
  EXPECT_TRUE(released.verified);
  EXPECT_TRUE(released.frozen.all_passed());
  EXPECT_EQ(released.release.sub_labels.size(), 6u);  // 5 envs + globals
}

TEST(Session, UnportedUartTestIsReportedStuckOutsideTheDigest) {
  // The SC88-A corpus on SC88-C without a port: the UART tests poll the v1
  // TX_READY bit of a v2 STATUS word forever. The simulator proves the
  // loop stuck, and the record says where and on what.
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  RunRequest request;
  request.derivative = "SC88-C";
  RunResult result = session.run(request);
  ASSERT_TRUE(result.status.ok()) << result.status.message;

  std::size_t stuck = 0;
  for (const TestRunRecord& r : result.report.records) {
    if (r.stuck.empty()) continue;
    ++stuck;
    EXPECT_EQ(r.environment, "UART_MODULE");
    EXPECT_EQ(r.stop, sim::StopReason::CycleLimit);
    EXPECT_EQ(r.instructions, request.max_instructions);
    EXPECT_EQ(r.stuck, "stuck polling uart+0x4 at ES_Uart_Send_Byte");
  }
  EXPECT_EQ(stuck, 2u) << format_report(result.report);

  const std::string text = format_report(result.report);
  EXPECT_NE(text.find("cyc; stuck polling uart+0x4 at ES_Uart_Send_Byte)"),
            std::string::npos)
      << text;
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"stuck\":\"stuck polling uart+0x4 at "
                      "ES_Uart_Send_Byte\""),
            std::string::npos);
  // Only the stuck records carry the key.
  std::size_t keys = 0;
  for (std::size_t at = json.find("\"stuck\":"); at != std::string::npos;
       at = json.find("\"stuck\":", at + 1)) {
    ++keys;
  }
  EXPECT_EQ(keys, 2u);

  // The note is diagnostics, not outcome: the digest ignores it.
  RegressionReport cleared = result.report;
  for (TestRunRecord& r : cleared.records) r.stuck.clear();
  EXPECT_EQ(cleared.outcome_digest(), result.report.outcome_digest());
}

TEST(Session, GateSimXReadsReachTheRecordOutsideTheDigest) {
  // One cell reads d2/d3 before anything writes them. hdl-gate checks for
  // X propagation and counts the reads on that cell's record; golden-model
  // does not check, so its documents carry no X key at all.
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  const std::string cell = "/SYS/PAGE_MODULE/TEST_REGISTER_000/test.asm";
  ASSERT_TRUE(session.vfs().exists(cell));
  session.vfs().write(cell,
                      ".INCLUDE Globals.inc\n"
                      "_main:\n"
                      " ADD d1, d2, d3          ; d2/d3 never written\n"
                      " CALL Base_Report_Pass\n");

  RunRequest gate_request;
  gate_request.platform = "hdl-gate";
  const RunResult gate = session.run(gate_request);
  ASSERT_TRUE(gate.status.ok()) << gate.status.message;
  const RunResult golden = session.run(RunRequest{});
  ASSERT_TRUE(golden.status.ok()) << golden.status.message;
  ASSERT_EQ(gate.report.records.size(), golden.report.records.size());

  const TestRunRecord* seeded = nullptr;
  for (std::size_t i = 0; i < gate.report.records.size(); ++i) {
    const TestRunRecord& r = gate.report.records[i];
    EXPECT_EQ(r.verdict, golden.report.records[i].verdict) << r.test_id;
    if (r.test_id == "TEST_REGISTER_000") seeded = &r;
  }
  ASSERT_NE(seeded, nullptr);
  EXPECT_TRUE(seeded->passed()) << seeded->detail;
  EXPECT_GE(seeded->x_register_reads, 2u);

  const std::string json = to_json(gate);
  EXPECT_NE(json.find("\"x_register_reads\":" +
                      std::to_string(seeded->x_register_reads)),
            std::string::npos)
      << json;
  EXPECT_NE(format_report(gate.report)
                .find(std::to_string(seeded->x_register_reads) +
                      " X register reads)"),
            std::string::npos)
      << format_report(gate.report);

  const std::string golden_json = to_json(golden);
  EXPECT_EQ(golden_json.find("\"x_register_reads\""), std::string::npos);
  EXPECT_EQ(golden_json.find("\"x_ram_reads\""), std::string::npos);
  EXPECT_EQ(format_report(golden.report).find(" X "), std::string::npos);

  // The counts are diagnostics, not outcome: the digest ignores them.
  RegressionReport cleared = gate.report;
  for (TestRunRecord& r : cleared.records) {
    r.x_register_reads = 0;
    r.x_ram_reads = 0;
  }
  EXPECT_EQ(cleared.outcome_digest(), gate.report.outcome_digest());
}

TEST(Session, RandomRegeneratesEveryAdvmEnvironment) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  RandomRequest request;
  request.seed = 7;
  RandomResult result = session.run(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.seed, 7u);
  EXPECT_EQ(result.regenerated, 5u);
  EXPECT_TRUE(result.values.count(GlobalDefineNames::kTest1TargetPage));

  // The regenerated tree still regresses green (constraints are legal).
  RunResult run = session.run(RunRequest{});
  ASSERT_TRUE(run.status.ok());
  EXPECT_TRUE(run.report.all_passed()) << format_report(run.report);
}

// ----------------------------------------------- shared cache, shared pool --

TEST(Session, EveryVerbAgreesOnTheTree) {
  Session session;
  const BuildResult built = build_small_system(session);
  ASSERT_TRUE(built.status.ok());
  support::VirtualFileSystem& vfs = session.vfs();
  // Every cell gets an undefined-register read (a lint finding) and a
  // hardwired device value (a check violation), so lint and check both
  // name each cell they visit.
  const std::string seeded =
      ".INCLUDE Globals.inc\n"
      "DEVICE .EQU 0x12345\n"
      "_main:\n"
      " MOV d1, d3\n"
      " CALL Base_Report_Pass\n";
  for (const EnvironmentLayout& env : built.layout.environments) {
    for (const TestSpec& test : env.tests) {
      vfs.write(env.dir + "/" + test.id + "/test.asm", seeded);
    }
  }
  // Decoys: a stray directory (no TESTPLAN.TXT) holding a test cell, an
  // environment with no tests, and a test directory without a test.asm.
  vfs.write("/SYS/docs/notes.txt", "draft\n");
  vfs.write("/SYS/docs/TEST_DOC/test.asm", seeded);
  vfs.write("/SYS/EMPTY_MODULE/TESTPLAN.TXT", "no tests yet\n");
  vfs.write("/SYS/MEM_MODULE/TEST_NO_SOURCE/notes.txt", "todo\n");

  const RunResult run = session.run(RunRequest{});
  const LintResult lint = session.run(LintRequest{});
  const CheckResult check = session.run(CheckRequest{});
  const ReleaseResult release = session.run(ReleaseRequest{});
  ASSERT_TRUE(run.status.ok() && lint.status.ok() && check.status.ok() &&
              release.status.ok());

  std::set<std::string> run_cells;
  for (const TestRunRecord& r : run.report.records) {
    run_cells.insert(r.environment + "/" + r.test_id);
  }
  std::set<std::string> lint_cells;
  for (const LintFinding& f : lint.report.findings) {
    lint_cells.insert(f.environment + "/" + f.test_id);
  }
  std::set<std::string> check_cells;
  for (const Violation& v : check.report.violations) {
    if (v.code != "advm.hardwired-magic") continue;
    // "/SYS/<environment>/<test>/test.asm"
    check_cells.insert(v.file.substr(5, v.file.size() - 5 - 9));
  }
  EXPECT_EQ(run_cells.size(), 10u);
  EXPECT_EQ(run.report.records.size(), run_cells.size());
  EXPECT_EQ(lint.report.cells, run_cells.size());
  EXPECT_EQ(lint_cells, run_cells);
  EXPECT_EQ(check_cells, run_cells);

  std::set<std::string> environments = {"EMPTY_MODULE"};
  for (const std::string& cell : run_cells) {
    environments.insert(cell.substr(0, cell.find('/')));
  }
  std::set<std::string> labels;
  for (const ReleaseLabel& label : release.release.sub_labels) {
    if (label.name != "R1/Global_Libraries") {
      labels.insert(label.name.substr(3));
    }
  }
  EXPECT_EQ(labels, environments);
}

TEST(Session, ConsecutiveVerbsShareOneObjectCache) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());

  RunResult run = session.run(RunRequest{});
  ASSERT_TRUE(run.status.ok());
  const ObjectCacheStats after_run = session.cache().stats();
  EXPECT_GT(after_run.misses, 0u);

  // A violation check assembles the same translation units with the same
  // options: on one session it must be served entirely from the cache.
  CheckResult check = session.run(CheckRequest{});
  ASSERT_TRUE(check.status.ok());
  const ObjectCacheStats after_check = session.cache().stats();
  EXPECT_EQ(after_check.misses, after_run.misses);
  EXPECT_GT(after_check.hits, after_run.hits);

  // A matrix over more derivatives links fresh cells against the same
  // objects — the assembly phase is pure hits.
  MatrixRequest matrix_request;
  matrix_request.derivatives = {"SC88-A", "SC88-B"};
  matrix_request.platforms = {"golden-model", "accelerator"};
  MatrixResult matrix = session.run(matrix_request);
  ASSERT_TRUE(matrix.status.ok());
  EXPECT_EQ(matrix.cells.size(), 4u);
  const ObjectCacheStats after_matrix = session.cache().stats();
  EXPECT_EQ(after_matrix.misses, after_run.misses);
  EXPECT_GT(after_matrix.hits, after_check.hits);
}

TEST(Session, BoardPoolReusesBoardsAcrossRunsWithIdenticalDigests) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());

  RunResult first = session.run(RunRequest{});
  ASSERT_TRUE(first.status.ok());
  const BoardPoolStats after_first = session.boards().stats();
  // Serial execution: every task returned its board before the next one
  // leased, so the whole run needed exactly one board.
  EXPECT_EQ(after_first.constructed, 1u);
  EXPECT_GT(after_first.reused, 0u);

  RunResult second = session.run(RunRequest{});
  ASSERT_TRUE(second.status.ok());
  const BoardPoolStats after_second = session.boards().stats();
  EXPECT_EQ(after_second.constructed, after_first.constructed);
  EXPECT_GT(after_second.reused, after_first.reused);

  // The pooled (reused) boards reproduce the fresh boards' outcomes
  // exactly — verdicts, state digests, instruction and cycle counts. (The
  // cache counters legitimately differ: the second run is pure hits.)
  EXPECT_EQ(second.report.outcome_digest(), first.report.outcome_digest());
  EXPECT_EQ(second.report.total_instructions(),
            first.report.total_instructions());
  ASSERT_EQ(second.report.records.size(), first.report.records.size());
  for (std::size_t i = 0; i < first.report.records.size(); ++i) {
    EXPECT_EQ(second.report.records[i].cycles, first.report.records[i].cycles)
        << first.report.records[i].test_id;
  }
}

TEST(Session, MatrixCellsComeBackDerivativeMajor) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  const MatrixResult result = session.run(small_cube());
  ASSERT_TRUE(result.status.ok()) << result.status.message;
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].derivative, "SC88-A");
  EXPECT_EQ(result.cells[0].platform, sim::PlatformKind::GoldenModel);
  EXPECT_EQ(result.cells[1].derivative, "SC88-A");
  EXPECT_EQ(result.cells[1].platform, sim::PlatformKind::Accelerator);
  EXPECT_EQ(result.cells[2].derivative, "SC88-B");
  EXPECT_EQ(result.cells[2].platform, sim::PlatformKind::GoldenModel);
  EXPECT_EQ(result.cells[3].derivative, "SC88-B");
  EXPECT_EQ(result.cells[3].platform, sim::PlatformKind::Accelerator);
}

TEST(Session, MatrixMatchesTheDirectRunner) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  const MatrixResult result = session.run(small_cube());
  ASSERT_TRUE(result.status.ok()) << result.status.message;

  Session direct;
  ASSERT_TRUE(build_small_system(direct).status.ok());
  RegressionRunner runner(direct.vfs(), direct.config().jobs, &direct.cache(),
                          &direct.boards());
  const std::vector<RegressionReport> expected = runner.run_matrix(
      "/SYS", {{soc::find_derivative("SC88-A"), sim::PlatformKind::GoldenModel},
               {soc::find_derivative("SC88-A"), sim::PlatformKind::Accelerator},
               {soc::find_derivative("SC88-B"), sim::PlatformKind::GoldenModel},
               {soc::find_derivative("SC88-B"), sim::PlatformKind::Accelerator}});
  ASSERT_EQ(result.cells.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.cells[i].outcome_digest(), expected[i].outcome_digest())
        << "cell " << i;
  }
}

TEST(Session, TwoSessionsShareThePersistentCacheAcrossLifetimes) {
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("advm_session_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_dir);
  const auto run_once = [&] {
    SessionConfig config;
    config.cache_dir = cache_dir.string();
    Session session(std::move(config));
    EXPECT_TRUE(build_small_system(session).status.ok());
    return session.run(small_cube());
  };

  const MatrixResult cold = run_once();
  ASSERT_TRUE(cold.status.ok()) << cold.status.message;
  // The second session starts with a cold in-memory cache, so its misses
  // must be served from the disk tier the first one populated.
  const MatrixResult warm = run_once();
  ASSERT_TRUE(warm.status.ok()) << warm.status.message;
  std::filesystem::remove_all(cache_dir);

  std::uint64_t persistent_hits = 0;
  for (const RegressionReport& cell : warm.cells) {
    persistent_hits += cell.cache.persistent_hits;
  }
  EXPECT_GT(persistent_hits, 0u);
  EXPECT_EQ(rollup_to_json(warm), rollup_to_json(cold));
}

TEST(Session, DefaultConfigKeepsTheCacheInMemory) {
  Session session;
  // No cache dir configured: the persistent tier stays off.
  EXPECT_EQ(session.cache().disk_store(), nullptr);
}

// ------------------------------------------------------------ JSON goldens --

TEST(SessionJson, RunDocumentMatchesGolden) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  RunResult result = session.run(RunRequest{});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(to_json(result) + "\n", golden("session_run.json"));
}

TEST(SessionJson, MatrixDocumentMatchesGolden) {
  Session session;
  ASSERT_TRUE(build_small_system(session).status.ok());
  MatrixRequest request;
  request.platforms = {"golden-model", "accelerator"};
  MatrixResult result = session.run(request);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(to_json(result) + "\n", golden("session_matrix.json"));
}

TEST(SessionJson, ErrorDocumentCarriesCodeAndMessage) {
  Session session;
  RunRequest request;
  request.derivative = "SC99-Z";
  RunResult result = session.run(request);
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"verb\":\"run\""), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"advm.unknown-derivative\""),
            std::string::npos);
}

}  // namespace
