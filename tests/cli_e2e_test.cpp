// End-to-end test of the `advm` CLI binary: drives the full
// init → run → check → port → run workflow through the disk/VFS boundary in
// a temp directory and diffs each command's stdout against checked-in
// goldens (tests/golden/). This is the workflow a verification team would
// run from a shell, exercised exactly as they would run it. The flag
// parser's contract rides along: unknown flags are typed advm.bad-option
// errors and boolean flags never swallow the next argument, with identical
// output whether a verb runs locally or on an attached `advm serve` daemon.
//
// ADVM_CLI_PATH, ADVM_GOLDEN_DIR and ADVM_CLI_DYNAMIC_REASON are injected
// by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <elf.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/text.h"

namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The `rollup` array of a matrix `--format json` document, one row per
/// line: the form of the tests/golden/matrix_*_rollup.json goldens.
std::string rollup_rows(const std::string& document) {
  const std::string key = "\"rollup\":";
  const std::size_t at = document.find(key);
  const std::size_t end = document.rfind(']');
  if (at == std::string::npos || end == std::string::npos || end < at) {
    return document;
  }
  const std::size_t begin = at + key.size();
  return advm::support::replace_all(document.substr(begin, end + 1 - begin),
                                    "},{", "},\n{") +
         "\n";
}

class CliE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = fs::temp_directory_path() /
               ("advm_e2e_" + std::to_string(::getpid()));
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    env_dir_ = (scratch_ / "system_env").string();
  }

  void TearDown() override {
    stop_daemon();
    fs::remove_all(scratch_);
  }

  /// Runs `advm <args>`, capturing exit code, stdout and stderr.
  CommandResult run_cli(const std::string& args) {
    const fs::path out = scratch_ / "stdout.txt";
    const fs::path err = scratch_ / "stderr.txt";
    const std::string command = std::string("\"") + ADVM_CLI_PATH + "\" " +
                                args + " > \"" + out.string() + "\" 2> \"" +
                                err.string() + "\"";
    const int status = std::system(command.c_str());
    CommandResult result;
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = slurp(out);
    result.err = slurp(err);
    return result;
  }

  /// Command stdout with the scratch path scrubbed, so goldens are
  /// machine-independent.
  std::string normalized(const CommandResult& result) const {
    return advm::support::replace_all(result.out, env_dir_, "<ENV>");
  }

  std::string golden(const std::string& name) const {
    const fs::path path = fs::path(ADVM_GOLDEN_DIR) / name;
    EXPECT_TRUE(fs::exists(path)) << "missing golden " << path;
    return slurp(path);
  }

  /// Starts `advm serve` on a socket in the scratch dir and waits until it
  /// answers --stats. Returns the ` --attach <socket>` suffix for verbs.
  std::string start_daemon() {
    socket_ = (scratch_ / "daemon.sock").string();
    daemon_pid_ = ::fork();
    if (daemon_pid_ == 0) {
      // Keep the readiness line out of the test log.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::execl(ADVM_CLI_PATH, ADVM_CLI_PATH, "serve", "--socket",
              socket_.c_str(), static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    EXPECT_GT(daemon_pid_, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool up = false;
    while (!up && std::chrono::steady_clock::now() < deadline) {
      up = run_cli("serve --socket \"" + socket_ + "\" --stats").exit_code ==
           0;
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(up) << "daemon never answered on " << socket_;
    return " --attach \"" + socket_ + "\"";
  }

  void stop_daemon() {
    if (daemon_pid_ <= 0) return;
    // A daemon that cannot take --stop must not hang the suite.
    if (run_cli("serve --socket \"" + socket_ + "\" --stop").exit_code != 0) {
      ::kill(daemon_pid_, SIGKILL);
    }
    ::waitpid(daemon_pid_, nullptr, 0);
    daemon_pid_ = -1;
  }

  fs::path scratch_;
  std::string env_dir_;
  std::string socket_;
  pid_t daemon_pid_ = -1;
};

TEST_F(CliE2E, FullWorkflowMatchesGoldens) {
  // init: create a fresh system environment on disk for SC88-A.
  auto init = run_cli("init \"" + env_dir_ + "\" --derivative SC88-A"
                      " --tests 3");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  EXPECT_EQ(normalized(init), golden("init_sc88a.txt"));
  EXPECT_TRUE(fs::exists(fs::path(env_dir_) / "PAGE_MODULE" /
                         "Abstraction_Layer" / "Globals.inc"));

  // run: full regression on the derivative the env was built for.
  auto run = run_cli("run \"" + env_dir_ + "\" --derivative SC88-A");
  ASSERT_EQ(run.exit_code, 0) << run.err << run.out;
  EXPECT_EQ(normalized(run), golden("run_sc88a.txt"));

  // check: a freshly generated ADVM environment has no violations.
  auto check = run_cli("check \"" + env_dir_ + "\"");
  EXPECT_EQ(check.exit_code, 0) << check.out;
  EXPECT_EQ(normalized(check), golden("check_clean.txt"));

  // port: retarget the tree in place to SC88-C; only abstraction/global
  // layer files may be touched (test layer stays at 0 — the ADVM claim).
  auto port = run_cli("port \"" + env_dir_ + "\" --to SC88-C");
  ASSERT_EQ(port.exit_code, 0) << port.err;
  EXPECT_EQ(normalized(port), golden("port_to_sc88c.txt"));

  // run again, on the ported derivative: green again, byte-stable report.
  auto rerun = run_cli("run \"" + env_dir_ + "\" --derivative SC88-C");
  ASSERT_EQ(rerun.exit_code, 0) << rerun.err << rerun.out;
  EXPECT_EQ(normalized(rerun), golden("run_sc88c_ported.txt"));
}

TEST_F(CliE2E, ParallelRunIsByteIdenticalToSerial) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 4");
  ASSERT_EQ(init.exit_code, 0) << init.err;

  auto serial = run_cli("run \"" + env_dir_ + "\"");
  ASSERT_EQ(serial.exit_code, 0) << serial.err;
  for (const char* jobs : {"2", "8", "32"}) {
    auto parallel =
        run_cli("run \"" + env_dir_ + "\" --jobs " + std::string(jobs));
    EXPECT_EQ(parallel.exit_code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, serial.out) << "--jobs " << jobs;
  }
}

TEST_F(CliE2E, MatrixDocumentsAreJobsInvariantAndRollupsMatchGoldens) {
  // Paper §1: the same suite on all six platforms. The e10 tree is built
  // for SC88-A, so the un-ported SC88-C and SC88-D cells fail (exit 1);
  // the contract is that every pool size fails them identically, down to
  // the byte, and that the roll-up's digests are the golden ones. Pooled
  // boards run a different sequence of tests at each pool size, so a
  // reset that left state behind would show here.
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  // The text roll-up names the cube it summarizes.
  const auto text = run_cli("matrix \"" + env_dir_ +
                            "\" --derivatives SC88-A"
                            " --platforms golden-model,accelerator --jobs 4");
  EXPECT_EQ(text.exit_code, 0) << text.out << text.err;
  EXPECT_NE(text.out.find("matrix roll-up (1 derivatives x 2 platforms)"),
            std::string::npos)
      << text.out;

  const std::string e10 =
      "matrix \"" + env_dir_ +
      "\" --derivatives SC88-A,SC88-B,SC88-C,SC88-D"
      " --platforms golden-model,hdl-rtl,hdl-gate,accelerator,bondout,product"
      " --format json --jobs ";
  const auto serial = run_cli(e10 + "1");
  EXPECT_EQ(serial.exit_code, 1) << serial.err;
  EXPECT_EQ(rollup_rows(serial.out), golden("matrix_e10_rollup.json"));
  for (const char* jobs : {"4", "0"}) {
    const auto pooled = run_cli(e10 + jobs);
    EXPECT_EQ(pooled.exit_code, serial.exit_code) << "--jobs " << jobs;
    EXPECT_EQ(pooled.out, serial.out) << "--jobs " << jobs;
  }

  // The 200-test tree: 800 executions whose workers contend for the
  // include memo and share one linked image per memory map. The whole
  // document, cache counters included, is byte-identical at --jobs 1 and
  // 4, and under a second spelling of the tree's path: the import derives
  // VFS paths lexically, so ./wide_env/ must not show.
  const fs::path wide = scratch_ / "wide_env";
  init = run_cli("init \"" + wide.string() + "\" --tests 40");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  const std::string axes =
      " --derivatives SC88-A,SC88-B --platforms golden-model,hdl-rtl"
      " --format json --jobs ";
  const auto wide_serial = run_cli("matrix \"" + wide.string() + "\"" + axes +
                                   "1");
  EXPECT_EQ(wide_serial.exit_code, 1) << wide_serial.err;
  EXPECT_EQ(rollup_rows(wide_serial.out), golden("matrix_wide_rollup.json"));
  const auto wide_pooled =
      run_cli("matrix \"" + wide.string() + "\"" + axes + "4");
  EXPECT_EQ(wide_pooled.out, wide_serial.out);
  const fs::path cwd = fs::current_path();
  fs::current_path(scratch_);
  const auto spelled = run_cli("matrix ./wide_env/" + axes + "4");
  fs::current_path(cwd);
  EXPECT_EQ(spelled.exit_code, wide_serial.exit_code) << spelled.err;
  EXPECT_EQ(spelled.out, wide_serial.out);
}

TEST_F(CliE2E, LintVerbAndGateMatchGoldens) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;

  // A freshly generated corpus must be lint-clean (the zero-false-positive
  // guarantee), and the --lint gate must let the regression through.
  auto clean = run_cli("lint \"" + env_dir_ + "\"");
  EXPECT_EQ(clean.exit_code, 0) << clean.out << clean.err;
  EXPECT_EQ(normalized(clean), golden("lint_clean.txt"));
  auto gated = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(gated.exit_code, 0) << gated.err;
  EXPECT_NE(gated.out.find("passed"), std::string::npos) << gated.out;

  // Seed a defective test cell: an undefined-register read plus a dead
  // store — both must surface, attributed to this cell, byte-stable.
  std::ofstream(fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_000" /
                "test.asm")
      << ".INCLUDE Globals.inc\n"
         "_main:\n"
         " MOV d1, d3\n"
         " MOV d5, 7\n"
         " MOV d5, 8\n"
         " MOV d0, d5\n"
         " CALL Base_Report_Pass\n";
  auto dirty = run_cli("lint \"" + env_dir_ + "\"");
  EXPECT_EQ(dirty.exit_code, 1) << dirty.err;
  EXPECT_EQ(normalized(dirty), golden("lint_findings.txt"));

  // The machine-readable document is a stable contract.
  auto json = run_cli("lint \"" + env_dir_ + "\" --format json");
  EXPECT_EQ(json.exit_code, 1) << json.err;
  EXPECT_EQ(normalized(json), golden("lint_findings.json"));

  // The gate refuses to run a dirty tree.
  auto blocked = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(blocked.exit_code, 1) << blocked.err;
  EXPECT_NE(blocked.out.find("lint gate failed: refusing to run"),
            std::string::npos)
      << blocked.out;
}

TEST_F(CliE2E, RunOnWrongDerivativeFailsLoudly) {
  // An SC88-A environment regressed against SC88-D must not silently pass:
  // the paper's Fig 2 lesson is that unported environments break visibly.
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  auto run = run_cli("run \"" + env_dir_ + "\" --derivative SC88-D");
  EXPECT_NE(run.exit_code, 0);
}

TEST_F(CliE2E, UsageAndBadArgumentsExitNonZero) {
  auto usage = run_cli("");
  EXPECT_EQ(usage.exit_code, 2);
  EXPECT_NE(usage.err.find("usage:"), std::string::npos);

  auto bad = run_cli("run \"" + env_dir_ + "\" --derivative SC99-Z");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("unknown derivative"), std::string::npos);

  // An unknown platform must fail loudly, not fall back silently.
  auto bad_platform =
      run_cli("matrix \"" + env_dir_ + "\" --platforms warp-drive");
  EXPECT_EQ(bad_platform.exit_code, 2);
  EXPECT_NE(bad_platform.err.find("unknown platform"), std::string::npos);

  auto bad_jobs = run_cli("run \"" + env_dir_ + "\" --jobs banana");
  EXPECT_EQ(bad_jobs.exit_code, 2);
  EXPECT_NE(bad_jobs.err.find("invalid --jobs"), std::string::npos);

  // Signed values must not slip through strtoul's wraparound into
  // maximum fan-out.
  auto negative_jobs = run_cli("run \"" + env_dir_ + "\" --jobs -1");
  EXPECT_EQ(negative_jobs.exit_code, 2);
  EXPECT_NE(negative_jobs.err.find("invalid --jobs"), std::string::npos);

  // There is no worker verb: execution is in-process only.
  auto worker = run_cli("worker --serve");
  EXPECT_EQ(worker.exit_code, 2);
  EXPECT_NE(worker.err.find("unknown verb 'worker'"), std::string::npos)
      << worker.err;
}

// Every verb is a fresh process, so the CLI links statically: no ld.so
// pass over libstdc++ on each start (tools/CMakeLists.txt). A dynamic
// executable is one with a PT_INTERP program header naming its loader.
TEST_F(CliE2E, CliIsLinkedStatically) {
  const std::string dynamic_reason = ADVM_CLI_DYNAMIC_REASON;
  if (!dynamic_reason.empty()) {
    GTEST_SKIP() << "the CLI links dynamically here: " << dynamic_reason;
  }
  std::ifstream in(ADVM_CLI_PATH, std::ios::binary);
  ASSERT_TRUE(in) << "cannot open " << ADVM_CLI_PATH;
  Elf64_Ehdr header{};
  in.read(reinterpret_cast<char*>(&header), sizeof header);
  ASSERT_TRUE(in && std::memcmp(header.e_ident, ELFMAG, SELFMAG) == 0 &&
              header.e_ident[EI_CLASS] == ELFCLASS64)
      << ADVM_CLI_PATH << " is not a 64-bit ELF file";
  ASSERT_EQ(header.e_phentsize, sizeof(Elf64_Phdr));
  ASSERT_GT(header.e_phnum, 0);
  for (unsigned i = 0; i < header.e_phnum; ++i) {
    Elf64_Phdr program{};
    in.seekg(static_cast<std::streamoff>(header.e_phoff + i * sizeof program));
    in.read(reinterpret_cast<char*>(&program), sizeof program);
    ASSERT_TRUE(in) << "truncated program header table";
    EXPECT_NE(program.p_type, static_cast<Elf64_Word>(PT_INTERP))
        << ADVM_CLI_PATH << " is dynamically linked (PT_INTERP header)";
  }
}

TEST_F(CliE2E, UnknownFlagsAreTypedBadOptionsLocallyAndAttached) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  const std::string attach = start_daemon();
  const std::string matrix = "matrix \"" + env_dir_ + "\"";

  // Flags the CLI does not have (the knobs of the former multi-process
  // backend) and a typo of --jobs that used to run silently at --jobs 1.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {matrix + " --backend process", "--backend"},
      {matrix + " --shards 4", "--shards"},
      {matrix + " --batch-threshold 5", "--batch-threshold"},
      {matrix + " --request-timeout-ms 1000", "--request-timeout-ms"},
      {matrix + " --max-respawns 0", "--max-respawns"},
      {matrix + " --fault-plan 0:crash@1", "--fault-plan"},
      {matrix + " --serve-threads 2", "--serve-threads"},
      {matrix + " --derivatives SC88-A --platforms golden-model --jbos 4",
       "--jbos"},
  };
  for (const auto& [args, flag] : cases) {
    const auto local = run_cli(args);
    EXPECT_EQ(local.exit_code, 2) << args;
    EXPECT_EQ(local.out, "") << args;
    EXPECT_EQ(local.err, "unknown option '" + flag + "'\n") << args;
    const auto attached = run_cli(args + attach);
    EXPECT_EQ(attached.exit_code, local.exit_code) << args;
    EXPECT_EQ(attached.out, local.out) << args;
    EXPECT_EQ(attached.err, local.err) << args;

    const auto json = run_cli(args + " --format json");
    EXPECT_EQ(json.exit_code, 2) << args;
    EXPECT_EQ(json.out,
              "{\"ok\":false,\"verb\":\"matrix\",\"error\":{\"code\":"
              "\"advm.bad-option\",\"message\":\"unknown option '" +
                  flag + "'\"}}\n")
        << args;
    const auto attached_json = run_cli(args + " --format json" + attach);
    EXPECT_EQ(attached_json.exit_code, json.exit_code) << args;
    EXPECT_EQ(attached_json.out, json.out) << args;
  }
}

TEST_F(CliE2E, BadTestsAndSeedValuesAreTypedLocallyAndAttached) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  const std::string attach = start_daemon();
  const std::string fresh = (scratch_ / "fresh_env").string();

  // Each used to slip past strtoul: a wrapped or zero count, a bare
  // std::bad_alloc, or a silently substituted seed. An attached --jobs
  // was not checked at all.
  struct Case {
    std::string args;
    std::string verb;
    std::string code;
  };
  const std::vector<Case> cases = {
      {"init \"" + fresh + "\" --tests -1", "init", "advm.bad-tests"},
      {"init \"" + fresh + "\" --tests 9999999999999", "init",
       "advm.bad-tests"},
      {"init \"" + fresh + "\" --tests abc", "init", "advm.bad-tests"},
      {"random \"" + env_dir_ + "\" --seed xyz", "random", "advm.bad-seed"},
      {"random \"" + env_dir_ + "\" --seed -3", "random", "advm.bad-seed"},
      {"run \"" + env_dir_ + "\" --jobs abc", "run", "advm.bad-jobs"},
      {"run \"" + env_dir_ + "\" --jobs -1", "run", "advm.bad-jobs"},
  };
  for (const Case& c : cases) {
    const auto local = run_cli(c.args);
    EXPECT_EQ(local.exit_code, 2) << c.args;
    EXPECT_EQ(local.out, "") << c.args;
    EXPECT_NE(local.err, "") << c.args;
    const auto attached = run_cli(c.args + attach);
    EXPECT_EQ(attached.exit_code, local.exit_code) << c.args;
    EXPECT_EQ(attached.out, local.out) << c.args;
    EXPECT_EQ(attached.err, local.err) << c.args;

    const auto json = run_cli(c.args + " --format json");
    EXPECT_EQ(json.exit_code, 2) << c.args;
    EXPECT_EQ(json.out.rfind("{\"ok\":false,\"verb\":\"" + c.verb +
                                 "\",\"error\":{\"code\":\"" + c.code + "\"",
                             0),
              0u)
        << c.args << ": " << json.out;
    const auto attached_json = run_cli(c.args + " --format json" + attach);
    EXPECT_EQ(attached_json.exit_code, json.exit_code) << c.args;
    EXPECT_EQ(attached_json.out, json.out) << c.args;
  }
  EXPECT_FALSE(fs::exists(fresh));
}

TEST_F(CliE2E, BooleanFlagsNeverSwallowTheDirectory) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  const std::string attach = start_daemon();

  // `--lint` before the directory used to take it as its value and leave
  // the verb without a tree (usage, exit 2).
  const std::string args = "run --lint \"" + env_dir_ + "\"";
  const auto local = run_cli(args);
  EXPECT_EQ(local.exit_code, 0) << local.err << local.out;
  EXPECT_NE(local.out.find("passed"), std::string::npos) << local.out;
  EXPECT_EQ(local.out, run_cli("run \"" + env_dir_ + "\" --lint").out);
  const auto attached = run_cli(args + attach);
  EXPECT_EQ(attached.exit_code, local.exit_code);
  EXPECT_EQ(attached.out, local.out);
  EXPECT_EQ(attached.err, local.err);
}


TEST_F(CliE2E, ReleaseLabelsOnlyEnvironments) {
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  // A notes directory is not an environment (it has no TESTPLAN.TXT):
  // run, lint and check ignore it, and so must the release label.
  const fs::path notes = fs::path(env_dir_) / "docs" / "notes.txt";
  fs::create_directories(notes.parent_path());
  std::ofstream(notes) << "draft\n";
  const std::string release =
      "release \"" + env_dir_ + "\" --name R1 --format json";
  const auto composed_hash = [](const std::string& out) {
    const std::string key = "\"composed_hash\":\"";
    const std::size_t at = out.find(key);
    return at == std::string::npos ? out : out.substr(at + key.size(), 16);
  };

  const auto first = run_cli(release);
  ASSERT_EQ(first.exit_code, 0) << first.err << first.out;
  EXPECT_EQ(first.out.find("R1/docs"), std::string::npos) << first.out;
  EXPECT_NE(first.out.find("\"name\":\"R1/UART_MODULE\""), std::string::npos)
      << first.out;

  // Editing the notes leaves the composed hash where it was.
  std::ofstream(notes) << "final\n";
  const auto second = run_cli(release);
  ASSERT_EQ(second.exit_code, 0) << second.err << second.out;
  EXPECT_EQ(composed_hash(second.out), composed_hash(first.out));
}

TEST_F(CliE2E, BuildFailureTextsArePinned) {
  // The local `--format json` documents of run, lint and check, byte for
  // byte, for each way a cell can fail to build. All three verbs build a
  // cell through one recipe, but each keeps its own wording and its own
  // precedence: `run` reports a broken environment library on every cell
  // of the environment, while lint and check name a cell's own broken
  // test.asm first.
  auto init = run_cli("init \"" + env_dir_ + "\" --tests 2");
  ASSERT_EQ(init.exit_code, 0) << init.err;
  // One environment, two cells: UART_MODULE/TEST_UART_000 and _001.
  for (const char* env :
       {"MEM_MODULE", "NVM_MODULE", "PAGE_MODULE", "TIMER_MODULE"}) {
    fs::remove_all(fs::path(env_dir_) / env);
  }
  const fs::path uart = fs::path(env_dir_) / "UART_MODULE";
  const fs::path test = uart / "TEST_UART_000" / "test.asm";
  const fs::path library = uart / "Abstraction_Layer" / "base_functions.asm";
  const std::string clean_test = slurp(test);
  const std::string clean_library = slurp(library);
  const std::string broken_test = ".INCLUDE Globals.inc\n_main:\n MOV d1,\n";
  const std::string broken_library = clean_library + " BOGUS d0, d0\n";
  const std::string undefined_call =
      ".INCLUDE Globals.inc\n_main:\n CALL No_Such_Function\n"
      " CALL Base_Report_Pass\n";

  struct Case {
    const char* name;
    const std::string& test;
    const std::string& library;
    std::string run;
    std::string lint;
    std::string check;
  };
  const std::vector<Case> cases = {
      {"broken test.asm", broken_test, clean_library,
       "{\"ok\":true,\"verb\":\"run\",\"report\":{\"derivative\":\"SC88-A\","
       "\"platform\":\"golden-model\",\"records\":[{\"environment\":\"UART_M"
       "ODULE\",\"test\":\"TEST_UART_000\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"/SYS/UART_MODULE/TEST_UART_000/t"
       "est.asm:3:9: error [asm.bad-expression]: expected expression\\n [inc"
       "lude trail: /SYS/UART_MODULE/TEST_UART_000/test.asm -> /SYS/UART_MOD"
       "ULE/Abstraction_Layer/Globals.inc; /SYS/UART_MODULE/Abstraction_Laye"
       "r/Globals.inc -> /SYS/Global_Libraries/register_defs.inc]\"},"
       "{\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_001\","
       "\"build_ok\":true,\"passed\":true,\"verdict\":\"PASS\","
       "\"stop\":\"halted\",\"instructions\":33,\"cycles\":33,"
       "\"state_digest\":\"952ce8a8c4db9f69\",\"modeled_seconds\":3.3e-06}],"
       "\"passed\":1,\"total\":2,\"build_failures\":1,\"all_passed\":false,"
       "\"total_instructions\":33,\"total_modeled_seconds\":3.3e-06,"
       "\"outcome_digest\":\"f90f25acb81cb0a3\",\"cache\":{\"hits\":0,"
       "\"misses\":6,\"bytes\":2172,\"evictions\":0,\"persistent_hits\":0}}}"
       "\n",
       "{\"ok\":true,\"verb\":\"lint\",\"clean\":false,\"count\":1,"
       "\"cells\":2,\"findings\":[{\"code\":\"advm.lint-unbuildable\","
       "\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_000\","
       "\"file\":\"UART_MODULE/TEST_UART_000/test.asm\",\"address\":0,"
       "\"symbol\":\"\",\"detail\":\"cell does not assemble: /SYS/UART_MODUL"
       "E/TEST_UART_000/test.asm:3:9: error [asm.bad-expression]: expected e"
       "xpression\\n\"}],\"by_code\":{\"advm.lint-unbuildable\":1}}\n",
       "{\"ok\":true,\"verb\":\"check\",\"clean\":false,\"count\":1,"
       "\"violations\":[{\"code\":\"advm.unbuildable\",\"file\":\"/SYS/UART_"
       "MODULE/TEST_UART_000/test.asm\",\"line\":0,\"detail\":\"cell does no"
       "t assemble: /SYS/UART_MODULE/TEST_UART_000/test.asm:3:9: error [asm."
       "bad-expression]: expected expression\\n\"}]}\n"},
      {"broken shared library", clean_test, broken_library,
       "{\"ok\":true,\"verb\":\"run\",\"report\":{\"derivative\":\"SC88-A\","
       "\"platform\":\"golden-model\",\"records\":[{\"environment\":\"UART_M"
       "ODULE\",\"test\":\"TEST_UART_000\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"shared object '/SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm': /SYS/UART_MODULE/Abstraction_"
       "Layer/base_functions.asm:238:2: error [asm.unknown-mnemonic]: unknow"
       "n mnemonic or directive 'BOGUS'\\n [include trail: /SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm -> /SYS/UART_MODULE/Abstraction"
       "_Layer/Globals.inc; /SYS/UART_MODULE/Abstraction_Layer/Globals.inc -"
       "> /SYS/Global_Libraries/register_defs.inc]\"},{\"environment\":\"UAR"
       "T_MODULE\",\"test\":\"TEST_UART_001\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"shared object '/SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm': /SYS/UART_MODULE/Abstraction_"
       "Layer/base_functions.asm:238:2: error [asm.unknown-mnemonic]: unknow"
       "n mnemonic or directive 'BOGUS'\\n [include trail: /SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm -> /SYS/UART_MODULE/Abstraction"
       "_Layer/Globals.inc; /SYS/UART_MODULE/Abstraction_Layer/Globals.inc -"
       "> /SYS/Global_Libraries/register_defs.inc]\"}],\"passed\":0,"
       "\"total\":2,\"build_failures\":2,\"all_passed\":false,"
       "\"total_instructions\":0,\"total_modeled_seconds\":0,"
       "\"outcome_digest\":\"6635b5a332048bde\",\"cache\":{\"hits\":0,"
       "\"misses\":1,\"bytes\":0,\"evictions\":0,\"persistent_hits\":0}}}\n",
       "{\"ok\":true,\"verb\":\"lint\",\"clean\":false,\"count\":2,"
       "\"cells\":2,\"findings\":[{\"code\":\"advm.lint-unbuildable\","
       "\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_000\","
       "\"file\":\"UART_MODULE/Abstraction_Layer/base_functions.asm\","
       "\"address\":0,\"symbol\":\"\",\"detail\":\"environment library does "
       "not assemble: /SYS/UART_MODULE/Abstraction_Layer/base_functions.asm:"
       "238:2: error [asm.unknown-mnemonic]: unknown mnemonic or directive '"
       "BOGUS'\\n\"},{\"code\":\"advm.lint-unbuildable\",\"environment\":\"U"
       "ART_MODULE\",\"test\":\"TEST_UART_001\",\"file\":\"UART_MODULE/Abstr"
       "action_Layer/base_functions.asm\",\"address\":0,\"symbol\":\"\","
       "\"detail\":\"environment library does not assemble: /SYS/UART_MODULE"
       "/Abstraction_Layer/base_functions.asm:238:2: error [asm.unknown-mnem"
       "onic]: unknown mnemonic or directive 'BOGUS'\\n\"}],"
       "\"by_code\":{\"advm.lint-unbuildable\":2}}\n",
       "{\"ok\":true,\"verb\":\"check\",\"clean\":false,\"count\":2,"
       "\"violations\":[{\"code\":\"advm.unbuildable\",\"file\":\"/SYS/UART_"
       "MODULE/Abstraction_Layer/base_functions.asm\",\"line\":0,"
       "\"detail\":\"environment library does not assemble: /SYS/UART_MODULE"
       "/Abstraction_Layer/base_functions.asm:238:2: error [asm.unknown-mnem"
       "onic]: unknown mnemonic or directive 'BOGUS'\\n\"},{\"code\":\"advm."
       "unbuildable\",\"file\":\"/SYS/UART_MODULE/Abstraction_Layer/base_fun"
       "ctions.asm\",\"line\":0,\"detail\":\"environment library does not as"
       "semble: /SYS/UART_MODULE/Abstraction_Layer/base_functions.asm:238:2:"
       " error [asm.unknown-mnemonic]: unknown mnemonic or directive 'BOGUS'"
       "\\n\"}]}\n"},
      {"undefined symbol at link", undefined_call, clean_library,
       "{\"ok\":true,\"verb\":\"run\",\"report\":{\"derivative\":\"SC88-A\","
       "\"platform\":\"golden-model\",\"records\":[{\"environment\":\"UART_M"
       "ODULE\",\"test\":\"TEST_UART_000\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"/SYS/UART_MODULE/TEST_UART_000/t"
       "est.asm:3:2: error [link.undefined-symbol]: undefined symbol 'No_Suc"
       "h_Function' referenced from '/SYS/UART_MODULE/TEST_UART_000/test.asm"
       "'\\n\"},{\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_001\","
       "\"build_ok\":true,\"passed\":true,\"verdict\":\"PASS\","
       "\"stop\":\"halted\",\"instructions\":33,\"cycles\":33,"
       "\"state_digest\":\"952ce8a8c4db9f69\",\"modeled_seconds\":3.3e-06}],"
       "\"passed\":1,\"total\":2,\"build_failures\":1,\"all_passed\":false,"
       "\"total_instructions\":33,\"total_modeled_seconds\":3.3e-06,"
       "\"outcome_digest\":\"f90f25acb81cb0a3\",\"cache\":{\"hits\":0,"
       "\"misses\":6,\"bytes\":2196,\"evictions\":0,\"persistent_hits\":0}}}"
       "\n",
       "{\"ok\":true,\"verb\":\"lint\",\"clean\":false,\"count\":1,"
       "\"cells\":2,\"findings\":[{\"code\":\"advm.lint-unbuildable\","
       "\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_000\","
       "\"file\":\"UART_MODULE/TEST_UART_000/test.asm\",\"address\":0,"
       "\"symbol\":\"\",\"detail\":\"cell does not link: /SYS/UART_MODULE/TE"
       "ST_UART_000/test.asm:3:2: error [link.undefined-symbol]: undefined s"
       "ymbol 'No_Such_Function' referenced from '/SYS/UART_MODULE/TEST_UART"
       "_000/test.asm'\\n\"}],\"by_code\":{\"advm.lint-unbuildable\":1}}\n",
       "{\"ok\":true,\"verb\":\"check\",\"clean\":false,\"count\":1,"
       "\"violations\":[{\"code\":\"advm.unbuildable\",\"file\":\"/SYS/UART_"
       "MODULE/TEST_UART_000/test.asm\",\"line\":0,\"detail\":\"cell does no"
       "t link: /SYS/UART_MODULE/TEST_UART_000/test.asm:3:2: error [link.und"
       "efined-symbol]: undefined symbol 'No_Such_Function' referenced from "
       "'/SYS/UART_MODULE/TEST_UART_000/test.asm'\\n\"}]}\n"},
      {"broken test.asm and library", broken_test, broken_library,
       "{\"ok\":true,\"verb\":\"run\",\"report\":{\"derivative\":\"SC88-A\","
       "\"platform\":\"golden-model\",\"records\":[{\"environment\":\"UART_M"
       "ODULE\",\"test\":\"TEST_UART_000\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"shared object '/SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm': /SYS/UART_MODULE/Abstraction_"
       "Layer/base_functions.asm:238:2: error [asm.unknown-mnemonic]: unknow"
       "n mnemonic or directive 'BOGUS'\\n [include trail: /SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm -> /SYS/UART_MODULE/Abstraction"
       "_Layer/Globals.inc; /SYS/UART_MODULE/Abstraction_Layer/Globals.inc -"
       "> /SYS/Global_Libraries/register_defs.inc]\"},{\"environment\":\"UAR"
       "T_MODULE\",\"test\":\"TEST_UART_001\",\"build_ok\":false,"
       "\"passed\":false,\"verdict\":\"no-verdict\",\"stop\":\"running\","
       "\"instructions\":0,\"cycles\":0,\"state_digest\":\"0000000000000000\""
       ",\"modeled_seconds\":0,\"detail\":\"shared object '/SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm': /SYS/UART_MODULE/Abstraction_"
       "Layer/base_functions.asm:238:2: error [asm.unknown-mnemonic]: unknow"
       "n mnemonic or directive 'BOGUS'\\n [include trail: /SYS/UART_MODULE/"
       "Abstraction_Layer/base_functions.asm -> /SYS/UART_MODULE/Abstraction"
       "_Layer/Globals.inc; /SYS/UART_MODULE/Abstraction_Layer/Globals.inc -"
       "> /SYS/Global_Libraries/register_defs.inc]\"}],\"passed\":0,"
       "\"total\":2,\"build_failures\":2,\"all_passed\":false,"
       "\"total_instructions\":0,\"total_modeled_seconds\":0,"
       "\"outcome_digest\":\"6635b5a332048bde\",\"cache\":{\"hits\":0,"
       "\"misses\":1,\"bytes\":0,\"evictions\":0,\"persistent_hits\":0}}}\n",
       "{\"ok\":true,\"verb\":\"lint\",\"clean\":false,\"count\":2,"
       "\"cells\":2,\"findings\":[{\"code\":\"advm.lint-unbuildable\","
       "\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_000\","
       "\"file\":\"UART_MODULE/TEST_UART_000/test.asm\",\"address\":0,"
       "\"symbol\":\"\",\"detail\":\"cell does not assemble: /SYS/UART_MODUL"
       "E/TEST_UART_000/test.asm:3:9: error [asm.bad-expression]: expected e"
       "xpression\\n\"},{\"code\":\"advm.lint-unbuildable\","
       "\"environment\":\"UART_MODULE\",\"test\":\"TEST_UART_001\","
       "\"file\":\"UART_MODULE/Abstraction_Layer/base_functions.asm\","
       "\"address\":0,\"symbol\":\"\",\"detail\":\"environment library does "
       "not assemble: /SYS/UART_MODULE/Abstraction_Layer/base_functions.asm:"
       "238:2: error [asm.unknown-mnemonic]: unknown mnemonic or directive '"
       "BOGUS'\\n\"}],\"by_code\":{\"advm.lint-unbuildable\":2}}\n",
       "{\"ok\":true,\"verb\":\"check\",\"clean\":false,\"count\":2,"
       "\"violations\":[{\"code\":\"advm.unbuildable\",\"file\":\"/SYS/UART_"
       "MODULE/TEST_UART_000/test.asm\",\"line\":0,\"detail\":\"cell does no"
       "t assemble: /SYS/UART_MODULE/TEST_UART_000/test.asm:3:9: error [asm."
       "bad-expression]: expected expression\\n\"},{\"code\":\"advm.unbuilda"
       "ble\",\"file\":\"/SYS/UART_MODULE/Abstraction_Layer/base_functions.a"
       "sm\",\"line\":0,\"detail\":\"environment library does not assemble: "
       "/SYS/UART_MODULE/Abstraction_Layer/base_functions.asm:238:2: error ["
       "asm.unknown-mnemonic]: unknown mnemonic or directive 'BOGUS'\\n\"}]}"
       "\n"},
  };
  for (const Case& c : cases) {
    std::ofstream(test, std::ios::binary) << c.test;
    std::ofstream(library, std::ios::binary) << c.library;
    for (const auto& [verb, expected] :
         {std::pair<std::string, const std::string&>{"run", c.run},
          {"lint", c.lint},
          {"check", c.check}}) {
      const auto result =
          run_cli(verb + " \"" + env_dir_ + "\" --format json");
      EXPECT_EQ(result.exit_code, 1) << c.name << ": " << verb;
      EXPECT_EQ(result.out, expected) << c.name << ": " << verb;
    }
  }
}

}  // namespace
