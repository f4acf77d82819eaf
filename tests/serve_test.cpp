// End-to-end suite for `advm serve` — the resident verification daemon —
// and its attach protocol. A real daemon process is spawned per test
// (this very repo's CLI binary), thin clients attach over the unix
// socket, and the assertions pin the daemon's contracts: byte-identical
// report documents between attached and local runs, warm second laps,
// disk edits seen by the next lap, clients queued behind one another, a
// healthy daemon after a client vanishes mid-request or stalls before
// finishing its request, idle-timeout and --stop shutdown that unlink the
// socket, the stale-socket probe, and the live stats document.
//
// ADVM_CLI_PATH is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advm/serve/daemon.h"
#include "advm/serve/endpoint.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "support/json.h"

namespace {

namespace fs = std::filesystem;
using namespace advm;
using namespace advm::core;

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

/// How kill_and_reap ended a child process.
struct ReapOutcome {
  bool reaped = false;     ///< waitpid produced a wait status
  bool escalated = false;  ///< SIGKILL was needed (the grace expired)
};

/// Polls waitpid(WNOHANG) in 10ms steps for `grace_ms` (a daemon
/// honouring --stop is reaped without a signal), then SIGKILLs and reaps
/// unconditionally. EINTR-safe; safe on a process that already exited.
ReapOutcome kill_and_reap(pid_t pid, std::size_t grace_ms) {
  ReapOutcome outcome;
  if (pid <= 0) return outcome;
  pid_t reaped = 0;
  for (std::size_t attempt = 0; attempt < grace_ms / 10; ++attempt) {
    reaped = ::waitpid(pid, nullptr, WNOHANG);
    if (reaped < 0 && errno == EINTR) {
      reaped = 0;
      continue;
    }
    if (reaped != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (reaped == 0) {
    outcome.escalated = true;
    ::kill(pid, SIGKILL);
    do {
      reaped = ::waitpid(pid, nullptr, 0);
    } while (reaped < 0 && errno == EINTR);
  }
  outcome.reaped = reaped > 0;
  return outcome;
}

class ServeE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    scratch_ = fs::temp_directory_path() /
               ("advm_serve_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    env_dir_ = (scratch_ / "system_env").string();
    socket_path_ = (scratch_ / "daemon.sock").string();
  }

  void TearDown() override {
    stop_daemon();
    fs::remove_all(scratch_);
  }

  /// Runs `advm <args>` to completion, capturing exit code and streams.
  /// Capture files are unique per call — tests run clients concurrently,
  /// and a shared stdout.txt would let one client truncate another's
  /// output mid-slurp.
  CommandResult run_cli(const std::string& args) {
    const int call = next_call_.fetch_add(1);
    const fs::path out = scratch_ / ("stdout." + std::to_string(call));
    const fs::path err = scratch_ / ("stderr." + std::to_string(call));
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

  void make_tree() {
    const auto init =
        run_cli("init \"" + env_dir_ + "\" --derivative SC88-A --tests 2");
    ASSERT_EQ(init.exit_code, 0) << init.err;
  }

  /// Spawns `advm serve --socket <path> <extra>` in the background and
  /// waits until the socket answers a connect.
  void spawn_daemon(const std::string& extra = "") {
    const std::string command = std::string("exec \"") + ADVM_CLI_PATH +
                                "\" serve --socket \"" + socket_path_ +
                                "\" " + extra + " 2> \"" +
                                (scratch_ / "daemon.log").string() + "\"";
    daemon_pid_ = ::fork();
    ASSERT_GE(daemon_pid_, 0);
    if (daemon_pid_ == 0) {
      ::execl("/bin/sh", "sh", "-c", command.c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    wait_for_daemon();
  }

  void wait_for_daemon() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      int fd = -1;
      if (serve::connect_endpoint(socket_path_, 200, &fd).ok()) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "daemon never came up on " << socket_path_ << ": "
           << slurp(scratch_ / "daemon.log");
  }

  /// Stops the daemon via --stop and insists on a cooperative exit —
  /// kill_and_reap must never need its SIGKILL escalation here.
  void stop_daemon(bool expect_clean = true) {
    if (daemon_pid_ <= 0) return;
    (void)run_cli("serve --socket \"" + socket_path_ + "\" --stop");
    const ReapOutcome outcome = kill_and_reap(daemon_pid_, 10'000);
    daemon_pid_ = -1;
    if (expect_clean) {
      EXPECT_TRUE(outcome.reaped);
      EXPECT_FALSE(outcome.escalated)
          << "daemon had to be SIGKILLed: " << slurp(scratch_ / "daemon.log");
    }
  }

  /// True once the daemon process has exited on its own (idle timeout).
  bool daemon_exited(std::size_t wait_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(wait_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t reaped = ::waitpid(daemon_pid_, nullptr, WNOHANG);
      if (reaped == daemon_pid_ || (reaped < 0 && errno == ECHILD)) {
        daemon_pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
  }

  std::string attach_flag() const {
    return " --attach \"" + socket_path_ + "\"";
  }

  fs::path scratch_;
  std::string env_dir_;
  std::string socket_path_;
  pid_t daemon_pid_ = -1;
  std::atomic<int> next_call_{0};
};

// ------------------------------------------------------- protocol units --

TEST(ServeFrame, HeaderAndPayloadSurviveEncodeDecode) {
  serve::Frame frame;
  frame.id = 42;
  frame.verb = "matrix";
  frame.exit = 1;
  frame.text = "line one\nline \"two\"\n";
  frame.payload = "{\"ok\":true}";
  const std::string wire = serve::encode_frame(frame);
  // Two-line protocol: exactly one newline inside the header, payload raw.
  const std::size_t newline = wire.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::string decode_error;
  const auto decoded =
      serve::decode_frame_header(wire.substr(0, newline), &decode_error);
  ASSERT_TRUE(decoded) << decode_error;
  EXPECT_EQ(decoded->id, 42u);
  EXPECT_EQ(decoded->verb, "matrix");
  EXPECT_EQ(decoded->exit, 1);
  EXPECT_EQ(decoded->text, frame.text);
  EXPECT_EQ(wire.substr(newline + 1), frame.payload + "\n");
}

TEST(ServeFrame, MalformedHeaderIsRejectedWithDiagnostic) {
  std::string error;
  EXPECT_FALSE(serve::decode_frame_header("not json", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(serve::decode_frame_header("{\"id\":1}", &error));
  EXPECT_FALSE(serve::decode_frame_header("{\"verb\":\"run\"}", &error));
}

TEST(ServeService, VerbRequestRoundTripsThroughJson) {
  serve::VerbRequest request;
  request.verb = "matrix";
  request.dir = "/some/dir with space/and \"quotes\"";
  request.options = {{"derivatives", "SC88-A,SC88-D"},
                     {"platforms", "golden-model,hdl-rtl"},
                     {"name", "a,b \\ tab\there\nnewline \"q\""}};
  const std::string payload = serve::request_payload(request);
  // One line, and the verb travels only in the frame header.
  EXPECT_EQ(payload.find('\n'), std::string::npos) << payload;
  EXPECT_EQ(payload.find("matrix"), std::string::npos) << payload;
  std::string error;
  const auto parsed = serve::parse_request_payload("matrix", payload, &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->verb, "matrix");
  EXPECT_EQ(parsed->dir, request.dir);
  EXPECT_EQ(parsed->options, request.options);

  error.clear();
  EXPECT_FALSE(serve::parse_request_payload("run", "{\"dir\":", &error));
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(
      serve::parse_request_payload("run", "{\"options\":{}}", &error));
  EXPECT_NE(error.find("missing a dir"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(serve::parse_request_payload("nope", payload, &error));
  EXPECT_NE(error.find("unknown verb 'nope'"), std::string::npos) << error;
}

TEST(ServeService, LintVerbAndGateRoundTripThroughJson) {
  serve::VerbRequest request;
  request.verb = "lint";
  request.dir = "/some/dir";
  request.options = {{"derivative", "SC88-C"}};
  std::string error;
  auto parsed = serve::parse_request_payload(
      "lint", serve::request_payload(request), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->verb, "lint");
  EXPECT_EQ(parsed->options, request.options);

  // The boolean --lint pre-run gate travels as an ordinary flag on run and
  // matrix…
  for (const char* verb : {"run", "matrix"}) {
    serve::VerbRequest gated;
    gated.verb = verb;
    gated.dir = "/some/dir";
    gated.options = {{"lint", "1"}};
    parsed = serve::parse_request_payload(
        verb, serve::request_payload(gated), &error);
    ASSERT_TRUE(parsed) << error;
    EXPECT_EQ(parsed->options.at("lint"), "1") << verb;
  }

  // …and a gate-free request carries no "lint" key at all.
  serve::VerbRequest plain;
  plain.verb = "run";
  plain.dir = "/some/dir";
  EXPECT_EQ(serve::request_payload(plain).find("\"lint\""),
            std::string::npos);
  parsed = serve::parse_request_payload(
      "run", serve::request_payload(plain), &error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->options.count("lint"), 0u);
}

// ------------------------------------------------------------ e2e: parity --

TEST_F(ServeE2E, AttachedRunIsByteIdenticalToLocalRun) {
  make_tree();
  spawn_daemon();
  const auto attached =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(attached.exit_code, 0) << attached.err;
  const auto local = run_cli("run \"" + env_dir_ + "\" --format json");
  ASSERT_EQ(local.exit_code, 0) << local.err;
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, AttachedLintIsByteIdenticalToLocalLint) {
  make_tree();
  spawn_daemon();
  for (const char* format : {"", " --format json"}) {
    const auto attached =
        run_cli("lint \"" + env_dir_ + "\"" + format + attach_flag());
    ASSERT_EQ(attached.exit_code, 0) << attached.err;
    const auto local = run_cli("lint \"" + env_dir_ + "\"" + format);
    ASSERT_EQ(local.exit_code, 0) << local.err;
    EXPECT_EQ(attached.out, local.out);
  }
}

TEST_F(ServeE2E, AttachedLintGateRefusesDirtyTree) {
  make_tree();
  spawn_daemon();
  // Seed an undefined-register read into one cell on disk; the attached
  // gated run must refuse exactly like a local one, byte for byte.
  std::ofstream(fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_000" /
                "test.asm")
      << ".INCLUDE Globals.inc\n"
         "_main:\n"
         " MOV d1, d3\n"
         " CALL Base_Report_Pass\n";
  const auto attached =
      run_cli("run \"" + env_dir_ + "\" --lint" + attach_flag());
  EXPECT_EQ(attached.exit_code, 1) << attached.err;
  EXPECT_NE(attached.out.find("lint gate failed: refusing to run"),
            std::string::npos)
      << attached.out;
  const auto local = run_cli("run \"" + env_dir_ + "\" --lint");
  EXPECT_EQ(local.exit_code, 1) << local.err;
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, FreshDaemonMatrixIsByteIdenticalToLocalMatrix) {
  make_tree();
  spawn_daemon();
  const std::string axes =
      " --derivatives SC88-A,SC88-B --platforms golden-model";
  const auto attached = run_cli("matrix \"" + env_dir_ + "\"" + axes +
                                " --format json" + attach_flag());
  const auto local =
      run_cli("matrix \"" + env_dir_ + "\"" + axes + " --format json");
  // Exit codes propagate through the socket too (SC88-B cells fail).
  EXPECT_EQ(attached.exit_code, local.exit_code);
  EXPECT_EQ(attached.out, local.out);
}

TEST_F(ServeE2E, AttachedBuildFailuresAreByteIdenticalToLocal) {
  make_tree();
  // A broken shared library: every verb's diagnostics name the file by
  // its VFS path, so the daemon must import the tree under the local
  // CLI's root for the documents to match.
  std::ofstream(fs::path(env_dir_) / "UART_MODULE" / "Abstraction_Layer" /
                    "base_functions.asm",
                std::ios::app)
      << " BOGUS d0, d0\n";
  for (const std::string verb : {"run", "matrix", "lint", "check"}) {
    // run and matrix documents carry cache counters: each verb gets a
    // fresh daemon, as cold as the fresh local process.
    spawn_daemon();
    const std::string command = verb + " \"" + env_dir_ + "\" --format json";
    const auto local = run_cli(command);
    const auto attached = run_cli(command + attach_flag());
    EXPECT_EQ(local.exit_code, 1) << verb << ": " << local.err;
    EXPECT_EQ(attached.exit_code, local.exit_code) << verb;
    EXPECT_NE(local.out.find(
                  "/SYS/UART_MODULE/Abstraction_Layer/base_functions.asm"),
              std::string::npos)
        << verb << ": " << local.out;
    EXPECT_EQ(attached.out, local.out) << verb;
    stop_daemon();
  }
}

TEST_F(ServeE2E, AttachedTextNamesTheDirectoryAsTyped) {
  // The client ships an absolute path, but the human text of init, port
  // and release must name the tree as the user typed it — relative here —
  // exactly like the local run. Each verb runs locally, the tree is put
  // back as it was, and the same command runs attached.
  spawn_daemon();
  const fs::path tree = scratch_ / "typed_env";
  const fs::path releases = scratch_ / "typed_env.releases";
  const fs::path saved = scratch_ / "saved_env";
  const std::string typed =
      fs::relative(tree, fs::current_path()).string();
  const std::string named = std::string(" ").append(typed);
  const std::string absolute = std::string(" ").append(tree.string());
  const auto copy_tree = [](const fs::path& from, const fs::path& to) {
    fs::remove_all(to);
    if (fs::exists(from)) fs::copy(from, to, fs::copy_options::recursive);
  };
  for (const std::string& verb : {std::string("init \"") + typed +
                                      "\" --tests 2",
                                  "port \"" + typed + "\" --to SC88-B",
                                  "release \"" + typed + "\" --name R1"}) {
    copy_tree(tree, saved);
    const auto local = run_cli(verb);
    copy_tree(saved, tree);
    fs::remove_all(releases);
    const auto attached = run_cli(verb + attach_flag());
    EXPECT_EQ(attached.exit_code, local.exit_code) << verb;
    EXPECT_EQ(attached.out, local.out) << verb;
    EXPECT_NE(local.out.find(named), std::string::npos) << local.out;
    EXPECT_EQ(attached.out.find(absolute), std::string::npos)
        << attached.out;
  }
}

TEST_F(ServeE2E, AttachedErrorsArriveTypedWithExitTwo) {
  make_tree();
  spawn_daemon();
  const auto bad = run_cli("run \"" + env_dir_ +
                           "\" --derivative NO-SUCH --format json" +
                           attach_flag());
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.out.find("advm.unknown-derivative"), std::string::npos)
      << bad.out;
  const auto local = run_cli("run \"" + env_dir_ +
                             "\" --derivative NO-SUCH --format json");
  EXPECT_EQ(bad.out, local.out);
}

TEST_F(ServeE2E, SecondAttachedLapRunsWarm) {
  make_tree();
  const std::string cache_dir = (scratch_ / "cache").string();
  spawn_daemon("--jobs 4 --cache-dir \"" + cache_dir + "\"");
  const std::string command = "matrix \"" + env_dir_ +
                              "\" --derivatives SC88-A,SC88-D"
                              " --platforms golden-model,hdl-rtl"
                              " --format json";
  // SC88-D cells fail on an SC88-A tree (exit 1) — the warm-lap counters
  // are what this test pins, and failing cells exercise them just as
  // well; the exit code only has to agree between laps.
  const auto lap1 = run_cli(command + attach_flag());
  ASSERT_EQ(lap1.exit_code, 1) << lap1.err << lap1.out;
  const auto lap2 = run_cli(command + attach_flag());
  ASSERT_EQ(lap2.exit_code, 1) << lap2.err;
  // A restarted daemon on the same cache dir: its cold in-memory cache
  // must be served from the disk tier the first daemon populated.
  stop_daemon();
  spawn_daemon("--jobs 4 --cache-dir \"" + cache_dir + "\"");
  const auto restarted = run_cli(command + attach_flag());
  ASSERT_EQ(restarted.exit_code, 1) << restarted.err;

  const auto doc2 = support::json::parse(lap2.out);
  const auto doc3 = support::json::parse(restarted.out);
  ASSERT_TRUE(doc2 && doc3);
  const auto cache_sum = [](const support::json::Value& doc,
                            const char* key) {
    std::uint64_t total = 0;
    for (const auto& cell : doc.find("cells")->items) {
      total += *cell.find("cache")->find(key)->as_uint64();
    }
    return total;
  };
  // Lap 2 rides the resident session: every object is an in-memory hit.
  EXPECT_EQ(cache_sum(*doc2, "misses"), 0u);
  EXPECT_GT(cache_sum(*doc2, "hits"), 0u);
  EXPECT_GT(cache_sum(*doc3, "persistent_hits"), 0u);
  // The roll-up — the cache-invariant surface — is byte-stable across
  // laps even though cache counters legitimately warm up.
  const auto rollup = [](const std::string& out) {
    const std::size_t at = out.find("\"rollup\":");
    EXPECT_NE(at, std::string::npos);
    return out.substr(at);
  };
  EXPECT_EQ(rollup(lap1.out), rollup(lap2.out));
  EXPECT_EQ(rollup(lap1.out), rollup(restarted.out));
}

TEST_F(ServeE2E, DiskEditsBetweenAttachedLapsAreSeen) {
  make_tree();
  spawn_daemon();
  const std::string command =
      "run \"" + env_dir_ + "\" --format json" + attach_flag();
  const auto cold = run_cli(command);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const auto warm = run_cli(command);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  const auto misses = [](const std::string& out) {
    const auto doc = support::json::parse(out);
    EXPECT_TRUE(doc) << out;
    return doc ? *doc->find("report")->find("cache")->find("misses")
                      ->as_uint64()
               : ~std::uint64_t{0};
  };
  EXPECT_EQ(misses(warm.out), 0u);

  // Rewrite one test to fail: the daemon re-imports the tree, reports the
  // new verdict, and recompiles exactly that one translation unit.
  const fs::path edited =
      fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_000" / "test.asm";
  std::ofstream(edited) << ".INCLUDE Globals.inc\n"
                           "_main:\n"
                           " CALL Base_Report_Fail\n";
  const auto failing = run_cli(command);
  EXPECT_EQ(failing.exit_code, 1) << failing.err;
  EXPECT_NE(failing.out.find("\"test\":\"TEST_MEMORY_000\",\"build_ok\":true,"
                             "\"passed\":false,\"verdict\":\"FAIL\""),
            std::string::npos)
      << failing.out;
  EXPECT_EQ(misses(failing.out), 1u);
  // Everything but the cache counters matches a local run of the edit.
  const auto before_cache = [](const std::string& out) {
    return out.substr(0, out.find("\"cache\":"));
  };
  EXPECT_EQ(before_cache(failing.out),
            before_cache(run_cli("run \"" + env_dir_ + "\" --format json").out));

  // Delete a test directory: it vanishes from the next attached report.
  fs::remove_all(fs::path(env_dir_) / "MEM_MODULE" / "TEST_MEMORY_001");
  const auto pruned = run_cli(command);
  EXPECT_EQ(pruned.exit_code, 1) << pruned.err;
  EXPECT_EQ(pruned.out.find("TEST_MEMORY_001"), std::string::npos)
      << pruned.out;
  EXPECT_NE(pruned.out.find("TEST_MEMORY_000"), std::string::npos);

  // Give one module's Globals.inc a new TEST_PATTERN_A: the resident
  // session's include memo must replay the new value, not the one it
  // recorded, and only that module's translation units (two tests and
  // base_functions.asm) re-assemble.
  const fs::path globals =
      fs::path(env_dir_) / "PAGE_MODULE" / "Abstraction_Layer" / "Globals.inc";
  std::string text = slurp(globals);
  const std::string pattern = "TEST_PATTERN_A .EQU 0x5a5a5a5a";
  const auto at = text.find(pattern);
  ASSERT_NE(at, std::string::npos) << text;
  text.replace(at, pattern.size(), "TEST_PATTERN_A .EQU 0x3c3c3c3c");
  std::ofstream(globals) << text;
  const auto repatterned = run_cli(command);
  EXPECT_EQ(repatterned.exit_code, 1) << repatterned.err;
  EXPECT_EQ(misses(repatterned.out), 3u);
  EXPECT_NE(before_cache(repatterned.out), before_cache(pruned.out));
  EXPECT_EQ(before_cache(repatterned.out),
            before_cache(run_cli("run \"" + env_dir_ + "\" --format json").out));
}

// -------------------------------------------------------- e2e: lifecycle --

TEST_F(ServeE2E, TwoConcurrentClientsBothGetTheirDocuments) {
  make_tree();
  spawn_daemon();
  CommandResult first;
  CommandResult second;
  std::thread one([&] {
    first = run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  });
  std::thread two([&] {
    second = run_cli("check \"" + env_dir_ + "\" --format json" +
                     attach_flag());
  });
  one.join();
  two.join();
  ASSERT_EQ(first.exit_code, 0) << first.err;
  ASSERT_EQ(second.exit_code, 0) << second.err;
  EXPECT_NE(first.out.find("\"verb\":\"run\""), std::string::npos);
  EXPECT_NE(second.out.find("\"verb\":\"check\""), std::string::npos);
}

TEST_F(ServeE2E, ClientVanishingMidRequestLeavesDaemonHealthy) {
  make_tree();
  spawn_daemon();
  // Hand-roll a client that sends a full matrix request and slams the
  // connection shut without reading the response.
  {
    int fd = -1;
    ASSERT_TRUE(serve::connect_endpoint(socket_path_, 5'000, &fd).ok());
    serve::VerbRequest request;
    request.verb = "matrix";
    request.dir = env_dir_;
    request.options = {{"derivatives", "SC88-A,SC88-B"},
                       {"platforms", "golden-model"}};
    serve::Frame frame;
    frame.id = 7;
    frame.verb = "matrix";
    frame.payload = serve::request_payload(request);
    ASSERT_TRUE(serve::write_all_fd(fd, serve::encode_frame(frame)));
    ::close(fd);
  }
  // The daemon finishes the orphaned work, counts the lost client, and
  // keeps serving: a follow-up attached run must succeed.
  const auto after =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(after.exit_code, 0) << after.err;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t lost = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto stats =
        run_cli("serve --socket \"" + socket_path_ + "\" --stats"
                " --format json");
    ASSERT_EQ(stats.exit_code, 0) << stats.err;
    const auto doc = support::json::parse(stats.out);
    ASSERT_TRUE(doc);
    lost = *doc->find("clients_lost")->as_uint64();
    if (lost > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(lost, 1u);
}

TEST_F(ServeE2E, StalledClientIsDroppedAfterTheStallDeadline) {
  make_tree();
  spawn_daemon();
  // Hand-roll a client that sends a request header and never its payload.
  // The daemon serves one client at a time, so the next attached run
  // queues behind the stalled one until the stall deadline drops it.
  int stalled = -1;
  ASSERT_TRUE(serve::connect_endpoint(socket_path_, 5'000, &stalled).ok());
  serve::Frame frame;
  frame.id = 9;
  frame.verb = "run";
  const std::string wire = serve::encode_frame(frame);
  ASSERT_TRUE(serve::write_all_fd(stalled, wire.substr(0, wire.find('\n') + 1)));

  const auto start = std::chrono::steady_clock::now();
  const auto after =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_EQ(after.exit_code, 0) << after.err;
  EXPECT_NE(after.out.find("\"all_passed\":true"), std::string::npos);
  // The follow-up run could only start once the daemon gave up on the
  // stalled client (the stall clock began at its accept, a moment before).
  EXPECT_GE(waited, static_cast<long long>(serve::kClientStallMs) / 2);

  // The stalled connection was closed unanswered: EOF, no response bytes.
  pollfd pfd = {stalled, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5'000), 1);
  char byte = 0;
  EXPECT_EQ(::read(stalled, &byte, 1), 0);
  ::close(stalled);
}

TEST_F(ServeE2E, IdleTimeoutDrainsAndUnlinksSocket) {
  make_tree();
  spawn_daemon("--idle-timeout-ms 700");
  const auto lap = run_cli("matrix \"" + env_dir_ +
                           "\" --derivatives SC88-A"
                           " --platforms golden-model --format json" +
                           attach_flag());
  ASSERT_EQ(lap.exit_code, 0) << lap.err;
  // No --stop, no signal: the daemon notices it is idle and exits clean.
  EXPECT_TRUE(daemon_exited(15'000))
      << slurp(scratch_ / "daemon.log");
  EXPECT_FALSE(fs::exists(socket_path_));
}

TEST_F(ServeE2E, StaleSocketFileIsProbedAndReplaced) {
  make_tree();
  // The corpse: a socket file whose daemon is long gone.
  {
    int fd = -1;
    ASSERT_TRUE(serve::listen_endpoint(socket_path_, 1, &fd).ok());
    ::close(fd);
    ASSERT_TRUE(fs::exists(socket_path_));
  }
  spawn_daemon();  // must unlink the corpse and bind fresh
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
}

TEST_F(ServeE2E, LiveSocketIsRefusedTyped) {
  make_tree();
  spawn_daemon();
  const auto second = run_cli("serve --socket \"" + socket_path_ +
                              "\" --format json");
  EXPECT_EQ(second.exit_code, 2);
  EXPECT_NE(second.out.find("advm.serve-socket-busy"), std::string::npos)
      << second.out;
  // The loser must not have unlinked the winner's socket.
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
}

TEST_F(ServeE2E, StatsDocumentPinsItsContract) {
  make_tree();
  spawn_daemon();
  const auto run =
      run_cli("run \"" + env_dir_ + "\" --format json" + attach_flag());
  ASSERT_EQ(run.exit_code, 0);
  const auto stats = run_cli("serve --socket \"" + socket_path_ +
                             "\" --stats --format json");
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  // Fixed key order, one line — the report-document contract.
  const std::vector<std::string> keys = {
      "{\"ok\":true,\"verb\":\"serve\",\"socket\":",
      "\"uptime_ms\":",       "\"clients_served\":",  "\"clients_lost\":",
      "\"requests_ok\":",     "\"requests_failed\":", "\"requests\":{",
      "\"trees\":",           "\"cache\":{\"hits\":", "\"persistent_hits\":",
      "\"boards\":{\"constructed\":",                 "\"stale_evicted\":"};
  std::size_t at = 0;
  for (const std::string& key : keys) {
    const std::size_t found = stats.out.find(key, at);
    ASSERT_NE(found, std::string::npos) << key << " out of order or missing in "
                                        << stats.out;
    at = found;
  }
  const auto doc = support::json::parse(stats.out);
  ASSERT_TRUE(doc);
  EXPECT_GE(*doc->find("clients_served")->as_uint64(), 1u);
  EXPECT_GE(*doc->find("requests_ok")->as_uint64(), 1u);
  EXPECT_EQ(*doc->find("trees")->as_uint64(), 1u);
  EXPECT_EQ(*doc->find("requests")->find("run")->as_uint64(), 1u);
}

TEST_F(ServeE2E, AttachToNothingFailsTypedAndFast) {
  make_tree();
  const auto lost = run_cli("run \"" + env_dir_ +
                            "\" --format json --attach \"" + socket_path_ +
                            "\"");
  EXPECT_EQ(lost.exit_code, 2);
  EXPECT_NE(lost.out.find("advm.serve-unreachable"), std::string::npos)
      << lost.out;
}

}  // namespace
