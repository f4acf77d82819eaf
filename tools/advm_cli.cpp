// advm — command-line driver for the ADVM toolchain.
//
// The workflow a verification team would actually run, against environments
// that live on disk (paper §3 keeps them under revision control):
//
//   advm init  <dir> [--derivative SC88-A] [--tests N] [--jobs N]
//                                                        create a system env
//   advm run   <dir> [--derivative D] [--platform P] [--jobs N]
//                    [--cache-dir DIR]                   build + regress
//   advm matrix <dir> --derivatives A,B,C --platforms P,Q [--jobs N]
//                    [--cache-dir DIR]                   derivative × platform
//                                                        cube, one report per
//                                                        cell + roll-up
//   advm port  <dir> --to SC88-C                         retarget in place
//   advm check <dir> [--derivative D]                    violation report
//   advm lint  <dir> [--derivative D] [--jobs N]         binary-level dataflow
//                                                        analysis of every
//                                                        linked test cell
//                                                        (--lint on run/matrix
//                                                        gates execution on a
//                                                        clean lint)
//   advm release <dir> --name R1 [--derivative D] [--platform P] [--jobs N]
//                                                        frozen snapshot +
//                                                        verify + regression
//   advm random <dir> --seed K [--derivative D]          random Globals.inc
//   advm serve --socket <path> [--jobs N] [--idle-timeout-ms MS]
//                                                        resident daemon: one
//                                                        warm Session behind a
//                                                        unix socket, serving
//                                                        one client at a time;
//                                                        --stats / --stop
//                                                        control a live one
//
// Every verb is the same thin adapter: parse arguments into a typed
// request, run it on one advm::Session (which owns the VFS, object cache,
// board pool and thread-pool size), render the typed result. `--format
// json` (any verb) renders the result as the stable machine-readable
// document from src/advm/report.h instead of the human text. Flags come
// from one table (kFlags); an unknown flag is a typed advm.bad-option.
//
// `--cache-dir` points the content-addressed object cache at a persistent
// directory that consecutive invocations share. `--attach <socket>` (or
// ADVM_SOCKET) ships any verb to a resident `advm serve` daemon instead —
// same flags, same documents, same exit codes, but a warm shared Session
// on the far side.
//
// Environments are imported from disk into the session's VFS, transformed,
// and written back — so `port` literally edits only the abstraction layer
// files in your working copy.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "advm/report.h"
#include "advm/serve/client.h"
#include "advm/serve/daemon.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "advm/session.h"
#include "support/disk.h"
#include "support/text.h"

namespace {

using namespace advm;
using namespace advm::core;
using serve::kVfsRoot;

/// Every flag the CLI knows, and whether it takes a value. A value flag
/// consumes the next argument; a boolean flag never does.
struct FlagSpec {
  std::string_view name;
  bool takes_value;
};

constexpr FlagSpec kFlags[] = {
    {"attach", true},      {"cache-dir", true}, {"derivative", true},
    {"derivatives", true}, {"format", true},    {"idle-timeout-ms", true},
    {"jobs", true},        {"lint", false},     {"name", true},
    {"platform", true},    {"platforms", true}, {"seed", true},
    {"socket", true},      {"stats", false},    {"stop", false},
    {"tests", true},       {"to", true},
};

const FlagSpec* find_flag(std::string_view name) {
  for (const FlagSpec& flag : kFlags) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

struct Args {
  std::string command;
  std::string dir;
  std::map<std::string, std::string> options;
  bool json = false;
  /// First unknown flag or missing flag value (advm.bad-option); the rest
  /// of the line is still parsed so --format json shapes the error.
  Status error;
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positional++ == 0) args.dir = arg;
      continue;
    }
    const std::string key = arg.substr(2);
    const FlagSpec* flag = find_flag(key);
    if (flag == nullptr) {
      if (args.error.ok()) {
        args.error = Status::error("advm.bad-option",
                                   "unknown option '" + arg + "'");
      }
      continue;
    }
    if (!flag->takes_value) {
      // insert_or_assign with a sized string: `options[key] = "1"` hits
      // GCC 12's -Wrestrict false positive (PR105651) under -O3 -Werror.
      args.options.insert_or_assign(key, std::string(1, '1'));
      continue;
    }
    if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
      if (args.error.ok()) {
        args.error = Status::error("advm.bad-option",
                                   "option '" + arg + "' needs a value");
      }
      continue;
    }
    args.options.insert_or_assign(key, std::string(argv[++i]));
  }
  auto format = args.options.find("format");
  args.json = format != args.options.end() && format->second == "json";
  return args;
}

/// Parses a numeric option strictly: digits only. strtoul would silently
/// accept "-1" (wrapping to ULONG_MAX — i.e. maximum fan-out, the exact
/// accident to prevent) and read "abc" as 0, so negative and non-numeric
/// values come back as a typed Status instead. Range validation (absurd
/// jobs or tests) is the Session's job — numeric values pass through so
/// the typed error has one home.
template <typename Count>
Status parse_count(const Args& args, const char* key, const char* code,
                   Count* out) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return {};
  const std::string& value = it->second;
  const bool all_digits =
      !value.empty() &&
      value.find_first_not_of("0123456789") == std::string::npos;
  // 20 digits cannot fit in 64 bits: reject before strtoul saturates.
  if (!all_digits || value.size() > 19) {
    return Status::error(std::string(code),
                         std::string("invalid --") + key + " value '" +
                             value + "' (expected a non-negative number)");
  }
  *out = static_cast<Count>(std::strtoull(value.c_str(), nullptr, 10));
  return {};
}

std::string option_or(const Args& args, const char* key,
                      const char* fallback) {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

/// SessionConfig from the shared execution flags (--jobs, --cache-dir).
/// Typed Status on malformed values.
Status config_from_args(const Args& args, SessionConfig* config) {
  if (Status status = parse_count(args, "jobs", "advm.bad-jobs",
                                  &config->jobs);
      !status.ok()) {
    return status;
  }
  config->cache_dir = option_or(args, "cache-dir", "");
  return {};
}

/// Renders a pre-request failure (bad flag or value) through the same
/// contract request validation uses: JSON error document on stdout in
/// --format json mode, bare message on stderr otherwise, exit code 2.
int render_status(const Args& args, const char* verb, const Status& status) {
  if (args.json) {
    std::cout << error_to_json(verb, status) << "\n";
  } else {
    std::cerr << status.message << "\n";
  }
  return 2;
}

/// Builds a Session from the shared execution flags, with the tree at
/// `args.dir` imported under kVfsRoot. Null after a diagnostic on a bad
/// flag value. An unreadable disk tree is *not* fatal here: the failure is
/// stashed in `import_error` so that request validation (unknown
/// derivative/platform) still gets to report first — the session then
/// fails root validation and the verb substitutes the disk-level message.
std::unique_ptr<Session> make_session(const Args& args, const char* verb,
                                      std::string* import_error,
                                      bool import = true) {
  SessionConfig config;
  if (Status status = config_from_args(args, &config); !status.ok()) {
    render_status(args, verb, status);
    return nullptr;
  }
  auto session = std::make_unique<Session>(std::move(config));
  if (import) {
    try {
      support::import_from_disk(session->vfs(), args.dir, kVfsRoot);
    } catch (const std::exception& e) {
      if (import_error) *import_error = e.what();
    }
  }
  return session;
}

/// Builds the verb's typed request from its flags — the one place CLI
/// flag names map onto serve::VerbRequest fields, shared verbatim by the
/// local and attached paths (parity by construction: both feed the same
/// request to serve::execute_verb, one directly and one over the socket).
/// Typed Status on a malformed numeric value.
Status build_verb_request(const Args& args, const std::string& verb,
                          serve::VerbRequest* out) {
  serve::VerbRequest& request = *out;
  request.verb = verb;
  request.dir = args.dir;
  if (verb == "init") {
    request.build.derivative = option_or(args, "derivative", "SC88-A");
    if (Status status = parse_count(args, "tests", "advm.bad-tests",
                                    &request.build.tests_per_module);
        !status.ok()) {
      return status;
    }
  } else if (verb == "run") {
    request.run.derivative = option_or(args, "derivative", "SC88-A");
    request.run.platform = option_or(args, "platform", "golden-model");
    request.lint_gate = args.options.count("lint") != 0;
  } else if (verb == "matrix") {
    const std::string derivatives = option_or(args, "derivatives", "SC88-A");
    const std::string platforms = option_or(args, "platforms", "golden-model");
    request.matrix.derivatives.clear();
    for (std::string_view name : support::split(derivatives, ',')) {
      request.matrix.derivatives.emplace_back(name);
    }
    request.matrix.platforms.clear();
    for (std::string_view name : support::split(platforms, ',')) {
      request.matrix.platforms.emplace_back(name);
    }
    request.lint_gate = args.options.count("lint") != 0;
  } else if (verb == "port") {
    request.port.to = option_or(args, "to", "");
  } else if (verb == "check") {
    request.check.derivative = option_or(args, "derivative", "SC88-A");
  } else if (verb == "lint") {
    request.lint.derivative = option_or(args, "derivative", "SC88-A");
  } else if (verb == "release") {
    request.release.name = option_or(args, "name", "R1");
    request.release.derivative = option_or(args, "derivative", "SC88-A");
    request.release.platform = option_or(args, "platform", "golden-model");
  } else if (verb == "random") {
    request.random.derivative = option_or(args, "derivative", "SC88-A");
    return parse_count(args, "seed", "advm.bad-seed", &request.random.seed);
  }
  return {};
}

/// The shared output contract: JSON document on stdout in --format json
/// mode; otherwise the human text — on stderr when the verb failed
/// before running (exit 2, bare diagnostic), on stdout when it ran.
int print_outcome(const Args& args, int exit_code, const std::string& json,
                  const std::string& text) {
  if (args.json) {
    std::cout << json << "\n";
  } else if (exit_code == 2) {
    std::cerr << text;
  } else {
    std::cout << text;
  }
  return exit_code;
}

/// The socket a verb should attach to: --attach <socket> wins, then the
/// ADVM_SOCKET environment. Empty = run locally in this process.
std::string attach_socket(const Args& args) {
  auto it = args.options.find("attach");
  if (it != args.options.end()) return it->second;
  if (const char* env = std::getenv("ADVM_SOCKET")) return env;
  return "";
}

/// Runs a verb against the resident daemon: marshal the typed request
/// over the socket, print the returned documents exactly as a local run
/// would (the payload IS the local JSON, byte for byte), exit with the
/// daemon-computed code.
int run_attached(const Args& args, const std::string& socket,
                 serve::VerbRequest request) {
  // The daemon's working directory is not the client's: ship an absolute,
  // normalized path so both sides (and the daemon's per-dir VFS roots)
  // agree on which tree this is.
  std::error_code ec;
  const std::filesystem::path absolute =
      std::filesystem::absolute(request.dir, ec);
  if (!ec) request.dir = absolute.lexically_normal().string();

  serve::Frame frame;
  frame.id = 1;
  frame.verb = request.verb;
  frame.payload = serve::to_json(request);
  serve::Frame response;
  if (Status status = serve::attach_roundtrip(socket, frame, &response);
      !status.ok()) {
    return render_status(args, request.verb.c_str(), status);
  }
  return print_outcome(args, response.exit, response.payload, response.text);
}

/// Every verb, one adapter: build the typed request from flags, then
/// either ship it to the daemon (--attach / ADVM_SOCKET) or execute it on
/// a session in this process. Both paths render through print_outcome.
int cmd_verb(const Args& args, const char* verb) {
  serve::VerbRequest request;
  if (Status status = build_verb_request(args, verb, &request);
      !status.ok()) {
    return render_status(args, verb, status);
  }
  const std::string socket = attach_socket(args);
  if (!socket.empty()) return run_attached(args, socket, std::move(request));

  std::string import_error;
  auto session = make_session(args, verb, &import_error,
                              /*import=*/request.verb != "init");
  if (!session) return 2;
  const serve::VerbOutcome outcome =
      serve::execute_verb(*session, request, import_error);
  return print_outcome(args, outcome.exit, outcome.json, outcome.text);
}

/// `advm serve` — the resident daemon (and its control verbs). With
/// --stats or --stop the command is a thin client instead: one control
/// frame to the live daemon, its document printed like any verb.
int cmd_serve(const Args& args) {
  std::string socket = option_or(args, "socket", "");
  if (socket.empty()) {
    if (const char* env = std::getenv("ADVM_SOCKET")) socket = env;
  }
  if (socket.empty()) {
    return render_status(
        args, "serve",
        Status::error("advm.serve-socket-path",
                      "missing --socket <path> (or ADVM_SOCKET)"));
  }

  if (args.options.count("stop") || args.options.count("stats")) {
    serve::Frame frame;
    frame.id = 1;
    frame.verb = args.options.count("stop") ? "shutdown" : "stats";
    frame.payload = "{}";
    serve::Frame response;
    if (Status status = serve::attach_roundtrip(socket, frame, &response);
        !status.ok()) {
      return render_status(args, "serve", status);
    }
    return print_outcome(args, response.exit, response.payload,
                         response.text);
  }

  serve::DaemonConfig config;
  config.socket_path = socket;
  if (Status status = config_from_args(args, &config.session);
      !status.ok()) {
    return render_status(args, "serve", status);
  }
  if (Status status = parse_count(args, "idle-timeout-ms",
                                  "advm.bad-idle-timeout",
                                  &config.idle_timeout_ms);
      !status.ok()) {
    return render_status(args, "serve", status);
  }

  serve::Daemon daemon(std::move(config));
  if (Status status = daemon.start(); !status.ok()) {
    return render_status(args, "serve", status);
  }
  // Readiness line on stderr — stdout stays reserved for documents, and
  // wrappers wait on the socket file anyway.
  std::cerr << "advm daemon listening on " << socket << "\n";
  return daemon.serve();
}

int usage() {
  std::cerr
      << "advm — assembler-driven verification methodology toolchain\n"
         "usage:\n"
         "  advm init  <dir> [--derivative SC88-A] [--tests N] [--jobs N]\n"
         "  advm run   <dir> [--derivative D] [--platform P] [--jobs N]"
         " [--cache-dir DIR]\n"
         "  advm matrix <dir> [--derivatives A,B,C] [--platforms P,Q]"
         " [--jobs N] [--cache-dir DIR]\n"
         "  advm port  <dir> --to <derivative>\n"
         "  advm check <dir> [--derivative D]\n"
         "  advm lint  <dir> [--derivative D] [--jobs N]\n"
         "  advm release <dir> [--name R1] [--derivative D] [--platform P]"
         " [--jobs N]\n"
         "  advm random <dir> --seed K [--derivative D]\n"
         "  advm serve --socket <path> [--jobs N] [--cache-dir DIR]"
         " [--idle-timeout-ms MS]\n"
         "             | --stats | --stop\n"
         "options: --format json renders any verb's result as JSON;\n"
         "         --attach <socket> (or ADVM_SOCKET) runs any verb on a"
         " resident daemon;\n"
         "         --lint (run/matrix) lints the tree first and refuses"
         " to execute on findings\n";
  return 2;
}

bool is_verb(std::string_view command) {
  for (std::string_view verb : {"init", "run", "matrix", "port", "check",
                                "lint", "release", "random", "serve"}) {
    if (command == verb) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (!is_verb(args.command)) {
    if (!args.command.empty()) {
      std::cerr << "unknown verb '" << args.command << "'\n";
    }
    return usage();
  }
  if (!args.error.ok()) {
    return render_status(args, args.command.c_str(), args.error);
  }
  // serve is addressed by --socket — no positional directory.
  if (args.dir.empty() && args.command != "serve") return usage();
  // Strict like --jobs: a typo'd --format must not silently feed human
  // text to a JSON consumer.
  auto format = args.options.find("format");
  if (format != args.options.end() && format->second != "json" &&
      format->second != "text") {
    std::cerr << "invalid --format value '" << format->second
              << "' (expected json or text)\n";
    return 2;
  }
  try {
    if (args.command == "serve") return cmd_serve(args);
    return cmd_verb(args, args.command.c_str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
