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
// Every verb is the same thin adapter: parse the command line into a flag
// map, hand the verb, its directory and that map to serve::execute_verb
// (src/advm/serve/service.h) — the one place flag names become a typed
// request — on one advm::Session (which owns the VFS, object cache, board
// pool and thread-pool size), and print the rendered result. `--format
// json` (any verb) prints the stable machine-readable document from
// src/advm/report.h instead of the human text. Flags come from one table
// (kFlags); an unknown flag is a typed advm.bad-option.
//
// `--cache-dir` points the content-addressed object cache at a persistent
// directory that consecutive invocations share. `--attach <socket>` (or
// ADVM_SOCKET) ships the same verb, directory and flag map to a resident
// `advm serve` daemon instead — same checks, same documents, same exit
// codes, but a warm shared Session (with the daemon's own --jobs and
// --cache-dir) on the far side.
//
// Environments are imported from disk into the session's VFS, transformed,
// and written back — so `port` literally edits only the abstraction layer
// files in your working copy.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>

#include "advm/report.h"
#include "advm/serve/client.h"
#include "advm/serve/daemon.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "advm/session.h"
#include "support/disk.h"

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
  serve::Options options;
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

/// Runs a verb against the resident daemon: ship the verb, the tree's
/// directory and the flag map over the socket, print the returned
/// documents exactly as a local run would (the payload IS the local JSON,
/// byte for byte), exit with the daemon-computed code.
int run_attached(const Args& args, const std::string& socket,
                 serve::VerbRequest request) {
  // The daemon's working directory is not the client's: ship an absolute,
  // normalized path so both sides agree on which tree this is.
  std::error_code ec;
  const std::filesystem::path absolute =
      std::filesystem::absolute(request.dir, ec);
  if (!ec) request.dir = absolute.lexically_normal().string();

  serve::Frame frame;
  frame.id = 1;
  frame.verb = request.verb;
  frame.payload = serve::request_payload(request);
  serve::Frame response;
  if (Status status = serve::attach_roundtrip(socket, frame, &response);
      !status.ok()) {
    return render_status(args, request.verb.c_str(), status);
  }
  return print_outcome(args, response.exit, response.payload, response.text);
}

/// Every verb, one adapter: ship the verb, its directory and its flags to
/// the daemon (--attach / ADVM_SOCKET), or execute them on a session in
/// this process. Either way serve::execute_verb turns the flags into the
/// typed request, and the result renders through print_outcome.
int cmd_verb(const Args& args, const char* verb) {
  serve::VerbRequest request{verb, args.dir, args.options};
  const std::string socket = attach_socket(args);
  if (!socket.empty()) return run_attached(args, socket, std::move(request));

  SessionConfig config;
  if (!serve::session_config(args.options, &config).ok()) {
    config = {};  // execute_verb reports the bad value, as it does attached
  }
  Session session(std::move(config));
  // An unreadable tree is not fatal here: request validation (unknown
  // derivative/platform) still reports first, then root validation fails
  // and execute_verb substitutes this disk-level message.
  std::string import_error;
  if (request.verb != "init") {
    try {
      support::import_from_disk(session.vfs(), args.dir, kVfsRoot);
    } catch (const std::exception& e) {
      import_error = e.what();
    }
  }
  const serve::VerbOutcome outcome =
      serve::execute_verb(session, request, import_error);
  return print_outcome(args, outcome.exit, outcome.json, outcome.text);
}

/// `advm serve` — the resident daemon (and its control verbs). With
/// --stats or --stop the command is a thin client instead: one control
/// frame to the live daemon, its document printed like any verb.
int cmd_serve(const Args& args) {
  auto socket_flag = args.options.find("socket");
  std::string socket =
      socket_flag == args.options.end() ? "" : socket_flag->second;
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
  if (Status status = serve::session_config(args.options, &config.session);
      !status.ok()) {
    return render_status(args, "serve", status);
  }
  if (Status status = serve::parse_count(args.options, "idle-timeout-ms",
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

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (!serve::is_verb(args.command) && args.command != "serve") {
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
