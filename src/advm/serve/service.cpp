#include "advm/serve/service.h"

#include <sstream>
#include <utility>
#include <variant>

#include "advm/globals_gen.h"
#include "advm/report.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/text.h"

namespace advm::core::serve {

namespace {

std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += json_escape(s);
  out += '"';
  return out;
}

/// The render_error contract: a result whose Status failed renders as
/// its own document (to_json carries the error member), the bare message
/// as the text (stderr material), exit code 2. A root-validation failure
/// caused by an unreadable disk tree reports the disk-level message.
template <typename Result>
VerbOutcome error_outcome(Result result, const std::string& import_error) {
  if (!import_error.empty() && result.status.code == "advm.bad-root") {
    result.status = Status::error("advm.import-failed", import_error);
  }
  VerbOutcome outcome;
  outcome.exit = 2;
  outcome.json = to_json(result);
  outcome.text = result.status.message + "\n";
  return outcome;
}

/// A failure before any typed result exists (a disk side effect that
/// threw, an unknown verb): the shared error document.
VerbOutcome status_outcome(std::string_view verb, const Status& status) {
  VerbOutcome outcome;
  outcome.exit = 2;
  outcome.json = error_to_json(verb, status);
  outcome.text = status.message + "\n";
  return outcome;
}

constexpr std::string_view kVerbs[] = {"init", "run",  "matrix",  "port",
                                       "check", "lint", "release", "random"};

/// The flags of one verb, typed: its Session request, and for run/matrix
/// the --lint pre-run gate (lint the tree first, refuse to execute on any
/// finding).
struct TypedVerb {
  std::variant<BuildRequest, RunRequest, MatrixRequest, PortRequest,
               CheckRequest, LintRequest, ReleaseRequest, RandomRequest>
      request;
  bool lint_gate = false;
};

/// Overwrites *field with flag `key` when it is present; the request
/// struct's default stands otherwise.
void read_flag(const Options& options, const char* key, std::string* field) {
  const auto it = options.find(key);
  if (it != options.end()) *field = it->second;
}

/// A comma-separated name list flag (--derivatives, --platforms).
void read_names(const Options& options, const char* key,
                std::vector<std::string>* names) {
  const auto it = options.find(key);
  if (it == options.end()) return;
  names->clear();
  for (std::string_view name : support::split(it->second, ',')) {
    names->emplace_back(name);
  }
}

/// The one place verb flag names map onto typed Session requests. Typed
/// Status on a malformed numeric value or an unknown verb.
Status build_typed(const VerbRequest& request, TypedVerb* out) {
  const Options& options = request.options;
  const std::string& verb = request.verb;
  if (verb == "init") {
    BuildRequest build;
    read_flag(options, "derivative", &build.derivative);
    if (Status status = parse_count(options, "tests", "advm.bad-tests",
                                    &build.tests_per_module);
        !status.ok()) {
      return status;
    }
    out->request = std::move(build);
  } else if (verb == "run") {
    RunRequest run;
    read_flag(options, "derivative", &run.derivative);
    read_flag(options, "platform", &run.platform);
    out->request = std::move(run);
    out->lint_gate = options.count("lint") != 0;
  } else if (verb == "matrix") {
    MatrixRequest matrix;
    read_names(options, "derivatives", &matrix.derivatives);
    read_names(options, "platforms", &matrix.platforms);
    out->request = std::move(matrix);
    out->lint_gate = options.count("lint") != 0;
  } else if (verb == "port") {
    PortRequest port;
    read_flag(options, "to", &port.to);
    out->request = std::move(port);
  } else if (verb == "check") {
    CheckRequest check;
    read_flag(options, "derivative", &check.derivative);
    out->request = std::move(check);
  } else if (verb == "lint") {
    LintRequest lint;
    read_flag(options, "derivative", &lint.derivative);
    out->request = std::move(lint);
  } else if (verb == "release") {
    ReleaseRequest release;
    read_flag(options, "name", &release.name);
    read_flag(options, "derivative", &release.derivative);
    read_flag(options, "platform", &release.platform);
    out->request = std::move(release);
  } else if (verb == "random") {
    RandomRequest random;
    read_flag(options, "derivative", &random.derivative);
    if (Status status =
            parse_count(options, "seed", "advm.bad-seed", &random.seed);
        !status.ok()) {
      return status;
    }
    out->request = std::move(random);
  } else {
    return Status::error("advm.serve-bad-request",
                         "unknown verb '" + verb + "'");
  }
  std::visit([](auto& typed) { typed.root = kVfsRoot; }, out->request);
  return {};
}

/// What a verb needs besides its typed request.
struct Call {
  const std::string& dir;           ///< disk directory of the tree
  const std::string& import_error;  ///< disk-level import failure, if any
  bool lint_gate;
};

VerbOutcome do_verb(Session& session, const BuildRequest& build,
                    const Call& call) {
  BuildResult result = session.run(build);
  if (!result.status.ok()) return error_outcome(std::move(result), {});
  const std::size_t written =
      support::export_to_disk(session.vfs(), kVfsRoot, call.dir);
  VerbOutcome outcome;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << "created " << call.dir << " for " << result.derivative << ": "
       << written << " files, " << result.tests << " tests\n";
  outcome.text = text.str();
  return outcome;
}

/// The --lint pre-run gate: lint the tree for every derivative the run
/// will target and refuse to execute when any finding surfaces. Returns
/// the outcome to report (exit 1, the lint document) on a dirty or
/// failed lint, nullopt when the gate passes.
std::optional<VerbOutcome> lint_gate_outcome(
    Session& session, const std::vector<std::string>& derivatives,
    const std::string& import_error) {
  for (const std::string& derivative : derivatives) {
    LintRequest lint;
    lint.root = kVfsRoot;
    lint.derivative = derivative;
    LintResult result = session.run(lint);
    if (!result.status.ok()) {
      return error_outcome(std::move(result), import_error);
    }
    if (!result.report.clean()) {
      VerbOutcome outcome;
      outcome.exit = 1;
      outcome.json = to_json(result);
      outcome.text = format_lint_report(result.report) +
                     "lint gate failed: refusing to run\n";
      return outcome;
    }
  }
  return std::nullopt;
}

VerbOutcome do_verb(Session& session, const RunRequest& run,
                    const Call& call) {
  if (call.lint_gate) {
    if (auto gate =
            lint_gate_outcome(session, {run.derivative}, call.import_error)) {
      return *gate;
    }
  }
  RunResult result = session.run(run);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.report.all_passed() ? 0 : 1;
  outcome.json = to_json(result);
  outcome.text = format_report(result.report);
  return outcome;
}

VerbOutcome do_verb(Session& session, const MatrixRequest& matrix,
                    const Call& call) {
  if (call.lint_gate) {
    if (auto gate = lint_gate_outcome(session, matrix.derivatives,
                                      call.import_error)) {
      return *gate;
    }
  }
  MatrixResult result = session.run(matrix);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.all_passed() ? 0 : 1;
  outcome.json = to_json(result);
  std::ostringstream text;
  for (const auto& cell : result.cells) {
    text << format_report(cell) << "\n";
  }
  text << format_matrix_rollup(result);
  outcome.text = text.str();
  return outcome;
}

VerbOutcome do_verb(Session& session, const PortRequest& port,
                    const Call& call) {
  PortResult result = session.run(port);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  support::export_to_disk(session.vfs(), kVfsRoot, call.dir);
  VerbOutcome outcome;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << "ported " << call.dir << " to " << result.target << "\n"
       << "  global layer: " << result.repair.global_layer.files_touched()
       << " files\n"
       << "  abstraction layer: "
       << result.repair.abstraction_layer.files_touched() << " files, "
       << result.repair.abstraction_layer.lines().total() << " lines\n"
       << "  test layer: " << result.repair.test_layer.files_touched()
       << " files (ADVM environments: expected 0)\n";
  outcome.text = text.str();
  return outcome;
}

VerbOutcome do_verb(Session& session, const CheckRequest& check,
                    const Call& call) {
  CheckResult result = session.run(check);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.report.clean() ? 0 : 1;
  outcome.json = to_json(result);
  std::ostringstream text;
  if (result.report.clean()) {
    text << "clean: no abstraction violations\n";
  } else {
    for (const auto& v : result.report.violations) {
      text << v.file;
      if (v.loc.valid()) text << ":" << v.loc.line;
      text << ": [" << v.code << "] " << v.detail << "\n";
    }
    text << result.report.violations.size() << " violation(s)\n";
  }
  outcome.text = text.str();
  return outcome;
}

VerbOutcome do_verb(Session& session, const LintRequest& lint,
                    const Call& call) {
  LintResult result = session.run(lint);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.report.clean() ? 0 : 1;
  outcome.json = to_json(result);
  outcome.text = format_lint_report(result.report);
  return outcome;
}

VerbOutcome do_verb(Session& session, const ReleaseRequest& release,
                    const Call& call) {
  ReleaseResult result = session.run(release);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  // Persist the frozen snapshot next to the live tree (outside it, so
  // discovery and future releases never pick it up as an environment). A
  // later invocation can re-verify or re-regress it with plain
  // `advm run`.
  const std::string snapshot_dir =
      call.dir + ".releases/" + result.release.name;
  support::export_to_disk(session.vfs(), result.release.root, snapshot_dir);

  VerbOutcome outcome;
  outcome.exit = result.verified && result.frozen.all_passed() ? 0 : 1;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << format_report(result.frozen);
  text << "release " << result.release.name << ": "
       << result.release.sub_labels.size() << " sub-labels, composed "
       << support::hash_to_string(result.release.composed_hash)
       << (result.verified ? " (verified)" : " (TAMPERED)") << ", snapshot "
       << snapshot_dir << "\n";
  outcome.text = text.str();
  return outcome;
}

VerbOutcome do_verb(Session& session, const RandomRequest& random,
                    const Call& call) {
  RandomResult result = session.run(random);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), call.import_error);
  }
  support::export_to_disk(session.vfs(), kVfsRoot, call.dir);
  VerbOutcome outcome;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << "seed " << result.seed << ": regenerated " << result.regenerated
       << " Globals.inc instance(s); TEST1_TARGET_PAGE="
       << result.values.at(GlobalDefineNames::kTest1TargetPage)
       << " TEST2_TARGET_PAGE="
       << result.values.at(GlobalDefineNames::kTest2TargetPage) << "\n";
  outcome.text = text.str();
  return outcome;
}

}  // namespace

bool is_verb(std::string_view verb) {
  for (std::string_view known : kVerbs) {
    if (verb == known) return true;
  }
  return false;
}

std::string request_payload(const VerbRequest& request) {
  std::ostringstream os;
  os << "{\"dir\":" << quoted(request.dir) << ",\"options\":{";
  for (auto it = request.options.begin(); it != request.options.end(); ++it) {
    if (it != request.options.begin()) os << ",";
    os << quoted(it->first) << ":" << quoted(it->second);
  }
  os << "}}";
  return os.str();
}

std::optional<VerbRequest> parse_request_payload(std::string_view verb,
                                                 std::string_view payload,
                                                 std::string* error) {
  const auto fail =
      [error](std::string message) -> std::optional<VerbRequest> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  if (!is_verb(verb)) return fail("unknown verb '" + std::string(verb) + "'");
  std::string parse_error;
  const auto doc = support::json::parse(payload, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("malformed verb request: " +
                (parse_error.empty() ? "not an object" : parse_error));
  }
  const support::json::Value* dir = doc->find("dir");
  if (dir == nullptr || !dir->is_string() || dir->string.empty()) {
    return fail("verb request is missing a dir");
  }
  const support::json::Value* options = doc->find("options");
  if (options == nullptr || !options->is_object()) {
    return fail("verb request is missing its options");
  }
  VerbRequest request;
  request.verb = std::string(verb);
  request.dir = dir->string;
  for (const auto& [name, value] : options->members) {
    if (!value.is_string()) {
      return fail("option '" + name + "' is not a string");
    }
    request.options.insert_or_assign(name, value.string);
  }
  return request;
}

Status session_config(const Options& options, SessionConfig* config) {
  if (Status status =
          parse_count(options, "jobs", "advm.bad-jobs", &config->jobs);
      !status.ok()) {
    return status;
  }
  read_flag(options, "cache-dir", &config->cache_dir);
  return config->validate();
}

VerbOutcome execute_verb(Session& session, const VerbRequest& request,
                         const std::string& import_error) {
  TypedVerb typed;
  if (Status status = build_typed(request, &typed); !status.ok()) {
    return status_outcome(request.verb, status);
  }
  // Checked like a local run's, whichever process this is; the session
  // already runs with its own jobs and cache directory.
  SessionConfig flags;
  if (Status status = session_config(request.options, &flags);
      !status.ok()) {
    return status_outcome(request.verb, status);
  }
  const Call call{request.dir, import_error, typed.lint_gate};
  try {
    return std::visit(
        [&](const auto& typed_request) {
          return do_verb(session, typed_request, call);
        },
        typed.request);
  } catch (const std::exception& e) {
    // Disk side effects (export/import) throw; surface them through the
    // shared error contract instead of unwinding into the caller's serve
    // loop (daemon) or main() (CLI).
    return status_outcome(request.verb,
                          Status::error("advm.export-failed", e.what()));
  }
}

}  // namespace advm::core::serve
