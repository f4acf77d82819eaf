#include "advm/serve/service.h"

#include <sstream>
#include <utility>

#include "advm/globals_gen.h"
#include "advm/report.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/json.h"

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

void append_names(std::ostringstream& os, const char* key,
                  const std::vector<std::string>& names) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) os << ",";
    os << quoted(names[i]);
  }
  os << "]";
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

VerbOutcome do_init(Session& session, const VerbRequest& request) {
  BuildRequest build = request.build;
  build.root = kVfsRoot;
  BuildResult result = session.run(build);
  if (!result.status.ok()) return error_outcome(std::move(result), {});
  const std::size_t written =
      support::export_to_disk(session.vfs(), kVfsRoot, request.dir);
  VerbOutcome outcome;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << "created " << request.dir << " for " << result.derivative << ": "
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

VerbOutcome do_run(Session& session, const VerbRequest& request,
                   const std::string& import_error) {
  RunRequest run = request.run;
  run.root = kVfsRoot;
  if (request.lint_gate) {
    if (auto gate =
            lint_gate_outcome(session, {run.derivative}, import_error)) {
      return *gate;
    }
  }
  RunResult result = session.run(run);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.report.all_passed() ? 0 : 1;
  outcome.json = to_json(result);
  outcome.text = format_report(result.report);
  return outcome;
}

VerbOutcome do_matrix(Session& session, const VerbRequest& request,
                      const std::string& import_error) {
  MatrixRequest matrix = request.matrix;
  matrix.root = kVfsRoot;
  if (request.lint_gate) {
    if (auto gate =
            lint_gate_outcome(session, matrix.derivatives, import_error)) {
      return *gate;
    }
  }
  MatrixResult result = session.run(matrix);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
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

VerbOutcome do_port(Session& session, const VerbRequest& request,
                    const std::string& import_error) {
  PortRequest port = request.port;
  port.root = kVfsRoot;
  PortResult result = session.run(port);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
  }
  support::export_to_disk(session.vfs(), kVfsRoot, request.dir);
  VerbOutcome outcome;
  outcome.json = to_json(result);
  std::ostringstream text;
  text << "ported " << request.dir << " to " << result.target << "\n"
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

VerbOutcome do_check(Session& session, const VerbRequest& request,
                     const std::string& import_error) {
  CheckRequest check = request.check;
  check.root = kVfsRoot;
  CheckResult result = session.run(check);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
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

VerbOutcome do_lint(Session& session, const VerbRequest& request,
                    const std::string& import_error) {
  LintRequest lint = request.lint;
  lint.root = kVfsRoot;
  LintResult result = session.run(lint);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
  }
  VerbOutcome outcome;
  outcome.exit = result.report.clean() ? 0 : 1;
  outcome.json = to_json(result);
  outcome.text = format_lint_report(result.report);
  return outcome;
}

VerbOutcome do_release(Session& session, const VerbRequest& request,
                       const std::string& import_error) {
  ReleaseRequest release = request.release;
  release.root = kVfsRoot;
  ReleaseResult result = session.run(release);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
  }
  // Persist the frozen snapshot next to the live tree (outside it, so
  // discovery and future releases never pick it up as an environment). A
  // later invocation can re-verify or re-regress it with plain
  // `advm run`.
  const std::string snapshot_dir =
      request.dir + ".releases/" + result.release.name;
  support::export_to_disk(session.vfs(), result.release.root, snapshot_dir);

  const bool frozen_green = result.frozen && result.frozen->all_passed();
  VerbOutcome outcome;
  outcome.exit = result.verified && frozen_green ? 0 : 1;
  outcome.json = to_json(result);
  std::ostringstream text;
  if (result.frozen) text << format_report(*result.frozen);
  text << "release " << result.release.name << ": "
       << result.release.sub_labels.size() << " sub-labels, composed "
       << support::hash_to_string(result.release.composed_hash)
       << (result.verified ? " (verified)" : " (TAMPERED)") << ", snapshot "
       << snapshot_dir << "\n";
  outcome.text = text.str();
  return outcome;
}

VerbOutcome do_random(Session& session, const VerbRequest& request,
                      const std::string& import_error) {
  RandomRequest random = request.random;
  random.root = kVfsRoot;
  RandomResult result = session.run(random);
  if (!result.status.ok()) {
    return error_outcome(std::move(result), import_error);
  }
  support::export_to_disk(session.vfs(), kVfsRoot, request.dir);
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

std::string to_json(const VerbRequest& request) {
  std::ostringstream os;
  os << "{\"verb\":" << quoted(request.verb) << ",\"dir\":"
     << quoted(request.dir);
  if (request.verb == "init") {
    os << ",\"derivative\":" << quoted(request.build.derivative)
       << ",\"tests\":" << request.build.tests_per_module;
  } else if (request.verb == "run") {
    os << ",\"derivative\":" << quoted(request.run.derivative)
       << ",\"platform\":" << quoted(request.run.platform)
       << ",\"max_instructions\":" << request.run.max_instructions;
    // Only serialized when set: pre-gate golden request bytes must not
    // change for gate-free runs.
    if (request.lint_gate) os << ",\"lint\":true";
  } else if (request.verb == "matrix") {
    append_names(os, "derivatives", request.matrix.derivatives);
    append_names(os, "platforms", request.matrix.platforms);
    os << ",\"max_instructions\":" << request.matrix.max_instructions;
    if (request.lint_gate) os << ",\"lint\":true";
  } else if (request.verb == "port") {
    os << ",\"to\":" << quoted(request.port.to);
  } else if (request.verb == "check") {
    os << ",\"derivative\":" << quoted(request.check.derivative);
  } else if (request.verb == "lint") {
    os << ",\"derivative\":" << quoted(request.lint.derivative);
  } else if (request.verb == "release") {
    os << ",\"name\":" << quoted(request.release.name) << ",\"derivative\":"
       << quoted(request.release.derivative) << ",\"platform\":"
       << quoted(request.release.platform)
       << ",\"max_instructions\":" << request.release.max_instructions;
  } else if (request.verb == "random") {
    os << ",\"derivative\":" << quoted(request.random.derivative)
       << ",\"seed\":" << request.random.seed;
  }
  os << "}";
  return os.str();
}

std::optional<VerbRequest> parse_verb_request(std::string_view document,
                                              std::string* error) {
  const auto fail =
      [error](std::string message) -> std::optional<VerbRequest> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = support::json::parse(document, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("malformed verb request: " +
                (parse_error.empty() ? "not an object" : parse_error));
  }
  const auto read_string = [&doc](const char* key)
      -> std::optional<std::string> {
    const auto* value = doc->find(key);
    return value ? value->as_string() : std::nullopt;
  };
  const auto read_uint = [&doc](const char* key)
      -> std::optional<std::uint64_t> {
    const auto* value = doc->find(key);
    return value ? value->as_uint64() : std::nullopt;
  };
  const auto read_bool = [&doc](const char* key) -> std::optional<bool> {
    const auto* value = doc->find(key);
    return value ? value->as_bool() : std::nullopt;
  };

  VerbRequest request;
  const auto verb = read_string("verb");
  if (!verb) return fail("verb request is missing a verb");
  request.verb = *verb;
  const auto dir = read_string("dir");
  if (!dir || dir->empty()) return fail("verb request is missing a dir");
  request.dir = *dir;

  if (request.verb == "init") {
    if (const auto v = read_string("derivative")) {
      request.build.derivative = *v;
    }
    if (const auto v = read_uint("tests")) {
      request.build.tests_per_module = static_cast<std::size_t>(*v);
    }
  } else if (request.verb == "run") {
    if (const auto v = read_string("derivative")) {
      request.run.derivative = *v;
    }
    if (const auto v = read_string("platform")) request.run.platform = *v;
    if (const auto v = read_uint("max_instructions")) {
      request.run.max_instructions = *v;
    }
    if (const auto v = read_bool("lint")) request.lint_gate = *v;
  } else if (request.verb == "matrix") {
    const auto read_names = [&doc](const char* key,
                                   std::vector<std::string>* out) {
      const auto* value = doc->find(key);
      if (value == nullptr || !value->is_array()) return;
      out->clear();
      for (const auto& item : value->items) {
        if (const auto name = item.as_string()) out->push_back(*name);
      }
    };
    read_names("derivatives", &request.matrix.derivatives);
    read_names("platforms", &request.matrix.platforms);
    if (const auto v = read_uint("max_instructions")) {
      request.matrix.max_instructions = *v;
    }
    if (const auto v = read_bool("lint")) request.lint_gate = *v;
  } else if (request.verb == "port") {
    if (const auto v = read_string("to")) request.port.to = *v;
  } else if (request.verb == "check") {
    if (const auto v = read_string("derivative")) {
      request.check.derivative = *v;
    }
  } else if (request.verb == "lint") {
    if (const auto v = read_string("derivative")) {
      request.lint.derivative = *v;
    }
  } else if (request.verb == "release") {
    if (const auto v = read_string("name")) request.release.name = *v;
    if (const auto v = read_string("derivative")) {
      request.release.derivative = *v;
    }
    if (const auto v = read_string("platform")) {
      request.release.platform = *v;
    }
    if (const auto v = read_uint("max_instructions")) {
      request.release.max_instructions = *v;
    }
  } else if (request.verb == "random") {
    if (const auto v = read_string("derivative")) {
      request.random.derivative = *v;
    }
    if (const auto v = read_uint("seed")) request.random.seed = *v;
  } else {
    return fail("unknown verb '" + request.verb + "'");
  }
  return request;
}

VerbOutcome execute_verb(Session& session, const VerbRequest& request,
                         const std::string& import_error) {
  try {
    if (request.verb == "init") return do_init(session, request);
    if (request.verb == "run") return do_run(session, request, import_error);
    if (request.verb == "matrix") {
      return do_matrix(session, request, import_error);
    }
    if (request.verb == "port") return do_port(session, request, import_error);
    if (request.verb == "check") {
      return do_check(session, request, import_error);
    }
    if (request.verb == "lint") return do_lint(session, request, import_error);
    if (request.verb == "release") {
      return do_release(session, request, import_error);
    }
    if (request.verb == "random") {
      return do_random(session, request, import_error);
    }
  } catch (const std::exception& e) {
    // Disk side effects (export/import) throw; surface them through the
    // shared error contract instead of unwinding into the caller's serve
    // loop (daemon) or main() (CLI).
    return status_outcome(request.verb,
                          Status::error("advm.export-failed", e.what()));
  }
  return status_outcome(
      request.verb,
      Status::error("advm.serve-bad-request",
                    "unknown verb '" + request.verb + "'"));
}

}  // namespace advm::core::serve
