#include "advm/session.h"

#include <utility>

#include "advm/random_globals.h"
#include "soc/derivative.h"
#include "sim/platform.h"
#include "support/text.h"

namespace advm::core {

using support::join_path;

bool MatrixResult::all_passed() const {
  if (cells.empty()) return false;
  for (const RegressionReport& cell : cells) {
    if (!cell.all_passed()) return false;
  }
  return true;
}

namespace {

Status unknown_derivative(std::string_view name) {
  std::string message = "unknown derivative '" + std::string(name) +
                        "'; known:";
  for (const soc::DerivativeSpec* d : soc::all_derivatives()) {
    message += " " + d->name;
  }
  return Status::error("advm.unknown-derivative", std::move(message));
}

Status unknown_platform(std::string_view name) {
  std::string message = "unknown platform '" + std::string(name) +
                        "'; known:";
  for (sim::PlatformKind kind : sim::kAllPlatforms) {
    message += ' ';
    message += sim::to_string(kind);
  }
  return Status::error("advm.unknown-platform", std::move(message));
}

Status bad_root(std::string_view root) {
  return Status::error("advm.bad-root",
                       "no test environments under '" + std::string(root) +
                           "' (expected module directories with " +
                           kTestplanFile + ")");
}

const soc::DerivativeSpec* find_spec(std::string_view name) {
  return soc::find_derivative(std::string(name));
}

std::optional<sim::PlatformKind> find_platform(std::string_view name) {
  return sim::platform_from_name(name);
}

}  // namespace

Status SessionConfig::validate() const {
  if (jobs > kMaxJobs) {
    return Status::error(
        "advm.bad-jobs",
        "jobs value " + std::to_string(jobs) + " exceeds the limit " +
            std::to_string(kMaxJobs) +
            " (0 = one worker per hardware thread)");
  }
  return {};
}

SystemLayout layout_from_tree(const support::VirtualFileSystem& vfs,
                              std::string_view root) {
  SystemLayout layout;
  layout.root = support::normalize_path(root);
  layout.global_dir = join_path(layout.root, kGlobalLibrariesDir);
  for (std::string& dir : discover_environments(vfs, layout.root)) {
    EnvironmentLayout env;
    env.name = support::base_name(dir);
    env.dir = std::move(dir);
    env.abstraction_dir = join_path(env.dir, kAbstractionLayerDir);
    env.advm_style = vfs.dir_exists(env.abstraction_dir);
    layout.environments.push_back(std::move(env));
  }
  return layout;
}

BuildResult Session::run(const BuildRequest& request) {
  BuildResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (request.root.empty() || request.root == "/") {
    result.status = Status::error("advm.bad-root",
                                  "build root must name a directory");
    return result;
  }
  if (request.tests_per_module > BuildRequest::kMaxTestsPerModule) {
    result.status = Status::error(
        "advm.bad-tests",
        "tests value " + std::to_string(request.tests_per_module) +
            " exceeds the limit " +
            std::to_string(BuildRequest::kMaxTestsPerModule));
    return result;
  }

  result.derivative = spec->name;

  SystemConfig config;
  config.root = request.root;
  config.globals = request.globals;
  config.base_functions = request.base_functions;
  config.environments = request.environments;
  if (config.environments.empty()) {
    config.environments = canonical_environments(request.tests_per_module);
  }

  result.layout = build_system(vfs_, config, *spec, config_.jobs);
  result.files = vfs_.list_tree(result.layout.root).size();
  for (const EnvironmentLayout& env : result.layout.environments) {
    result.tests += env.tests.size();
  }
  return result;
}

RunResult Session::run(const RunRequest& request) {
  RunResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  const auto platform = find_platform(request.platform);
  if (!platform) {
    result.status = unknown_platform(request.platform);
    return result;
  }
  if (discover_environments(vfs_, request.root).empty()) {
    result.status = bad_root(request.root);
    return result;
  }

  RegressionRunner runner(context());
  result.report = runner.run_system(request.root, *spec, *platform,
                                    request.max_instructions);
  return result;
}

MatrixResult Session::run(const MatrixRequest& request) {
  MatrixResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  std::vector<const soc::DerivativeSpec*> specs;
  for (const std::string& name : request.derivatives) {
    const soc::DerivativeSpec* spec = find_spec(name);
    if (spec == nullptr) {
      result.status = unknown_derivative(name);
      return result;
    }
    specs.push_back(spec);
  }
  std::vector<sim::PlatformKind> platforms;
  for (const std::string& name : request.platforms) {
    const auto platform = find_platform(name);
    if (!platform) {
      result.status = unknown_platform(name);
      return result;
    }
    platforms.push_back(*platform);
  }
  if (specs.empty() || platforms.empty()) {
    result.status = Status::error(
        "advm.empty-matrix", "matrix needs at least one derivative and one "
                             "platform");
    return result;
  }
  if (discover_environments(vfs_, request.root).empty()) {
    result.status = bad_root(request.root);
    return result;
  }

  // Derivative-major cube order: the report order every consumer (roll-up,
  // goldens, CI gates) relies on.
  std::vector<MatrixCell> cells;
  cells.reserve(specs.size() * platforms.size());
  for (const soc::DerivativeSpec* spec : specs) {
    for (const sim::PlatformKind platform : platforms) {
      cells.push_back({spec, platform});
    }
  }
  RegressionRunner runner(context());
  result.cells =
      runner.run_matrix(request.root, cells, request.max_instructions);
  return result;
}

PortResult Session::run(const PortRequest& request) {
  PortResult result;
  const soc::DerivativeSpec* target = find_spec(request.to);
  if (target == nullptr) {
    result.status = unknown_derivative(request.to);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }
  result.target = target->name;

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  PortingEngine porter(context());
  result.repair =
      porter.port(layout, *target, request.globals, request.base_functions);
  return result;
}

CheckResult Session::run(const CheckRequest& request) {
  CheckResult result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  ViolationChecker checker(context());
  result.report = checker.check_system(request.root, *spec);
  return result;
}

LintResult Session::run(const LintRequest& request) {
  LintResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  Linter linter(context());
  result.report = linter.lint_system(request.root, *spec);
  return result;
}

ReleaseResult Session::run(const ReleaseRequest& request) {
  ReleaseResult result;
  result.status = config_.validate();
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  const auto platform = find_platform(request.platform);
  if (!platform) {
    result.status = unknown_platform(request.platform);
    return result;
  }
  if (request.name.empty()) {
    result.status =
        Status::error("advm.bad-release-name", "release name must not be "
                                               "empty");
    return result;
  }
  if (discover_environments(vfs_, request.root).empty()) {
    result.status = bad_root(request.root);
    return result;
  }

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  ReleaseManager manager(context(), config_.release_root);
  result.release = manager.create_system_release(request.name, layout);
  result.verified = manager.verify(result.release);
  if (request.regress) {
    result.frozen = manager.run_frozen(result.release, *spec, *platform,
                                       request.max_instructions);
  }
  return result;
}

RandomResult Session::run(const RandomRequest& request) {
  RandomResult result;
  const soc::DerivativeSpec* spec = find_spec(request.derivative);
  if (spec == nullptr) {
    result.status = unknown_derivative(request.derivative);
    return result;
  }
  if (!vfs_.dir_exists(request.root)) {
    result.status = bad_root(request.root);
    return result;
  }

  result.seed = request.seed;
  result.values =
      randomize_defines(default_constraints(*spec), request.seed);
  GlobalsOptions options;
  options.overrides = result.values;
  for (const std::string& env_dir :
       discover_environments(vfs_, request.root)) {
    const std::string abstraction = join_path(env_dir, kAbstractionLayerDir);
    if (!vfs_.dir_exists(abstraction)) continue;
    vfs_.write(join_path(abstraction, kGlobalsFile),
               generate_globals(*spec, options));
    ++result.regenerated;
  }
  return result;
}

}  // namespace advm::core
