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

/// What the validation preamble resolved: the first failure (if any),
/// and the spec and platform of every name it checked, in request order.
struct Checked {
  Status status;
  std::vector<const soc::DerivativeSpec*> specs;
  std::vector<sim::PlatformKind> platforms;
};

/// The one validation preamble every verb runs. It checks, in this order
/// and stopping at the first failure: the session config, each derivative
/// name, each platform name, the verb's own check (`verb_check`, computed
/// by the caller), and — when `tree` is set — that the tree holds at least
/// one environment.
Checked check_request(const SessionConfig& config,
                      const support::VirtualFileSystem& vfs,
                      const std::vector<std::string>& derivatives,
                      const std::vector<std::string>& platforms,
                      Status verb_check,
                      std::optional<std::string_view> tree) {
  Checked checked;
  checked.status = config.validate();
  if (!checked.status.ok()) return checked;
  for (const std::string& name : derivatives) {
    const soc::DerivativeSpec* spec = soc::find_derivative(name);
    if (spec == nullptr) {
      checked.status = unknown_derivative(name);
      return checked;
    }
    checked.specs.push_back(spec);
  }
  for (const std::string& name : platforms) {
    const auto platform = sim::platform_from_name(name);
    if (!platform) {
      checked.status = unknown_platform(name);
      return checked;
    }
    checked.platforms.push_back(*platform);
  }
  checked.status = std::move(verb_check);
  if (checked.status.ok() && tree &&
      discover_environments(vfs, *tree).empty()) {
    checked.status = bad_root(*tree);
  }
  return checked;
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
  Status verb_check;
  if (request.root.empty() || request.root == "/") {
    verb_check =
        Status::error("advm.bad-root", "build root must name a directory");
  } else if (request.tests_per_module > BuildRequest::kMaxTestsPerModule) {
    verb_check = Status::error(
        "advm.bad-tests",
        "tests value " + std::to_string(request.tests_per_module) +
            " exceeds the limit " +
            std::to_string(BuildRequest::kMaxTestsPerModule));
  }
  const Checked checked =
      check_request(config_, vfs_, {request.derivative}, {},
                    std::move(verb_check), std::nullopt);
  result.status = checked.status;
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec& spec = *checked.specs.front();
  result.derivative = spec.name;

  SystemConfig config;
  config.root = request.root;
  config.environments = canonical_environments(request.tests_per_module);

  result.layout = build_system(vfs_, config, spec, config_.jobs);
  result.files = vfs_.list_tree(result.layout.root).size();
  for (const EnvironmentLayout& env : result.layout.environments) {
    result.tests += env.tests.size();
  }
  return result;
}

RunResult Session::run(const RunRequest& request) {
  RunResult result;
  const Checked checked =
      check_request(config_, vfs_, {request.derivative}, {request.platform},
                    {}, request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;

  RegressionRunner runner(vfs_, config_.jobs, &cache_, &boards_);
  result.report =
      runner.run_system(request.root, *checked.specs.front(),
                        checked.platforms.front(), request.max_instructions);
  return result;
}

MatrixResult Session::run(const MatrixRequest& request) {
  MatrixResult result;
  Status verb_check;
  if (request.derivatives.empty() || request.platforms.empty()) {
    verb_check = Status::error("advm.empty-matrix",
                               "matrix needs at least one derivative and "
                               "one platform");
  }
  const Checked checked =
      check_request(config_, vfs_, request.derivatives, request.platforms,
                    std::move(verb_check), request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;

  // Derivative-major cube order: the report order every consumer (roll-up,
  // goldens, CI gates) relies on.
  std::vector<MatrixCell> cells;
  cells.reserve(checked.specs.size() * checked.platforms.size());
  for (const soc::DerivativeSpec* spec : checked.specs) {
    for (const sim::PlatformKind platform : checked.platforms) {
      cells.push_back({spec, platform});
    }
  }
  RegressionRunner runner(vfs_, config_.jobs, &cache_, &boards_);
  result.cells =
      runner.run_matrix(request.root, cells, request.max_instructions);
  return result;
}

PortResult Session::run(const PortRequest& request) {
  PortResult result;
  const Checked checked =
      check_request(config_, vfs_, {request.to}, {}, {}, request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec& target = *checked.specs.front();
  result.target = target.name;

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  PortingEngine porter(vfs_);
  result.repair = porter.port(layout, target, GlobalsOptions{},
                              BaseFunctionsOptions{});
  return result;
}

CheckResult Session::run(const CheckRequest& request) {
  CheckResult result;
  const Checked checked = check_request(config_, vfs_, {request.derivative},
                                        {}, {}, request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;

  ViolationChecker checker(vfs_, &cache_);
  result.report = checker.check_system(request.root, *checked.specs.front());
  return result;
}

LintResult Session::run(const LintRequest& request) {
  LintResult result;
  const Checked checked = check_request(config_, vfs_, {request.derivative},
                                        {}, {}, request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;

  Linter linter(vfs_, cache_, config_.jobs);
  result.report = linter.lint_system(request.root, *checked.specs.front());
  return result;
}

ReleaseResult Session::run(const ReleaseRequest& request) {
  ReleaseResult result;
  Status verb_check;
  if (request.name.empty()) {
    verb_check = Status::error("advm.bad-release-name",
                               "release name must not be empty");
  }
  const Checked checked =
      check_request(config_, vfs_, {request.derivative}, {request.platform},
                    std::move(verb_check), request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;

  const SystemLayout layout = layout_from_tree(vfs_, request.root);
  ReleaseManager manager(vfs_, "/releases", config_.jobs, &cache_,
                         &boards_);
  result.release = manager.create_system_release(request.name, layout);
  result.verified = manager.verify(result.release);
  result.frozen =
      manager.run_frozen(result.release, *checked.specs.front(),
                         checked.platforms.front(), request.max_instructions);
  return result;
}

RandomResult Session::run(const RandomRequest& request) {
  RandomResult result;
  const Checked checked = check_request(config_, vfs_, {request.derivative},
                                        {}, {}, request.root);
  result.status = checked.status;
  if (!result.status.ok()) return result;
  const soc::DerivativeSpec& spec = *checked.specs.front();

  result.seed = request.seed;
  result.values = randomize_defines(default_constraints(spec), request.seed);
  GlobalsOptions options;
  options.overrides = result.values;
  for (const std::string& env_dir :
       discover_environments(vfs_, request.root)) {
    const std::string abstraction = join_path(env_dir, kAbstractionLayerDir);
    if (!vfs_.dir_exists(abstraction)) continue;
    vfs_.write(join_path(abstraction, kGlobalsFile),
               generate_globals(spec, options));
    ++result.regenerated;
  }
  return result;
}

}  // namespace advm::core
