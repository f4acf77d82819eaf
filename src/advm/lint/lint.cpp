#include "advm/lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "advm/lint/analyses.h"
#include "advm/lint/cfg.h"
#include "advm/regression.h"
#include "support/text.h"

namespace advm::core {

std::size_t LintReport::count(std::string_view code) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const LintFinding& f) { return f.code == code; }));
}

std::map<std::string, std::size_t> LintReport::by_code() const {
  std::map<std::string, std::size_t> out;
  for (const auto& f : findings) ++out[f.code];
  return out;
}

namespace {

LintFinding finding(const EnvBuildContext& env, std::size_t test,
                    std::string code, std::string file, std::string detail) {
  LintFinding f;
  f.code = std::move(code);
  f.environment = support::base_name(env.dir);
  f.test_id = env.tests[test];
  f.file = std::move(file);
  f.detail = std::move(detail);
  return f;
}

/// Lints cell `test` of `env`. A cell that does not build yields its one
/// kLintUnbuildable finding, the failure build_cell reports.
std::vector<LintFinding> lint_cell(const support::VirtualFileSystem& vfs,
                                   ObjectCache& cache,
                                   const EnvBuildContext& env,
                                   std::size_t test,
                                   const soc::DerivativeSpec& spec) {
  CellBuild built = build_cell(vfs, cache, env, test, spec);
  if (!built.image) {
    return {finding(env, test, kLintUnbuildable,
                    std::move(built.failed_file), std::move(built.failure))};
  }

  const std::string test_path = env.test_source(test);
  const lint::CodeModel model = lint::build_code_model(*built.image);
  lint::AnalysisConfig config;
  config.rom_base = spec.rom_base;
  config.rom_size = spec.rom_size;
  config.es_rom_base = spec.es_rom_base;
  config.es_rom_size = spec.es_rom_size;
  config.scope_source = test_path;

  std::vector<LintFinding> findings;
  for (lint::Finding& f : lint::run_analyses(model, config)) {
    LintFinding out = finding(env, test, std::move(f.code), test_path,
                              std::move(f.detail));
    out.address = f.address;
    out.symbol = std::move(f.symbol);
    findings.push_back(std::move(out));
  }
  return findings;
}

}  // namespace

LintReport Linter::lint_system(std::string_view system_root,
                               const soc::DerivativeSpec& spec) {
  const std::vector<EnvBuildContext> envs =
      prepare_system(vfs_, system_root, jobs_, *cache_);
  struct Cell {
    std::size_t env = 0;
    std::size_t test = 0;
  };
  std::vector<Cell> cells;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    for (std::size_t t = 0; t < envs[e].tests.size(); ++t) {
      cells.push_back({e, t});
    }
  }

  // Cells are independent (the shared libraries assembled once per
  // environment and link by pointer), so fan out and concatenate in
  // discovery order — reports are byte-identical for any pool size.
  std::vector<std::vector<LintFinding>> per_cell(cells.size());
  parallel_for(cells.size(), jobs_, [&](std::size_t i) {
    per_cell[i] =
        lint_cell(vfs_, *cache_, envs[cells[i].env], cells[i].test, spec);
  });

  LintReport report;
  report.cells = cells.size();
  // Report files relative to the system root, so the document does not
  // depend on where the tree was imported.
  const std::string prefix = std::string(system_root) + "/";
  for (std::vector<LintFinding>& cell : per_cell) {
    for (LintFinding& f : cell) {
      if (f.file.rfind(prefix, 0) == 0) f.file.erase(0, prefix.size());
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

std::string format_lint_report(const LintReport& report) {
  std::string out;
  if (report.clean()) {
    out = "clean: no lint findings across " +
          std::to_string(report.cells) + " cell(s)\n";
    return out;
  }
  for (const LintFinding& f : report.findings) {
    out += f.file;
    if (f.address != 0 || !f.symbol.empty()) {
      char addr[16];
      std::snprintf(addr, sizeof addr, ":0x%08x", f.address);
      out += addr;
    }
    out += ": [" + f.code + "]";
    if (!f.symbol.empty()) out += " (" + f.symbol + ")";
    out += " " + f.detail + "\n";
  }
  out += std::to_string(report.findings.size()) + " finding(s) across " +
         std::to_string(report.cells) + " cell(s)\n";
  for (const auto& [code, n] : report.by_code()) {
    out += "  " + code + ": " + std::to_string(n) + "\n";
  }
  return out;
}

}  // namespace advm::core
