// E2 — paper Fig 6 / §4: specification and derivative changes on the page
// control field.
//
// Two change scenarios, straight from the paper:
//   1. "the location of these control bits have been shifted by one"
//   2. "the page control field size has increased by one bit"
//
// For test counts N ∈ {5,10,20,40,80} the harness builds ADVM and direct
// environments, applies the change, repairs each per its methodology, and
// reports the edit surface (files touched, lines changed) plus the
// post-repair regression outcome. The paper's claim — ADVM cost is O(1) in
// N, direct cost is O(N) — is the shape to look for.
#include <iostream>

#include "advm/environment.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "bench_util.h"
#include "soc/derivative.h"
#include "support/vfs.h"

using namespace advm;
using namespace advm::core;

namespace {

struct Outcome {
  std::size_t files = 0;
  std::size_t lines = 0;
  std::size_t passed = 0;
  std::size_t total = 0;
};

Outcome run_arm(bool advm_style, std::size_t test_count,
                const ChangeEvent& event) {
  support::VirtualFileSystem vfs;
  SystemConfig config;
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, test_count, advm_style}};
  auto layout = build_system(vfs, config, soc::derivative_a());

  soc::DerivativeSpec changed = apply_change(soc::derivative_a(), event);

  PortingEngine porter(vfs);
  auto repair =
      porter.port(layout, changed, config.globals, config.base_functions);

  Outcome out;
  const EditSummary& edits =
      advm_style ? repair.abstraction_layer : repair.test_layer;
  out.files = edits.files_touched();
  out.lines = edits.lines().total();

  RegressionRunner runner(vfs);
  auto report =
      runner.run_system(layout.root, changed, sim::PlatformKind::GoldenModel);
  out.passed = report.passed();
  out.total = report.records.size();
  return out;
}

void run_scenario(const char* title, const ChangeEvent& event) {
  std::cout << "\nscenario: " << title << " [" << event.describe() << "]\n";
  bench::Table table({"tests N", "ADVM files", "ADVM lines", "direct files",
                      "direct lines", "ADVM pass", "direct pass"});
  for (std::size_t n : {5u, 10u, 20u, 40u, 80u}) {
    Outcome advm_arm = run_arm(true, n, event);
    Outcome direct_arm = run_arm(false, n, event);
    table.add_row(n, advm_arm.files, advm_arm.lines, direct_arm.files,
                  direct_arm.lines,
                  std::to_string(advm_arm.passed) + "/" +
                      std::to_string(advm_arm.total),
                  std::to_string(direct_arm.passed) + "/" +
                      std::to_string(direct_arm.total));
  }
  table.print();
}

}  // namespace

int main() {
  bench::banner(
      "E2 — page-field specification/derivative change (paper Fig 6, §4)",
      "Edit surface to re-green the page-module environment after the "
      "paper's two\nchange scenarios, as the test count grows. ADVM repairs "
      "the abstraction\nlayer once; the direct methodology re-authors every "
      "test.");

  run_scenario("spec change: field position shifted by one",
               ChangeEvent{ChangeKind::PageFieldMoved, 1, nullptr});
  run_scenario("derivative change: field widened by one bit (more pages)",
               ChangeEvent{ChangeKind::PageFieldWidened, 1, nullptr});

  std::cout << "\npaper claim: \"this change can be absorbed easily by "
               "modifying only the\nglobals file instead of having to edit "
               "each test file\" — ADVM columns are\nconstant in N, direct "
               "columns grow linearly.\n";
  return 0;
}
