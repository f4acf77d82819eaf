// E3 — paper Fig 7: global-layer churn absorbed by the Base-Functions
// wrapper.
//
// The paper's exact scenario: "A function located in the embedded software,
// which has been stable for months ... has now been re-written in such a
// way that the input registers have been swapped around." Plus the two
// follow-on scenarios it names: the function name changes, and the code
// changes entirely.
//
// For each scenario and test count N, both methodologies are repaired and
// the edit surface recorded. The ADVM repair is the Base_Init_Register
// wrapper (one library file per environment); the direct repair rewrites
// every test that called the ES function.
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
  std::size_t build_failures = 0;
};

Outcome run_arm(bool advm_style, std::size_t test_count,
                const ChangeEvent& event, int repaired_es_level) {
  support::VirtualFileSystem vfs;
  SystemConfig config;
  // Register-module corpus: its EsInit class calls the ES function via the
  // wrapper (ADVM) or directly (baseline).
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, test_count, advm_style}};
  config.base_functions.max_es_version = 1;  // library predates the churn
  auto layout = build_system(vfs, config, soc::derivative_a());

  soc::DerivativeSpec changed = apply_change(soc::derivative_a(), event);

  PortingEngine porter(vfs);
  BaseFunctionsOptions repaired;
  repaired.max_es_version = repaired_es_level;
  auto repair = porter.port(layout, changed, config.globals, repaired);

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
  out.build_failures = report.build_failures();
  return out;
}

void run_scenario(const char* title, const ChangeEvent& event,
                  int repaired_es_level) {
  std::cout << "\nscenario: " << title << "\n";
  bench::Table table({"tests N", "ADVM files", "ADVM lines", "direct files",
                      "direct lines", "ADVM pass", "direct pass"});
  for (std::size_t n : {5u, 10u, 20u, 40u, 80u}) {
    Outcome advm_arm = run_arm(true, n, event, repaired_es_level);
    Outcome direct_arm = run_arm(false, n, event, repaired_es_level);
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
      "E3 — embedded-software churn absorbed by wrappers (paper Fig 7)",
      "The ES function changes under the test environment; ADVM repairs the "
      "wrapper\nlibrary, the direct methodology re-authors every calling "
      "test.");

  run_scenario("input registers swapped (the paper's exact example)",
               ChangeEvent{ChangeKind::EsSignatureChanged, 0, nullptr},
               /*repaired_es_level=*/2);
  run_scenario("function renamed (paper: 'the function name' may change)",
               ChangeEvent{ChangeKind::EsFunctionRenamed, 0, nullptr},
               /*repaired_es_level=*/3);

  std::cout
      << "\npaper claim: \"only the 'Base Functions' file needs to be "
         "re-factored,\nsaving time and effort\" — ADVM edit surface is flat "
         "in N; the direct\nsurface grows with every test that called the ES "
         "directly.\n";
  return 0;
}
