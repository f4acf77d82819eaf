// E1 — paper Figs 1 & 2: the layered structure is real and its violation is
// detectable.
//
// Builds the same logical test corpus twice — once in ADVM style, once in
// pre-ADVM direct style — and runs the abstraction-violation checker over
// both. The paper's Fig 2 "abuse" arm lights up every violation category;
// the ADVM arm is clean. Both arms pass their regression on the derivative
// they were built for, which is the point: the direct style *works* until
// the world changes (see E2/E3/E6).
#include <iostream>

#include "advm/environment.h"
#include "advm/regression.h"
#include "advm/violations.h"
#include "bench_util.h"
#include "soc/derivative.h"
#include "support/vfs.h"

using namespace advm;
using namespace advm::core;

namespace {

core::SystemConfig config(bool advm_style) {
  core::SystemConfig c;
  c.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 20, advm_style},
      {"UART_MODULE", ModuleKind::Uart, 15, advm_style},
      {"NVM_MODULE", ModuleKind::Nvm, 15, advm_style},
      {"TIMER_MODULE", ModuleKind::Timer, 10, advm_style},
  };
  return c;
}

struct Arm {
  std::string name;
  ViolationReport violations;
  std::size_t tests = 0;
  std::size_t passed = 0;
};

Arm evaluate(bool advm_style) {
  support::VirtualFileSystem vfs;
  auto layout =
      core::build_system(vfs, config(advm_style), soc::derivative_a());

  Arm arm;
  arm.name = advm_style ? "ADVM (Fig 1)" : "direct (Fig 2 abuse)";
  ViolationChecker checker(vfs);
  arm.violations = checker.check_system(layout.root, soc::derivative_a());

  RegressionRunner runner(vfs);
  auto report = runner.run_system(layout.root, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);
  arm.tests = report.records.size();
  arm.passed = report.passed();
  return arm;
}

}  // namespace

int main() {
  bench::banner("E1 — test environment structure (paper Figs 1 and 2)",
                "Same 60-test corpus in both methodologies; violations by "
                "category and\nregression outcome on the home derivative "
                "(SC88-A, golden model).");

  Arm advm_arm = evaluate(true);
  Arm direct_arm = evaluate(false);

  bench::Table table({"violation category", "ADVM (Fig 1)",
                      "direct (Fig 2 abuse)"});
  for (const char* code :
       {"advm.global-include", "advm.global-call", "advm.hardwired-magic",
        "advm.hardwired-field", "advm.derivative-name", "advm.unbuildable"}) {
    table.add_row(code, advm_arm.violations.count(code),
                  direct_arm.violations.count(code));
  }
  table.add_row("TOTAL", advm_arm.violations.violations.size(),
                direct_arm.violations.violations.size());
  table.print();

  std::cout << "\nregression on home derivative:\n";
  bench::Table reg({"arm", "tests", "passed"});
  reg.add_row(advm_arm.name, advm_arm.tests, advm_arm.passed);
  reg.add_row(direct_arm.name, direct_arm.tests, direct_arm.passed);
  reg.print();

  std::cout << "\npaper claim: the structure separates layers; bypassing it "
               "is visible.\nmeasured: ADVM arm has "
            << advm_arm.violations.violations.size()
            << " violations; direct arm has "
            << direct_arm.violations.violations.size()
            << " across every category — while both still pass at home.\n";
  return 0;
}
