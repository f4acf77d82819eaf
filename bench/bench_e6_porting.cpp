// E6 — the headline claim (paper §5): "Rapid porting to new derivatives is
// achieved since the abstraction layer is inherited by all tests."
//
// Ports a full 60-test, four-environment system verification environment
// along the shipped derivative chain SC88-A → B → C → D. Per hop and per
// methodology: files touched, lines changed, post-port regression result.
// The D hop is the brutal one: moved peripherals, renamed registers, new
// ES, new UART — the direct arm does not even assemble until every test is
// re-authored.
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

SystemConfig config(bool advm_style) {
  SystemConfig c;
  c.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 20, advm_style},
      {"UART_MODULE", ModuleKind::Uart, 15, advm_style},
      {"NVM_MODULE", ModuleKind::Nvm, 15, advm_style},
      {"TIMER_MODULE", ModuleKind::Timer, 10, advm_style},
  };
  return c;
}

}  // namespace

int main() {
  bench::banner(
      "E6 — rapid porting across the derivative family (paper §5 headline)",
      "Port a 60-test system environment A→B→C→D; edit surface and "
      "post-port\nregression per methodology.");

  const std::vector<const soc::DerivativeSpec*> chain = {
      &soc::derivative_a(), &soc::derivative_b(), &soc::derivative_c(),
      &soc::derivative_d()};

  bench::Table table({"port", "methodology", "files touched", "lines changed",
                      "regression"});

  for (bool advm_style : {true, false}) {
    support::VirtualFileSystem vfs;
    SystemConfig c = config(advm_style);
    auto layout = build_system(vfs, c, *chain[0]);
    RegressionRunner runner(vfs);
    PortingEngine porter(vfs);

    for (std::size_t hop = 1; hop < chain.size(); ++hop) {
      const soc::DerivativeSpec& target = *chain[hop];
      auto repair =
          porter.port(layout, target, c.globals, c.base_functions);

      const EditSummary& edits =
          advm_style ? repair.abstraction_layer : repair.test_layer;
      auto report = runner.run_system(layout.root, target,
                                      sim::PlatformKind::GoldenModel);
      table.add_row(chain[hop - 1]->name + " -> " + target.name,
                    advm_style ? "ADVM" : "direct", edits.files_touched(),
                    edits.lines().total(),
                    std::to_string(report.passed()) + "/" +
                        std::to_string(report.records.size()));
    }
  }
  table.print();

  // The stale-arm control: what happens to an unrepaired direct suite when
  // the world moves underneath it.
  std::cout << "\ncontrol: unrepaired direct suite after the world moves to "
               "each target:\n";
  bench::Table stale({"target", "pass", "build failures"});
  for (std::size_t hop = 1; hop < chain.size(); ++hop) {
    support::VirtualFileSystem vfs;
    auto layout = build_system(vfs, config(false), *chain[0]);
    regenerate_global_layer(vfs, layout, *chain[hop]);
    auto report = RegressionRunner(vfs).run_system(
        layout.root, *chain[hop], sim::PlatformKind::GoldenModel);
    stale.add_row(chain[hop]->name,
                  std::to_string(report.passed()) + "/" +
                      std::to_string(report.records.size()),
                  report.build_failures());
  }
  stale.print();

  std::cout << "\npaper claim: porting = regenerating the abstraction layer; "
               "every test\ninherits it. measured: ADVM touches the two "
               "abstraction files per\nenvironment regardless of suite size "
               "and passes everywhere; the direct\narm re-authors all 60 "
               "tests per hop (and, unrepaired, collapses).\n";
  return 0;
}
