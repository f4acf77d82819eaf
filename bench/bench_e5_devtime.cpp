// E5 — paper §2/§5: test development cost once the base functions exist.
//
// "Once this library has been created the development time of new tests for
//  this environment decreases considerably." and "there will be an initial
//  time penalty while developing the abstraction layer ... this time is
//  easily recovered".
//
// Development effort is proxied by authored source lines. The ADVM author
// pays the abstraction layer up front (Globals.inc + base_functions.asm)
// and then writes short tests against it; the direct author writes longer
// self-contained tests from line one. The harness reports per-class test
// sizes and the cumulative-authored-lines crossover.
#include <iostream>

#include "advm/base_functions.h"
#include "advm/corpus.h"
#include "advm/globals_gen.h"
#include "bench_util.h"
#include "soc/derivative.h"
#include "support/text.h"

using namespace advm;
using namespace advm::core;

int main() {
  bench::banner(
      "E5 — test development cost with and without the base functions "
      "(paper §2, §5)",
      "Effort proxy: authored source lines. ADVM pays the abstraction layer "
      "once;\ndirect pays per test.");

  const auto& spec = soc::derivative_a();
  const std::size_t layer_lines =
      support::count_lines(generate_globals(spec)) +
      support::count_lines(generate_base_functions());

  // --- per-class test sizes -------------------------------------------------
  bench::Table per_class(
      {"test class", "ADVM lines", "direct lines", "ratio"});
  double advm_mean = 0;
  double direct_mean = 0;
  std::size_t class_count = 0;
  for (ModuleKind module : {ModuleKind::Register, ModuleKind::Uart,
                            ModuleKind::Nvm, ModuleKind::Timer}) {
    // One representative per class: first lap of the corpus.
    auto corpus = build_corpus(module, 5);
    for (const TestSpec& t : corpus) {
      if (t.variant != 0) continue;
      const auto advm_lines =
          support::count_lines(advm_test_source(t));
      const auto direct_lines =
          support::count_lines(baseline_test_source(t, spec));
      per_class.add_row(to_string(t.cls), advm_lines, direct_lines,
                        static_cast<double>(direct_lines) /
                            static_cast<double>(advm_lines));
      advm_mean += static_cast<double>(advm_lines);
      direct_mean += static_cast<double>(direct_lines);
      ++class_count;
    }
  }
  per_class.print();
  advm_mean /= static_cast<double>(class_count);
  direct_mean /= static_cast<double>(class_count);

  // --- cumulative authored lines vs corpus size ------------------------------
  std::cout << "\ncumulative authored lines (abstraction layer = "
            << layer_lines << " lines up front):\n";
  bench::Table cumulative({"tests N", "ADVM total", "direct total", "winner"});
  std::size_t crossover = 0;
  for (std::size_t n : {1u, 2u, 5u, 10u, 20u, 40u, 80u, 160u}) {
    std::size_t advm_total = layer_lines;
    std::size_t direct_total = 0;
    for (ModuleKind module : {ModuleKind::Register, ModuleKind::Uart,
                              ModuleKind::Nvm, ModuleKind::Timer}) {
      auto corpus = build_corpus(module, (n + 3) / 4);
      for (const TestSpec& t : corpus) {
        advm_total += support::count_lines(advm_test_source(t));
        direct_total +=
            support::count_lines(baseline_test_source(t, spec));
      }
    }
    const bool advm_wins = advm_total < direct_total;
    if (advm_wins && crossover == 0) crossover = n;
    cumulative.add_row(n, advm_total, direct_total,
                       advm_wins ? "ADVM" : "direct");
  }
  cumulative.print();

  std::cout << "\nper-test means: ADVM " << advm_mean << " lines, direct "
            << direct_mean << " lines ("
            << direct_mean / advm_mean << "x).\n"
            << "paper claim: initial penalty, recovered as the suite grows — "
               "the ADVM\ncolumn starts higher (layer cost) and wins from N≈"
            << crossover << " tests onward.\n";
  return 0;
}
