// Ablation — which abstraction feature absorbs which change class?
//
// The paper sells the abstraction layer as a package (Globals.inc + wrapped
// Base Functions). §5 also notes adoption can be gradual ("The existing
// test environment is not lost, but can be replaced gradually"). This
// harness pulls the package apart into three arms over the same logical
// test (the Fig 7 ES-init flow, 20 instances):
//
//   full ADVM   — Globals.inc + Base_Init_Register wrapper
//   hybrid      — Globals.inc only; tests call the ES function directly
//                 (half-adopted methodology)
//   direct      — no abstraction at all
//
// and applies the two orthogonal change classes:
//
//   registers renamed        (a *defines* change — Globals' job)
//   ES signature swapped     (a *function* change — the wrapper's job)
//
// Expected shape: the hybrid arm survives the rename for one file but pays
// O(N) for the ES churn — each abstraction feature absorbs exactly its own
// change class, and only the full package absorbs both.
#include <iostream>
#include <sstream>

#include "advm/base_functions.h"
#include "advm/corpus.h"
#include "advm/environment.h"
#include "advm/globals_gen.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "bench_util.h"
#include "soc/derivative.h"
#include "soc/global_layer.h"
#include "support/diff.h"
#include "support/vfs.h"

using namespace advm;
using namespace advm::core;

namespace {

constexpr std::size_t kTests = 20;
constexpr const char* kRoot = "/SYS";

/// The hybrid rendering of the Fig 7 flow: register names, field geometry
/// and patterns come from Globals.inc, but the ES call convention is
/// hardwired to the version the author saw.
std::string hybrid_test_source(int index, int es_version) {
  std::ostringstream os;
  os << ";; HYBRID_" << index << " — globals adopted, wrappers not\n"
     << ".INCLUDE Globals.inc\n"
     << "_main:\n"
     << " LOAD d14, [PAGE_CTRL_REG]\n"
     << " INSERT d14, d14, TEST1_TARGET_PAGE, PAGE_FIELD_START_POSITION, "
        "PAGE_FIELD_SIZE\n"
     << " STORE [PAGE_CTRL_REG], d14\n";
  if (es_version == 1) {
    os << " LEA a4, PAGE_DATA_REG\n"
       << " MOV d4, TEST_PATTERN_B ^ " << (index & 0xFF) << "\n";
  } else {
    os << " LEA a5, PAGE_DATA_REG\n"
       << " MOV d5, TEST_PATTERN_B ^ " << (index & 0xFF) << "\n";
  }
  os << " LOAD CallAddr, "
     << (es_version >= 3 ? "ES_InitReg" : "ES_Init_Register") << "\n"
     << " CALL CallAddr\n"
     << " LOAD d1, [PAGE_DATA_REG]\n"
     << " CMP d1, TEST_PATTERN_B ^ " << (index & 0xFF) << "\n"
     << " JNE .fail\n"
     << " LOAD d0, PASS_MAGIC\n"
     << " STORE [SIM_RESULT_REG], d0\n"
     << " HALT\n"
     << ".fail:\n"
     << " LOAD d0, FAIL_MAGIC\n"
     << " STORE [SIM_RESULT_REG], d0\n"
     << " HALT\n";
  return os.str();
}

enum class Arm { FullAdvm, Hybrid, Direct };

const char* to_string(Arm a) {
  switch (a) {
    case Arm::FullAdvm:
      return "full ADVM";
    case Arm::Hybrid:
      return "hybrid (globals only)";
    case Arm::Direct:
      return "direct";
  }
  return "?";
}

/// Writes (or rewrites) the environment of one arm for `spec`, counting
/// edits against whatever was there before.
support::LineDiff write_arm(support::VirtualFileSystem& vfs, Arm arm,
                            const soc::DerivativeSpec& spec,
                            std::size_t& files_touched) {
  const std::string env_dir = std::string(kRoot) + "/ES_MODULE";
  support::LineDiff total;
  files_touched = 0;

  auto put = [&](const std::string& path, const std::string& content) {
    const std::string before = vfs.read(path).value_or("");
    if (before == content) return;
    total += support::diff_lines(before, content);
    ++files_touched;
    vfs.write(path, content);
  };

  auto corpus = build_corpus(ModuleKind::Register, kTests);
  switch (arm) {
    case Arm::FullAdvm: {
      put(env_dir + "/Abstraction_Layer/Globals.inc",
          generate_globals(spec));
      put(env_dir + "/Abstraction_Layer/base_functions.asm",
          generate_base_functions());
      for (std::size_t i = 0; i < kTests; ++i) {
        TestSpec t = corpus[i];
        t.cls = TestClass::EsInit;  // every cell runs the Fig 7 flow
        t.variant = static_cast<int>(i);
        put(env_dir + "/" + t.id + "/test.asm", advm_test_source(t));
      }
      break;
    }
    case Arm::Hybrid: {
      put(env_dir + "/Abstraction_Layer/Globals.inc",
          generate_globals(spec));
      for (std::size_t i = 0; i < kTests; ++i) {
        put(env_dir + "/" + corpus[i].id + "/test.asm",
            hybrid_test_source(static_cast<int>(i), spec.es_version));
      }
      break;
    }
    case Arm::Direct: {
      for (std::size_t i = 0; i < kTests; ++i) {
        TestSpec t = corpus[i];
        t.cls = TestClass::EsInit;
        t.variant = static_cast<int>(i);
        put(env_dir + "/" + t.id + "/test.asm",
            baseline_test_source(t, spec));
      }
      break;
    }
  }
  vfs.write(env_dir + "/TESTPLAN.TXT", "ablation arm\n");
  return total;
}

void write_global_layer(support::VirtualFileSystem& vfs,
                        const soc::DerivativeSpec& spec) {
  const std::string dir = std::string(kRoot) + "/Global_Libraries";
  vfs.write(dir + "/register_defs.inc", soc::register_defs_source(spec));
  vfs.write(dir + "/Embedded_Software.asm",
            soc::embedded_software_source(spec));
  vfs.write(dir + "/trap_handlers.asm", generate_trap_library(spec));
  vfs.write(dir + "/common_functions.asm", soc::common_functions_source());
}

struct Row {
  std::size_t files = 0;
  std::size_t lines = 0;
  std::string regression;
};

Row evaluate(Arm arm, const ChangeEvent& event) {
  support::VirtualFileSystem vfs;
  const soc::DerivativeSpec& before = soc::derivative_a();
  write_global_layer(vfs, before);
  std::size_t files = 0;
  (void)write_arm(vfs, arm, before, files);

  const soc::DerivativeSpec after = apply_change(before, event);
  write_global_layer(vfs, after);

  Row row;
  row.lines = write_arm(vfs, arm, after, row.files).total();

  RegressionRunner runner(vfs);
  auto report =
      runner.run_system(kRoot, after, sim::PlatformKind::GoldenModel);
  row.regression = std::to_string(report.passed()) + "/" +
                   std::to_string(report.records.size());
  return row;
}

}  // namespace

int main() {
  bench::banner(
      "Ablation — which abstraction feature absorbs which change class",
      "Fig 7 flow x20 tests in three adoption levels; repair surface per "
      "change class\n(files touched / lines changed; regression after "
      "repair).");

  const ChangeEvent rename{ChangeKind::RegistersRenamed, 0, nullptr};
  const ChangeEvent swap{ChangeKind::EsSignatureChanged, 0, nullptr};

  bench::Table table({"arm", "registers renamed", "ES signature swapped"});
  for (Arm arm : {Arm::FullAdvm, Arm::Hybrid, Arm::Direct}) {
    Row r1 = evaluate(arm, rename);
    Row r2 = evaluate(arm, swap);
    auto cell = [](const Row& r) {
      return std::to_string(r.files) + " files / " +
             std::to_string(r.lines) + " lines, " + r.regression;
    };
    table.add_row(to_string(arm), cell(r1), cell(r2));
  }
  table.print();

  std::cout
      << "\nreading: the globals file absorbs *defines* churn (renames); "
         "the wrapper\nlibrary absorbs *function* churn (signatures). The "
         "half-adopted arm is only\nhalf protected — the paper's full "
         "package is load-bearing, and gradual\nadoption (paper §5) buys "
         "protection incrementally.\n";
  return 0;
}
