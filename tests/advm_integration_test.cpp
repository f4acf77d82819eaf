// Integration tests for the ADVM core: full regressions across derivatives
// and platforms, the porting/change experiments end to end, and release-
// label reproducibility. These are the executable versions of the paper's
// §4/§5 claims; the bench binaries print the same flows as tables.
#include <gtest/gtest.h>

#include "advm/environment.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "advm/release.h"
#include "advm/violations.h"
#include "soc/derivative.h"
#include "support/vfs.h"

namespace {

using namespace advm::core;
using advm::sim::PlatformKind;
using advm::soc::derivative_a;
using advm::soc::derivative_b;
using advm::soc::derivative_c;
using advm::soc::derivative_d;
using advm::soc::DerivativeSpec;
using advm::support::VirtualFileSystem;

SystemConfig full_config(bool advm_style = true) {
  SystemConfig config;
  config.environments = {
      {"PAGE_MODULE", ModuleKind::Register, 5, advm_style},
      {"UART_MODULE", ModuleKind::Uart, 3, advm_style},
      {"NVM_MODULE", ModuleKind::Nvm, 3, advm_style},
      {"TIMER_MODULE", ModuleKind::Timer, 2, advm_style},
      {"MEM_MODULE", ModuleKind::Memory, 3, advm_style},
  };
  return config;
}

class IntegrationTest : public ::testing::Test {
 protected:
  VirtualFileSystem vfs_;
};

// ------------------------------------------------------- basic regression ---

TEST_F(IntegrationTest, AdvmSystemPassesOnGoldenModel) {
  auto layout = build_system(vfs_, full_config(), derivative_a());
  RegressionRunner runner(vfs_);
  auto report = runner.run_system(layout.root, derivative_a(),
                                  PlatformKind::GoldenModel);
  EXPECT_EQ(report.records.size(), 16u);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

TEST_F(IntegrationTest, BaselineSystemPassesOnItsOwnDerivative) {
  auto layout = build_system(vfs_, full_config(false), derivative_a());
  RegressionRunner runner(vfs_);
  auto report = runner.run_system(layout.root, derivative_a(),
                                  PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

/// The headline ADVM property: one environment build per derivative, with
/// *unchanged test sources*, passes everywhere. Parameterized over the
/// derivative family.
class DerivativeSweep : public ::testing::TestWithParam<const DerivativeSpec*> {
};

TEST_P(DerivativeSweep, AdvmSystemPassesAfterRegeneratingAbstractionOnly) {
  const DerivativeSpec& spec = *GetParam();
  VirtualFileSystem vfs;
  auto layout = build_system(vfs, full_config(), spec);
  RegressionRunner runner(vfs);
  auto report =
      runner.run_system(layout.root, spec, PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

INSTANTIATE_TEST_SUITE_P(
    AllDerivatives, DerivativeSweep,
    ::testing::Values(&derivative_a(), &derivative_b(), &derivative_c(),
                      &derivative_d()),
    [](const ::testing::TestParamInfo<const DerivativeSpec*>& info) {
      std::string name = info.param->name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ----------------------------------------------------- platform uniformity ---

TEST_F(IntegrationTest, SameSuitePassesOnAllSixPlatformsWithEqualOutcomes) {
  auto layout = build_system(vfs_, full_config(), derivative_a());
  RegressionRunner runner(vfs_);

  std::vector<std::uint64_t> digests;
  for (PlatformKind kind : advm::sim::kAllPlatforms) {
    auto report = runner.run_system(layout.root, derivative_a(), kind);
    EXPECT_TRUE(report.all_passed())
        << advm::sim::to_string(kind) << "\n" << format_report(report);
    digests.push_back(report.outcome_digest());
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0])
        << "platform " << advm::sim::to_string(advm::sim::kAllPlatforms[i])
        << " diverged from the golden model";
  }
}

TEST_F(IntegrationTest, CycleAccuratePlatformsReportMoreCycles) {
  auto layout = build_system(vfs_, full_config(), derivative_a());
  RegressionRunner runner(vfs_);
  auto golden = runner.run_system(layout.root, derivative_a(),
                                  PlatformKind::GoldenModel);
  auto rtl =
      runner.run_system(layout.root, derivative_a(), PlatformKind::RtlSim);
  std::uint64_t golden_cycles = 0;
  std::uint64_t rtl_cycles = 0;
  for (const auto& r : golden.records) golden_cycles += r.cycles;
  for (const auto& r : rtl.records) rtl_cycles += r.cycles;
  EXPECT_GT(rtl_cycles, golden_cycles);
}

// ------------------------------------------------- E2: spec change (Fig 6) ---

TEST_F(IntegrationTest, FieldShiftRepairTouchesOneFilePerAdvmEnvironment) {
  SystemConfig config = full_config();
  auto layout = build_system(vfs_, config, derivative_a());

  ChangeEvent event{ChangeKind::PageFieldMoved, 1, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);
  EXPECT_EQ(changed.page_field.pos, 1);

  PortingEngine porter(vfs_);
  auto repair =
      porter.port(layout, changed, config.globals, config.base_functions);

  // ADVM arm: exactly one file per environment (Globals.inc; the base
  // functions text is field-agnostic so it does not change).
  EXPECT_EQ(repair.abstraction_layer.files_touched(), 5u);
  for (const auto& edit : repair.abstraction_layer.edits) {
    EXPECT_NE(edit.path.find("Globals.inc"), std::string::npos) << edit.path;
  }
  // No test file was touched.
  EXPECT_EQ(repair.test_layer.files_touched(), 0u);

  // And the regression passes again without any test-layer edit.
  RegressionRunner runner(vfs_);
  auto report =
      runner.run_system(layout.root, changed, PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

TEST_F(IntegrationTest, FieldShiftLeavesStaleBaselineFailing) {
  SystemConfig config = full_config(false);
  auto layout = build_system(vfs_, config, derivative_a());

  ChangeEvent event{ChangeKind::PageFieldMoved, 1, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);

  // The world changes (global layer regenerates), but nobody repairs the
  // hardwired tests.
  regenerate_global_layer(vfs_, layout, changed);

  RegressionRunner runner(vfs_);
  auto report =
      runner.run_system(layout.root, changed, PlatformKind::GoldenModel);
  // Page-module tests select the wrong pages now.
  EXPECT_FALSE(report.all_passed());
}

TEST_F(IntegrationTest, BaselineRepairTouchesEveryAffectedTest) {
  SystemConfig config = full_config(false);
  auto layout = build_system(vfs_, config, derivative_a());

  ChangeEvent event{ChangeKind::PageFieldMoved, 1, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);

  PortingEngine porter(vfs_);
  auto repair =
      porter.port(layout, changed, config.globals, config.base_functions);

  // Every page-module test is hardwired against the old field position.
  EXPECT_GE(repair.test_layer.files_touched(), 5u);
  EXPECT_EQ(repair.abstraction_layer.files_touched(), 0u);

  RegressionRunner runner(vfs_);
  auto report =
      runner.run_system(layout.root, changed, PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

// --------------------------------------------- E3: global churn (Fig 7) ----

TEST_F(IntegrationTest, EsSignatureChangeAbsorbedByBaseFunctions) {
  SystemConfig config = full_config();
  config.base_functions.max_es_version = 1;  // library predates the churn
  auto layout = build_system(vfs_, config, derivative_a());

  RegressionRunner runner(vfs_);
  ASSERT_TRUE(runner
                  .run_system(layout.root, derivative_a(),
                              PlatformKind::GoldenModel)
                  .all_passed());

  // The ES drops v2: input registers swapped (paper Fig 7).
  ChangeEvent event{ChangeKind::EsSignatureChanged, 0, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);

  PortingEngine porter(vfs_);
  BaseFunctionsOptions repaired_library;
  repaired_library.max_es_version = 2;  // the single-point repair
  auto repair =
      porter.port(layout, changed, config.globals, repaired_library);

  // ADVM: base_functions.asm and Globals.inc per env; zero test edits.
  EXPECT_EQ(repair.test_layer.files_touched(), 0u);
  EXPECT_EQ(repair.abstraction_layer.files_touched(), 10u);  // 2 × 5 envs

  auto report =
      runner.run_system(layout.root, changed, PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

TEST_F(IntegrationTest, EsSignatureChangeBreaksUnrepairedBaseline) {
  SystemConfig config = full_config(false);
  auto layout = build_system(vfs_, config, derivative_a());

  ChangeEvent event{ChangeKind::EsSignatureChanged, 0, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);
  regenerate_global_layer(vfs_, layout, changed);

  RegressionRunner runner(vfs_);
  auto report =
      runner.run_system(layout.root, changed, PlatformKind::GoldenModel);
  // Baseline tests pass values in the v1 registers; the v2 ES reads the
  // swapped ones.
  EXPECT_FALSE(report.all_passed());
}

// ------------------------------------------------ E6: derivative porting ----

TEST_F(IntegrationTest, PortChainAtoBtoCtoD) {
  SystemConfig config = full_config();
  auto layout = build_system(vfs_, config, derivative_a());
  RegressionRunner runner(vfs_);
  PortingEngine porter(vfs_);

  for (const DerivativeSpec* target :
       {&derivative_b(), &derivative_c(), &derivative_d()}) {
    ChangeEvent event{ChangeKind::DerivativeSwitch, 0, target};
    DerivativeSpec next = apply_change(derivative_a(), event);
    auto repair =
        porter.port(layout, next, config.globals, config.base_functions);
    // Abstraction-layer-only repair...
    EXPECT_EQ(repair.test_layer.files_touched(), 0u) << target->name;
    // ...and the whole system passes on the new derivative.
    auto report =
        runner.run_system(layout.root, next, PlatformKind::GoldenModel);
    EXPECT_TRUE(report.all_passed())
        << target->name << "\n" << format_report(report);
  }
}

TEST_F(IntegrationTest, RegisterRenameCostsAdvmOneFilePerEnv) {
  // Derivative D renames every register. ADVM: the re-map lines in
  // Globals.inc change; tests reference only the stable abstraction names.
  SystemConfig advm_config = full_config();
  auto advm_layout = build_system(vfs_, advm_config, derivative_a());

  ChangeEvent event{ChangeKind::RegistersRenamed, 0, nullptr};
  DerivativeSpec changed = apply_change(derivative_a(), event);

  PortingEngine porter(vfs_);
  auto repair = porter.port(advm_layout, changed, advm_config.globals,
                            advm_config.base_functions);
  EXPECT_EQ(repair.abstraction_layer.files_touched(), 5u);

  RegressionRunner runner(vfs_);
  EXPECT_TRUE(
      runner.run_system(advm_layout.root, changed, PlatformKind::GoldenModel)
          .all_passed());

  // Unrepaired baseline tests do not even assemble: the register names
  // they include no longer exist.
  VirtualFileSystem baseline_vfs;
  SystemConfig baseline_config = full_config(false);
  auto baseline_layout =
      build_system(baseline_vfs, baseline_config, derivative_a());
  regenerate_global_layer(baseline_vfs, baseline_layout, changed);
  auto report = RegressionRunner(baseline_vfs)
                    .run_system(baseline_layout.root, changed,
                                PlatformKind::GoldenModel);
  EXPECT_GT(report.build_failures(), 0u);
}

// --------------------------------------------------- E8: release labels ----

TEST_F(IntegrationTest, FrozenLabelRegressionSurvivesTrunkChurn) {
  SystemConfig config = full_config();
  auto layout = build_system(vfs_, config, derivative_a());

  ReleaseManager releases(vfs_);
  SystemRelease release = releases.create_system_release("R1", layout);
  EXPECT_TRUE(releases.verify(release));

  RegressionRunner runner(vfs_);
  auto frozen_before = runner.run_system(release.root, derivative_a(),
                                         PlatformKind::GoldenModel);
  ASSERT_TRUE(frozen_before.all_passed());

  // Trunk development: the abstraction layer churns mid-regression window
  // (here: retarget the live tree to derivative C).
  PortingEngine porter(vfs_);
  (void)porter.port(layout, derivative_c(), config.globals,
                    config.base_functions);

  // The frozen tree is unaffected: hashes verify and outcomes reproduce.
  EXPECT_TRUE(releases.verify(release));
  auto frozen_after = runner.run_system(release.root, derivative_a(),
                                        PlatformKind::GoldenModel);
  EXPECT_EQ(frozen_after.outcome_digest(), frozen_before.outcome_digest());

  // Control arm: the live tree no longer reproduces the old outcomes — it
  // now serves derivative C (and fails against an A board).
  for (const ReleaseLabel& label : release.sub_labels) {
    if (label.source_dir == layout.global_dir) continue;
  }
  auto live = runner.run_system(layout.root, derivative_a(),
                                PlatformKind::GoldenModel);
  EXPECT_NE(live.outcome_digest(), frozen_before.outcome_digest());
}

TEST_F(IntegrationTest, TamperedSnapshotFailsVerification) {
  auto layout = build_system(vfs_, full_config(), derivative_a());
  for (std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    ReleaseManager releases(vfs_, jobs);
    SystemRelease release =
        releases.create_system_release("R1_j" + std::to_string(jobs), layout);
    EXPECT_TRUE(releases.verify(release)) << "jobs=" << jobs;
    vfs_.write(release.root + "/PAGE_MODULE/TESTPLAN.TXT", "tampered");
    EXPECT_FALSE(releases.verify(release)) << "jobs=" << jobs;
  }
}

TEST_F(IntegrationTest, PooledFrozenRegressionMatchesColdSerialEverywhere) {
  // The release satellite of the assemble-once pipeline: a frozen-snapshot
  // regression run on the worker pool with one shared object cache must
  // reproduce a cold serial run's outcome digest on every derivative.
  auto layout = build_system(vfs_, full_config(), derivative_a());
  ReleaseManager releases(vfs_, 8);
  SystemRelease release = releases.create_system_release("R1", layout);
  ASSERT_TRUE(releases.verify(release));

  RegressionRunner pooled(vfs_, 8);
  for (const DerivativeSpec* spec : advm::soc::all_derivatives()) {
    auto frozen =
        pooled.run_system(release.root, *spec, PlatformKind::GoldenModel);
    auto cold = RegressionRunner(vfs_, 1)
                    .run_system(release.root, *spec, PlatformKind::GoldenModel);
    EXPECT_FALSE(frozen.records.empty());
    EXPECT_EQ(frozen.outcome_digest(), cold.outcome_digest()) << spec->name;
  }
}

TEST_F(IntegrationTest, RepeatedFrozenVerifiesReuseCachedObjects) {
  // The snapshot is immutable, so the second frozen regression through
  // the same runner must be served entirely from the object cache.
  auto layout = build_system(vfs_, full_config(), derivative_a());
  SystemRelease release =
      ReleaseManager(vfs_).create_system_release("R1", layout);

  RegressionRunner runner(vfs_, 4);
  auto first = runner.run_system(release.root, derivative_a(),
                                 PlatformKind::GoldenModel);
  auto second = runner.run_system(release.root, derivative_b(),
                                  PlatformKind::RtlSim);
  EXPECT_GT(first.cache.misses, 0u);
  EXPECT_EQ(second.cache.misses, 0u);  // target changed, objects did not
  EXPECT_EQ(second.cache.hits, first.cache.misses);
}

// ----------------------------------------- corner-case focus (paper §4) ----

TEST_F(IntegrationTest, GlobalsOverrideRefocusesTestsWithoutEditingThem) {
  SystemConfig config = full_config();
  config.globals.overrides[GlobalDefineNames::kTest1TargetPage] = 21;
  config.globals.overrides[GlobalDefineNames::kTest2TargetPage] = 3;
  auto layout = build_system(vfs_, config, derivative_a());
  RegressionRunner runner(vfs_);
  auto report = runner.run_system(layout.root, derivative_a(),
                                  PlatformKind::GoldenModel);
  EXPECT_TRUE(report.all_passed()) << format_report(report);
}

}  // namespace
