// Test environment construction — the paper's Figs 1, 3, 4 and 5 made
// executable.
//
// A *module test environment* (Fig 3) is a directory:
//
//   MODULE_NAME/                  (derivative-neutral name — paper §2)
//     Abstraction_Layer/          Globals.inc, base_functions.asm
//     TESTPLAN.TXT                plain text so it can be grep'ed (paper §2)
//     TEST_ID_NAME/test.asm       one directory per test cell
//
// The *system verification environment* (Fig 5) hosts several module
// environments plus the global libraries:
//
//   ADVM_System_Verification_Environment/
//     Global_Libraries/           register_defs.inc, Embedded_Software.asm,
//                                 trap_handlers.asm
//     <MODULE envs...>
//
// Environments come in two methodologies (see corpus.h): ADVM style with a
// real abstraction layer, and baseline/direct style without one — the
// comparison arm for every edit-cost experiment.
#pragma once

#include <string>
#include <vector>

#include "advm/base_functions.h"
#include "advm/corpus.h"
#include "advm/globals_gen.h"
#include "soc/derivative.h"
#include "support/vfs.h"

namespace advm::core {

struct EnvironmentConfig {
  std::string name;  ///< e.g. "PAGE_MODULE" — must be derivative-neutral
  ModuleKind module = ModuleKind::Register;
  std::size_t test_count = 5;
  bool advm_style = true;  ///< false → baseline/direct methodology
};

struct SystemConfig {
  std::string root = "/ADVM_System_Verification_Environment";
  std::vector<EnvironmentConfig> environments;
  GlobalsOptions globals;
  BaseFunctionsOptions base_functions;
};

/// Where everything landed, for bookkeeping and reports.
struct EnvironmentLayout {
  std::string name;
  std::string dir;
  std::string abstraction_dir;  ///< empty for baseline environments
  std::vector<TestSpec> tests;
  bool advm_style = true;
  ModuleKind module = ModuleKind::Register;
};

struct SystemLayout {
  std::string root;
  std::string global_dir;
  std::vector<EnvironmentLayout> environments;
};

/// The canonical five-module system (paper Fig 5) with `tests_per_module`
/// tests each — what `advm init` and an empty BuildRequest environment
/// list build, and the default corpus the execution planners slice.
[[nodiscard]] std::vector<EnvironmentConfig> canonical_environments(
    std::size_t tests_per_module);

/// Canonical sub-directory / file names (paper Figs 3 and 5).
inline constexpr const char* kGlobalLibrariesDir = "Global_Libraries";
inline constexpr const char* kAbstractionLayerDir = "Abstraction_Layer";
inline constexpr const char* kTestplanFile = "TESTPLAN.TXT";
inline constexpr const char* kTestSourceFile = "test.asm";

/// One generated file, before it lands in a VFS. Corpus generation renders
/// into these buffers so environments can be generated in parallel while
/// the VFS — which is not thread-safe — is only
/// written from one thread, in deterministic order.
struct GeneratedFile {
  std::string path;
  std::string content;
};

/// Renders every file of one module environment (abstraction layer,
/// testplan, test cells) for `spec`. Pure function of its arguments — safe
/// to fan out, and the unit of a corpus work-plan slice.
[[nodiscard]] std::vector<GeneratedFile> generate_environment(
    std::string_view system_root, const EnvironmentConfig& env_config,
    const soc::DerivativeSpec& spec, const GlobalsOptions& globals,
    const BaseFunctionsOptions& base_functions, EnvironmentLayout* layout);

/// Builds the complete Fig 5 tree for one derivative into the VFS.
/// Environment generation fans out over `jobs` workers (1 = serial, 0 =
/// one per hardware thread); the resulting tree is byte-identical for any
/// pool size because every file is rendered independently and written in
/// config order.
[[nodiscard]] SystemLayout build_system(support::VirtualFileSystem& vfs,
                                        const SystemConfig& config,
                                        const soc::DerivativeSpec& spec,
                                        std::size_t jobs = 1);

/// Regenerates only the global layer (the world changed: new databook /
/// new ES drop). Both methodologies receive this for free — it is outside
/// the test environments.
void regenerate_global_layer(support::VirtualFileSystem& vfs,
                             const SystemLayout& layout,
                             const soc::DerivativeSpec& spec);

/// Regenerates one ADVM environment's abstraction layer for a (new)
/// derivative — the paper's porting operation: "the abstraction layer is
/// inherited by all tests".
void regenerate_abstraction_layer(support::VirtualFileSystem& vfs,
                                  const EnvironmentLayout& env,
                                  const soc::DerivativeSpec& spec,
                                  const GlobalsOptions& globals,
                                  const BaseFunctionsOptions& base_functions);

/// Renders the TESTPLAN.TXT for an environment.
[[nodiscard]] std::string testplan_text(const EnvironmentConfig& config,
                                        const std::vector<TestSpec>& tests);

}  // namespace advm::core
