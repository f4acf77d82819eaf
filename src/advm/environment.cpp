#include "advm/environment.h"

#include <sstream>
#include <utility>

#include "advm/regression.h"
#include "soc/global_layer.h"
#include "support/text.h"

namespace advm::core {

using support::join_path;
using support::VirtualFileSystem;

std::vector<EnvironmentConfig> canonical_environments(
    std::size_t tests_per_module) {
  const std::size_t n = tests_per_module;
  return {
      {"PAGE_MODULE", ModuleKind::Register, n, true},
      {"UART_MODULE", ModuleKind::Uart, n, true},
      {"NVM_MODULE", ModuleKind::Nvm, n, true},
      {"TIMER_MODULE", ModuleKind::Timer, n, true},
      {"MEM_MODULE", ModuleKind::Memory, n, true},
  };
}

std::string testplan_text(const EnvironmentConfig& config,
                          const std::vector<TestSpec>& tests) {
  std::ostringstream os;
  os << "TESTPLAN for " << config.name << " ("
     << (config.advm_style ? "ADVM" : "DIRECT") << " methodology)\n"
     << "Plain text on purpose: grep-able from the command line (paper "
        "S2).\n"
     << "----------------------------------------------------------------\n";
  for (const TestSpec& t : tests) {
    os << t.id << " | " << to_string(t.cls) << " | variant " << t.variant
       << " | " << t.description << "\n";
  }
  return os.str();
}

void regenerate_global_layer(VirtualFileSystem& vfs,
                             const SystemLayout& layout,
                             const soc::DerivativeSpec& spec) {
  vfs.write(join_path(layout.global_dir, soc::kRegisterDefsFile),
            soc::register_defs_source(spec));
  vfs.write(join_path(layout.global_dir, soc::kEmbeddedSoftwareFile),
            soc::embedded_software_source(spec));
  vfs.write(join_path(layout.global_dir, kTrapLibraryFile),
            generate_trap_library(spec));
  vfs.write(join_path(layout.global_dir, soc::kCommonFunctionsFile),
            soc::common_functions_source());
}

void regenerate_abstraction_layer(VirtualFileSystem& vfs,
                                  const EnvironmentLayout& env,
                                  const soc::DerivativeSpec& spec,
                                  const GlobalsOptions& globals,
                                  const BaseFunctionsOptions& base_functions) {
  vfs.write(join_path(env.abstraction_dir, kGlobalsFile),
            generate_globals(spec, globals));
  vfs.write(join_path(env.abstraction_dir, kBaseFunctionsFile),
            generate_base_functions(base_functions));
}

std::vector<GeneratedFile> generate_environment(
    std::string_view system_root, const EnvironmentConfig& env_config,
    const soc::DerivativeSpec& spec, const GlobalsOptions& globals,
    const BaseFunctionsOptions& base_functions, EnvironmentLayout* layout) {
  EnvironmentLayout env;
  env.name = env_config.name;
  env.dir = join_path(system_root, env_config.name);
  env.module = env_config.module;
  env.advm_style = env_config.advm_style;
  env.tests = build_corpus(env_config.module, env_config.test_count);

  std::vector<GeneratedFile> files;
  files.reserve(env.tests.size() + 3);
  if (env_config.advm_style) {
    env.abstraction_dir = join_path(env.dir, kAbstractionLayerDir);
    files.push_back({join_path(env.abstraction_dir, kGlobalsFile),
                     generate_globals(spec, globals)});
    files.push_back({join_path(env.abstraction_dir, kBaseFunctionsFile),
                     generate_base_functions(base_functions)});
  }
  files.push_back({join_path(env.dir, kTestplanFile),
                   testplan_text(env_config, env.tests)});
  for (const TestSpec& t : env.tests) {
    files.push_back({join_path(join_path(env.dir, t.id), kTestSourceFile),
                     env_config.advm_style
                         ? advm_test_source(t)
                         : baseline_test_source(t, spec)});
  }
  if (layout != nullptr) *layout = std::move(env);
  return files;
}

SystemLayout build_system(VirtualFileSystem& vfs, const SystemConfig& config,
                          const soc::DerivativeSpec& spec, std::size_t jobs) {
  SystemLayout layout;
  layout.root = support::normalize_path(config.root);
  layout.global_dir = join_path(layout.root, kGlobalLibrariesDir);

  regenerate_global_layer(vfs, layout, spec);

  // Corpus generation is the serial hot spot at scale: every environment's
  // files are pure functions of (config, spec), so render them on the pool
  // and commit to the (single-threaded) VFS in config order afterwards.
  std::vector<EnvironmentLayout> environments(config.environments.size());
  std::vector<std::vector<GeneratedFile>> generated(
      config.environments.size());
  parallel_for(config.environments.size(), jobs, [&](std::size_t i) {
    generated[i] = generate_environment(layout.root, config.environments[i],
                                        spec, config.globals,
                                        config.base_functions,
                                        &environments[i]);
  });
  for (std::size_t i = 0; i < generated.size(); ++i) {
    for (GeneratedFile& file : generated[i]) {
      vfs.write(file.path, std::move(file.content));
    }
    layout.environments.push_back(std::move(environments[i]));
  }
  return layout;
}

}  // namespace advm::core
