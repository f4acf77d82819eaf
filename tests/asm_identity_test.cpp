// Output identity of the assembler front end.
//
// Every translation unit of a generated 200-test tree, and of that tree
// ported to SC88-C, is assembled with the include memo and without it, and
// each unit's output digest is compared with a recorded constant
// (asm_unit_digests.inc). The digest covers the diagnostics, sections,
// symbols and relocations with their locations, the include edges with
// their locations and the probed misses, so any change to what the front
// end produces, or where it says a thing came from, shows here. Failure
// texts that carry locations through an include, a macro body and a
// `.DEFINE` expansion are pinned in full. The last tests read locations
// after everything an assembly was given is gone, and assemble on four
// threads at once over one shared memo (this suite runs in the TSan lane).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advm/environment.h"
#include "advm/objcache.h"
#include "advm/porting.h"
#include "advm/regression.h"
#include "asm/assembler.h"
#include "soc/derivative.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using namespace advm::core;
using assembler::AssembleResult;
using assembler::Assembler;
using assembler::AssemblerOptions;
using assembler::IncludeMemo;
using support::DiagnosticEngine;
using support::VirtualFileSystem;

/// Unit label → output digest, recorded from the generated trees.
const std::map<std::string, std::string>& recorded_digests() {
  static const std::map<std::string, std::string> digests{
#include "asm_unit_digests.inc"
  };
  return digests;
}

/// Everything one assembly reports, rendered in order.
std::string render(const DiagnosticEngine& diags,
                   const std::optional<AssembleResult>& result,
                   const Assembler& assembler) {
  std::ostringstream os;
  os << diags.to_string();
  if (result) {
    const assembler::ObjectFile& object = result->object;
    os << "object " << object.name << "\n";
    for (const auto& section : object.sections) {
      os << "section " << section.name << " org "
         << section.org.value_or(~0u) << " bytes";
      for (std::uint8_t byte : section.bytes) os << " " << int{byte};
      os << "\n";
    }
    for (const auto& symbol : object.symbols) {
      os << "symbol " << symbol.name << " " << symbol.section << "+"
         << symbol.offset << " @" << symbol.loc.to_string() << "\n";
    }
    for (const auto& reloc : object.relocations) {
      os << "reloc " << reloc.section << "+" << reloc.offset << " "
         << reloc.symbol << "+" << reloc.addend << "/" << int{reloc.size}
         << " @" << reloc.loc.to_string() << "\n";
    }
  }
  const auto& edges = result ? result->includes : assembler.last_includes();
  for (const auto& edge : edges) {
    os << "edge " << edge.from_file << " -> " << edge.to_file << " @"
       << edge.loc.to_string() << "\n";
  }
  const auto& misses =
      result ? result->probed_misses : assembler.last_probed_misses();
  for (const auto& miss : misses) os << "miss " << miss << "\n";
  return os.str();
}

std::string assemble_rendered(const VirtualFileSystem& vfs,
                              const std::string& path,
                              const AssemblerOptions& options,
                              IncludeMemo* memo) {
  DiagnosticEngine diags;
  Assembler assembler(vfs, diags, options, memo);
  const auto result = assembler.assemble_file(path);
  return render(diags, result, assembler);
}

/// One translation unit of a tree: a source and the options of the
/// environment that assembles it.
struct Unit {
  std::string label;
  std::string path;
  const AssemblerOptions* options;
};

/// Every unit a regression of the tree assembles: per environment, each
/// of its sources, then each global library under its include path.
std::vector<Unit> units_of(const VirtualFileSystem& vfs,
                           const SystemLayout& layout,
                           const std::vector<EnvBuildContext>& envs,
                           const std::string& tree) {
  std::vector<Unit> units;
  for (const EnvBuildContext& env : envs) {
    const std::string env_name = support::base_name(env.dir);
    for (const std::string& path : vfs.list_tree(env.dir)) {
      if (!path.ends_with(".asm")) continue;
      units.push_back({tree + ":" + path.substr(layout.root.size()), path,
                       &env.asm_options});
    }
    for (const std::string& path : vfs.list_tree(layout.global_dir)) {
      if (!path.ends_with(".asm")) continue;
      units.push_back({tree + ":" + env_name + ":" +
                           path.substr(layout.root.size()),
                       path, &env.asm_options});
    }
  }
  return units;
}

/// The `advm init --tests 40` tree, and the same tree after
/// `advm port --to SC88-C`.
struct WideTree {
  explicit WideTree(bool ported) {
    SystemConfig config;
    config.environments = canonical_environments(40);
    layout = build_system(vfs, config, soc::derivative_a());
    if (ported) {
      PortingEngine porter(vfs);
      (void)porter.port(layout, soc::derivative_c(), config.globals,
                        config.base_functions);
    }
    ObjectCache cache;
    envs = prepare_system(vfs, layout.root, 1, cache);
  }

  VirtualFileSystem vfs;
  SystemLayout layout;
  std::vector<EnvBuildContext> envs;
};

TEST(AssemblerIdentity, EveryUnitOfTheWideAndPortedTreesMatchesItsDigest) {
  std::size_t seen = 0;
  for (const bool ported : {false, true}) {
    const WideTree tree(ported);
    ASSERT_EQ(tree.envs.size(), 5u);
    IncludeMemo memo;
    const auto units = units_of(tree.vfs, tree.layout, tree.envs,
                                ported ? "SC88-C" : "SC88-A");
    for (const Unit& unit : units) {
      const std::string with_memo =
          assemble_rendered(tree.vfs, unit.path, *unit.options, &memo);
      const std::string without =
          assemble_rendered(tree.vfs, unit.path, *unit.options, nullptr);
      EXPECT_EQ(with_memo, without) << unit.label;
      const std::string digest =
          support::hash_to_string(support::hash_bytes(without));
      const auto it = recorded_digests().find(unit.label);
      EXPECT_TRUE(it != recorded_digests().end() && it->second == digest)
          << "{\"" << unit.label << "\", \"" << digest << "\"},";
      ++seen;
    }
    EXPECT_GT(memo.hits(), units.size() / 2);
  }
  EXPECT_EQ(seen, recorded_digests().size());
}

// -------------------------------------------------- located failure text --

TEST(AssemblerIdentity, FailureTextNamesIncludeMacroAndDefineSites) {
  VirtualFileSystem vfs;
  vfs.write("/env/layer/defs.inc",
            ";; layer\n"
            "LIMIT .EQU 4\n"
            ".DEFINE Target missing_equate + 1\n"
            ".MACRO Poke reg, value\n"
            " MOV reg, value\n"
            " BOGUS reg\n"
            ".ENDM\n"
            " STORE [LIMIT], d99\n");
  vfs.write("/env/T1/test.asm",
            ".INCLUDE defs.inc\n"
            "_main:\n"
            " Poke d1, 2\n"
            "X .EQU Target\n"
            ".IF Target\n"
            ".ENDIF\n"
            " HALT\n");
  AssemblerOptions options;
  options.include_dirs = {"/env/layer"};
  DiagnosticEngine diags;
  Assembler assembler(vfs, diags, options);
  EXPECT_FALSE(assembler.assemble_file("/env/T1/test.asm"));
  EXPECT_EQ(
      diags.to_string(),
      "/env/layer/defs.inc:8:17: error [asm.expected-register]: expected a "
      "register (d0..d15 / a0..a15)\n"
      "/env/layer/defs.inc:6:2: error [asm.unknown-mnemonic]: unknown "
      "mnemonic or directive 'BOGUS'\n"
      "/env/T1/test.asm:4:8: error [asm.undefined-symbol]: undefined symbol "
      "'missing_equate' (forward references are not allowed here)\n"
      "/env/T1/test.asm:5:5: error [asm.undefined-symbol]: undefined symbol "
      "'missing_equate' (forward references are not allowed here)\n");
  ASSERT_EQ(assembler.last_includes().size(), 1u);
  EXPECT_EQ(assembler.last_includes()[0].loc.to_string(),
            "/env/T1/test.asm:1:10");
}

// ------------------------------------------------------- location lifetime --

TEST(AssemblerIdentity, LocationsOutliveTheAssemblerItsVfsAndThePaths) {
  // Names are built on the heap and destroyed before anything is read, so
  // a location that kept a view of them reads freed memory under ASan.
  DiagnosticEngine ok_diags;
  DiagnosticEngine bad_diags;
  std::optional<AssembleResult> result;
  std::vector<assembler::IncludeEdge> failed_edges;
  {
    auto root = std::make_unique<std::string>("/lifetime_probe_tree");
    auto main_path = std::make_unique<std::string>(*root + "/main.asm");
    auto bad_path = std::make_unique<std::string>(*root + "/bad.asm");
    auto inc_dir = std::make_unique<std::string>(*root + "/inc");
    auto vfs = std::make_unique<VirtualFileSystem>();
    vfs->write(*inc_dir + "/defs.inc", "VALUE .EQU 5\n.DEFINE Arg d4\n");
    vfs->write(*main_path,
               ".INCLUDE defs.inc\n_main:\n MOV Arg, VALUE\n"
               " CALL far_label\n HALT\n");
    vfs->write(*bad_path, ".INCLUDE defs.inc\n_main:\nX .EQU nowhere\n");
    AssemblerOptions options;
    options.include_dirs = {*inc_dir};
    IncludeMemo memo;
    auto assembler =
        std::make_unique<Assembler>(*vfs, ok_diags, options, &memo);
    result = assembler->assemble_file(*main_path);
    auto failing =
        std::make_unique<Assembler>(*vfs, bad_diags, options, &memo);
    EXPECT_FALSE(failing->assemble_file(*bad_path));
    failed_edges = failing->last_includes();
    failing.reset();
    assembler.reset();
    vfs.reset();
    options.include_dirs.clear();
    for (auto* name : {&root, &main_path, &bad_path, &inc_dir}) {
      (*name)->assign((*name)->size(), 'X');
      name->reset();
    }
  }
  ASSERT_TRUE(result);
  ASSERT_EQ(result->object.symbols.size(), 1u);
  const std::string symbol_at = result->object.symbols[0].loc.to_string();
  EXPECT_TRUE(symbol_at.starts_with("/lifetime_")) << symbol_at;
  EXPECT_TRUE(symbol_at.ends_with("/main.asm:2:1")) << symbol_at;
  ASSERT_EQ(result->object.relocations.size(), 1u);
  EXPECT_TRUE(result->object.relocations[0].loc.to_string().ends_with(
      "/main.asm:4:2"));
  ASSERT_EQ(result->includes.size(), 1u);
  EXPECT_TRUE(result->includes[0].loc.to_string().ends_with("/main.asm:1:10"));
  EXPECT_TRUE(result->includes[0].to_file.ends_with("/inc/defs.inc"));
  ASSERT_EQ(failed_edges.size(), 1u);
  EXPECT_TRUE(failed_edges[0].loc.to_string().ends_with("/bad.asm:1:10"));
  ASSERT_EQ(bad_diags.all().size(), 1u);
  const std::string text = bad_diags.to_string();
  EXPECT_TRUE(text.starts_with("/lifetime_")) << text;
  EXPECT_NE(text.find("/bad.asm:3:8: error [asm.undefined-symbol]"),
            std::string::npos)
      << text;
}

// ------------------------------------------------------------ four threads --

TEST(AssemblerIdentity, FourThreadsSharingOneMemoMatchASerialPass) {
  const WideTree tree(false);
  const auto units = units_of(tree.vfs, tree.layout, tree.envs, "SC88-A");
  std::vector<std::string> serial;
  serial.reserve(units.size());
  for (const Unit& unit : units) {
    serial.push_back(
        assemble_rendered(tree.vfs, unit.path, *unit.options, nullptr));
  }
  constexpr std::size_t kThreads = 4;
  IncludeMemo memo;
  std::vector<std::vector<std::string>> outputs(
      kThreads, std::vector<std::string>(units.size()));
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        // Each thread walks the units from its own starting point, so the
        // threads record and serve the same includes at the same time.
        for (std::size_t k = 0; k < units.size(); ++k) {
          const std::size_t i = (k + t * units.size() / kThreads) %
                                units.size();
          outputs[t][i] = assemble_rendered(tree.vfs, units[i].path,
                                            *units[i].options, &memo);
        }
      });
    }
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      ASSERT_EQ(outputs[t][i], serial[i]) << units[i].label << " thread " << t;
    }
  }
  EXPECT_GT(memo.hits(), 0u);
}

}  // namespace
