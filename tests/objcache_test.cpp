// Unit tests for the content-addressed object cache: the assemble-once
// guarantee (hit on identical source/options), the invalidation rules
// (changed source, changed include, changed predefine → miss), failure
// caching, and counter determinism under concurrent same-key requests —
// plus the include memo the cache owns: memo-on assembly must be
// indistinguishable from memo-off, see edits and shadowing, and never
// serve an include that touched more than equates and defines.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "advm/environment.h"
#include "advm/objcache.h"
#include "advm/objstore.h"
#include "advm/regression.h"
#include "asm/assembler.h"
#include "soc/derivative.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using namespace advm::core;
using assembler::AssemblerOptions;

constexpr const char* kMain = "/src/main.asm";
constexpr const char* kInc = "/src/defs.inc";

support::VirtualFileSystem tiny_program() {
  support::VirtualFileSystem vfs;
  vfs.write(kInc, "MAGIC .EQU 42\n");
  vfs.write(kMain,
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  return vfs;
}

TEST(ObjectCache, SecondIdenticalRequestHitsAndSharesTheObject) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  auto second = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.object.get(), second.object.get());  // shared, not copied

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes, first.object->total_bytes());
}

TEST(ObjectCache, SourceEditMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  vfs.write(kMain, std::string(*vfs.read(kMain)) + " NOP\n");
  auto second = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.hit);
  EXPECT_NE(first.object->total_bytes(), second.object->total_bytes());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ObjectCache, IncludedFileEditMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  (void)cache.assemble(vfs, kMain, options);
  vfs.write(kInc, "MAGIC .EQU 43\n");  // same main source, new include text
  auto rebuilt = cache.assemble(vfs, kMain, options);

  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.hit);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  // The stale entry was replaced, not leaked: footprint is one object.
  EXPECT_EQ(stats.bytes, rebuilt.object->total_bytes());
}

TEST(ObjectCache, PredefineChangeMisses) {
  auto vfs = tiny_program();
  ObjectCache cache;

  AssemblerOptions a;
  a.predefines["PLATFORM"] = 1;
  AssemblerOptions b;
  b.predefines["PLATFORM"] = 2;

  (void)cache.assemble(vfs, kMain, a);
  auto other = cache.assemble(vfs, kMain, b);

  EXPECT_FALSE(other.hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  // And the original option set still hits its own entry.
  EXPECT_TRUE(cache.assemble(vfs, kMain, a).hit);
}

TEST(ObjectCache, FailedAssemblyIsCachedWithItsDiagnostics) {
  auto vfs = tiny_program();
  vfs.write(kInc, " .ERROR \"broken include\"\n");
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, kMain, options);
  auto second = cache.assemble(vfs, kMain, options);

  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.error, second.error);
  EXPECT_NE(first.error.find("broken include"), std::string::npos);
  // The resolved include list survives failure — callers use it to name
  // the offending file in BUILD-FAIL records.
  ASSERT_TRUE(first.includes != nullptr);
  ASSERT_FALSE(first.includes->empty());
  EXPECT_EQ(first.includes->front().to_file, kInc);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ObjectCache, MissingFileIsReportedButNeverCached) {
  support::VirtualFileSystem vfs;
  ObjectCache cache;
  AssemblerOptions options;

  auto result = cache.assemble(vfs, "/nope.asm", options);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ObjectCache, NewFileShadowingAnIncludeEarlierInTheSearchPathMisses) {
  // The ccache direct-mode hole, closed: the include resolved from the
  // second search directory at build time; creating the same name in the
  // *first* directory afterwards must invalidate the entry, because a
  // fresh assembly would now resolve the earlier path.
  support::VirtualFileSystem vfs;
  vfs.write("/lib2/defs.inc", "MAGIC .EQU 42\n");
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  AssemblerOptions options;
  options.include_dirs = {"/lib1", "/lib2"};

  ObjectCache cache;
  auto first = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);

  // Shadow from the earlier search directory: different MAGIC, different
  // object bytes — serving the cached object would be a wrong answer.
  vfs.write("/lib1/defs.inc", "MAGIC .EQU 999999\n");
  auto shadowed = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(shadowed.ok());
  EXPECT_FALSE(shadowed.hit);
  ASSERT_FALSE(shadowed.includes->empty());
  EXPECT_EQ(shadowed.includes->front().to_file, "/lib1/defs.inc");

  // A sibling of the including file shadows everything.
  vfs.write("/cells/T1/defs.inc", "MAGIC .EQU 7\n");
  auto sibling = cache.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(sibling.ok());
  EXPECT_FALSE(sibling.hit);
  EXPECT_EQ(sibling.includes->front().to_file, "/cells/T1/defs.inc");

  // Steady state: with no new shadow appearing, hits resume.
  EXPECT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);
}

TEST(ObjectCache, CachedIncludeNotFoundFailureInvalidatesWhenFileAppears) {
  // The failure arm of shadow detection: an include missing everywhere is
  // a cached BUILD-FAIL; creating the file at any probed candidate —
  // including the absolute path itself — must invalidate the entry, or a
  // regenerate-in-place workflow keeps reporting the stale failure.
  support::VirtualFileSystem vfs;
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE \"/lib/abs_defs.inc\"\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  ObjectCache cache;
  AssemblerOptions options;

  auto first = cache.assemble(vfs, "/cells/T1/test.asm", options);
  EXPECT_FALSE(first.ok());
  EXPECT_NE(first.error.find("cannot find include"), std::string::npos);
  EXPECT_TRUE(cache.assemble(vfs, "/cells/T1/test.asm", options).hit);

  vfs.write("/lib/abs_defs.inc", "MAGIC .EQU 42\n");
  auto repaired = cache.assemble(vfs, "/cells/T1/test.asm", options);
  EXPECT_FALSE(repaired.hit);
  EXPECT_TRUE(repaired.ok()) << repaired.error;
}

TEST(ObjectCache, UnboundedCacheNeverEvicts) {
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cache.assemble(vfs, kMain, options).ok());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ObjectCache, ConcurrentSameKeyRequestsBuildOnce) {
  // Whatever the pool size, exactly one request per key may miss — the
  // determinism of the regression report's counters depends on it.
  auto vfs = tiny_program();
  ObjectCache cache;
  AssemblerOptions options;

  std::atomic<int> failures{0};
  parallel_for(32, 8, [&](std::size_t) {
    auto result = cache.assemble(vfs, kMain, options);
    if (!result.ok()) failures.fetch_add(1);
  });

  EXPECT_EQ(failures.load(), 0);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 31u);
}

// ----------------------------------------------------- persistent tier ----

/// Fresh scratch directory on the host filesystem, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("advm_objcache_") + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  std::filesystem::path dir_;
};

TEST(PersistentObjectCache, WarmStartAcrossTwoCacheLifetimes) {
  ScratchDir scratch("warm");
  auto vfs = tiny_program();
  AssemblerOptions options;

  std::uint64_t cold_bytes = 0;
  {
    ObjectCache first(scratch.path());
    auto built = first.assemble(vfs, kMain, options);
    ASSERT_TRUE(built.ok());
    cold_bytes = built.object->total_bytes();
    auto stats = first.stats();
    EXPECT_EQ(stats.persistent_hits, 0u);
    EXPECT_EQ(stats.persistent_stores, 1u);
  }

  // Second lifetime, same directory: the in-memory miss is served from
  // disk — same object bytes, no rebuild.
  ObjectCache second(scratch.path());
  auto warmed = second.assemble(vfs, kMain, options);
  ASSERT_TRUE(warmed.ok());
  EXPECT_EQ(warmed.object->total_bytes(), cold_bytes);
  auto stats = second.stats();
  EXPECT_EQ(stats.misses, 1u);  // still an in-memory miss...
  EXPECT_EQ(stats.persistent_hits, 1u);  // ...but satisfied from disk
  EXPECT_EQ(stats.persistent_stores, 0u);  // nothing re-published

  // And the adopted entry serves in-memory hits from then on.
  EXPECT_TRUE(second.assemble(vfs, kMain, options).hit);
}

TEST(PersistentObjectCache, ChangedIncludeInvalidatesDiskEntry) {
  ScratchDir scratch("deps");
  auto vfs = tiny_program();
  AssemblerOptions options;
  {
    ObjectCache first(scratch.path());
    ASSERT_TRUE(first.assemble(vfs, kMain, options).ok());
  }

  // Same source text, different include content: the disk entry's deps
  // digest no longer matches — rebuild, then re-publish.
  vfs.write(kInc, "MAGIC .EQU 43\n");
  ObjectCache second(scratch.path());
  ASSERT_TRUE(second.assemble(vfs, kMain, options).ok());
  auto stats = second.stats();
  EXPECT_EQ(stats.persistent_hits, 0u);
  EXPECT_EQ(stats.persistent_stores, 1u);
}

TEST(PersistentObjectCache, NewShadowingFileInvalidatesDiskEntry) {
  // The probed-miss record must survive the disk round trip: a file
  // created at a search-path candidate probed (and missing) at build time
  // makes the persisted entry stale exactly like an in-memory one.
  ScratchDir scratch("shadow");
  support::VirtualFileSystem vfs;
  vfs.write("/lib2/defs.inc", "MAGIC .EQU 42\n");
  vfs.write("/cells/T1/test.asm",
            " .INCLUDE defs.inc\n"
            "_main:\n"
            " MOV d0, MAGIC\n"
            " HALT\n");
  AssemblerOptions options;
  options.include_dirs = {"/lib1", "/lib2"};
  {
    ObjectCache first(scratch.path());
    ASSERT_TRUE(first.assemble(vfs, "/cells/T1/test.asm", options).ok());
  }

  vfs.write("/lib1/defs.inc", "MAGIC .EQU 999999\n");
  ObjectCache second(scratch.path());
  auto rebuilt = second.assemble(vfs, "/cells/T1/test.asm", options);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(second.stats().persistent_hits, 0u);
  ASSERT_FALSE(rebuilt.includes->empty());
  EXPECT_EQ(rebuilt.includes->front().to_file, "/lib1/defs.inc");
}

TEST(PersistentObjectCache, CorruptedOrTruncatedEntryFallsBackToMiss) {
  ScratchDir scratch("corrupt");
  auto vfs = tiny_program();
  AssemblerOptions options;
  {
    ObjectCache first(scratch.path());
    ASSERT_TRUE(first.assemble(vfs, kMain, options).ok());
  }

  // Damage every stored entry three ways across iterations: truncated,
  // bit-flipped payload, and garbage header. Each must degrade to a
  // rebuild — never a crash, never a wrong object.
  std::vector<std::filesystem::path> entries;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.path())) {
    entries.push_back(entry.path());
  }
  ASSERT_FALSE(entries.empty());
  const auto original =
      [&](const std::filesystem::path& path) -> std::string {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }(entries.front());

  const auto write_bytes = [&](const std::string& bytes) {
    std::ofstream out(entries.front(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  for (const std::string& damaged :
       {original.substr(0, original.size() / 2),
        [&] {
          std::string flipped = original;
          flipped[flipped.size() - 3] ^= static_cast<char>(0xFF);
          return flipped;
        }(),
        std::string("not an advm object"), std::string()}) {
    write_bytes(damaged);
    ObjectCache cache(scratch.path());
    auto rebuilt = cache.assemble(vfs, kMain, options);
    ASSERT_TRUE(rebuilt.ok());
    auto stats = cache.stats();
    EXPECT_EQ(stats.persistent_hits, 0u);
    EXPECT_EQ(stats.persistent_stores, 1u);  // repaired on disk
  }

  // The final repair left a valid entry behind.
  ObjectCache cache(scratch.path());
  ASSERT_TRUE(cache.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(cache.stats().persistent_hits, 1u);
}

TEST(PersistentObjectCache, StoredObjectRoundTripsExactly) {
  auto vfs = tiny_program();
  AssemblerOptions options;
  ScratchDir scratch("roundtrip");
  ObjectCache cache(scratch.path());
  auto built = cache.assemble(vfs, kMain, options);
  ASSERT_TRUE(built.ok());

  StoredObject entry;
  entry.path = kMain;
  entry.source_digest = 1;
  entry.options_digest = 2;
  entry.deps_digest = 3;
  entry.includes = *built.includes;
  entry.probed_misses = {"/a/defs.inc"};
  entry.object = *built.object;

  const std::string bytes = encode_stored_object(entry);
  const auto decoded = decode_stored_object(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->path, entry.path);
  EXPECT_EQ(decoded->deps_digest, entry.deps_digest);
  EXPECT_EQ(decoded->probed_misses, entry.probed_misses);
  ASSERT_EQ(decoded->includes.size(), entry.includes.size());
  EXPECT_EQ(decoded->object.name, entry.object.name);
  ASSERT_EQ(decoded->object.sections.size(), entry.object.sections.size());
  for (std::size_t i = 0; i < entry.object.sections.size(); ++i) {
    EXPECT_EQ(decoded->object.sections[i].bytes,
              entry.object.sections[i].bytes);
    EXPECT_EQ(decoded->object.sections[i].org, entry.object.sections[i].org);
  }
  EXPECT_EQ(decoded->object.symbols.size(), entry.object.symbols.size());
  EXPECT_EQ(decoded->object.relocations.size(),
            entry.object.relocations.size());

  // Truncation at every prefix length parses to nullopt, never UB.
  for (std::size_t n = 0; n < bytes.size(); n += 7) {
    EXPECT_FALSE(decode_stored_object(bytes.substr(0, n)).has_value());
  }
}

TEST(PersistentObjectCache, ConcurrentWritersPublishWholeEntries) {
  // Concurrent processes share one cache directory with no coordination
  // beyond atomic renames: racing same-key writers must leave a complete
  // entry (any of theirs) and no torn files behind.
  ScratchDir scratch("race");
  auto vfs = tiny_program();
  AssemblerOptions options;

  constexpr int kWriters = 8;
  std::vector<std::unique_ptr<ObjectCache>> caches;
  for (int i = 0; i < kWriters; ++i) {
    caches.push_back(std::make_unique<ObjectCache>(scratch.path()));
  }
  std::atomic<int> failures{0};
  parallel_for(kWriters, kWriters, [&](std::size_t i) {
    if (!caches[i]->assemble(vfs, kMain, options).ok()) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);

  // No temp droppings; exactly one entry file.
  const auto expect_one_entry_file = [&] {
    std::size_t entry_files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch.path())) {
      EXPECT_EQ(entry.path().extension(), ".advmobj")
          << "leftover temp file " << entry.path();
      ++entry_files;
    }
    EXPECT_EQ(entry_files, 1u);
  };
  expect_one_entry_file();

  // An include edit keeps the key (path, source, options) but fails the
  // disk entry's revalidation: the rebuild re-stores the same key, which
  // replaces the entry in place.
  vfs.write(kInc, "MAGIC .EQU 43\n");
  ObjectCache restorer(scratch.path());
  ASSERT_TRUE(restorer.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(restorer.stats().persistent_hits, 0u);
  EXPECT_EQ(restorer.stats().persistent_stores, 1u);
  expect_one_entry_file();

  // The one entry decodes and is the re-stored build.
  ObjectCache reader(scratch.path());
  ASSERT_TRUE(reader.assemble(vfs, kMain, options).ok());
  EXPECT_EQ(reader.stats().persistent_hits, 1u);
}

// ------------------------------------------------------------ include memo --

/// Everything an assembly reports, rendered: the object (sections,
/// symbols, relocations with their locations) or the failure diagnostics,
/// then the include edges and the probed misses in order.
std::string assemble_rendered(const support::VirtualFileSystem& vfs,
                              const std::string& path,
                              const AssemblerOptions& options,
                              assembler::IncludeMemo* memo) {
  support::DiagnosticEngine diags;
  assembler::Assembler assembler(vfs, diags, options, memo);
  const auto result = assembler.assemble_file(path);
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

TEST(IncludeMemo, MemoOnAndOffAssembleEveryTranslationUnitIdentically) {
  // The `advm init --tests 40` tree and the e10 tree (--tests 2) generated
  // for every derivative, plus three broken cells on the wide tree: every
  // translation unit a regression assembles must come out the same with
  // one shared memo as without one, failures included.
  struct Tree {
    std::size_t tests;
    const soc::DerivativeSpec* spec;
    bool broken;
  };
  std::vector<Tree> trees{{40, &soc::derivative_a(), true}};
  for (const soc::DerivativeSpec* spec : soc::all_derivatives()) {
    trees.push_back({2, spec, false});
  }
  for (const Tree& tree : trees) {
    support::VirtualFileSystem vfs;
    SystemConfig config;
    config.environments = canonical_environments(tree.tests);
    const SystemLayout layout = build_system(vfs, config, *tree.spec);
    if (tree.broken) {
      const std::string env = layout.root + "/MEM_MODULE/";
      vfs.write(env + "BROKEN_SYNTAX/test.asm",
                ".INCLUDE Globals.inc\n_main:\n BOGUS d0, d0\n");
      vfs.write(env + "BROKEN_INCLUDE/test.asm",
                ".INCLUDE Globals.inc\n.INCLUDE no_such.inc\n_main:\n HALT\n");
      vfs.write(env + "WARNS/test.asm",
                ".INCLUDE Globals.inc\n.WARNING \"late\"\n_main:\n"
                " CALL Base_Report_Pass\n");
    }
    ObjectCache cache;
    const auto envs = prepare_system(vfs, layout.root, 1, cache);
    ASSERT_EQ(envs.size(), 5u);

    assembler::IncludeMemo memo;
    std::size_t units = 0;
    for (const EnvBuildContext& env : envs) {
      std::vector<std::string> sources;
      for (const std::string& path : vfs.list_tree(env.dir)) {
        if (path.ends_with(".asm")) sources.push_back(path);
      }
      for (const std::string& path : vfs.list_tree(layout.global_dir)) {
        if (path.ends_with(".asm")) sources.push_back(path);
      }
      for (const std::string& path : sources) {
        EXPECT_EQ(assemble_rendered(vfs, path, env.asm_options, &memo),
                  assemble_rendered(vfs, path, env.asm_options, nullptr))
            << path;
        ++units;
      }
    }
    // Per module: its Globals.inc, and the register_defs.inc the global
    // libraries include under its include path. Everything else replays.
    EXPECT_EQ(memo.size(), 2 * envs.size()) << tree.tests;
    EXPECT_GE(memo.hits(), units / 2) << tree.tests;
  }
}

/// Two test cells sharing one module's Globals.inc, which includes the
/// global register_defs.inc — the generated tree's shape in miniature.
struct SharedIncludeTree {
  static constexpr const char* kGlobals = "/sys/M/Abstraction_Layer/Globals.inc";
  static constexpr const char* kRegs = "/sys/Global_Libraries/register_defs.inc";
  static constexpr const char* kShadow =
      "/sys/M/Abstraction_Layer/register_defs.inc";
  static constexpr const char* kFirst = "/sys/M/T1/test.asm";
  static constexpr const char* kSecond = "/sys/M/T2/test.asm";

  SharedIncludeTree() {
    vfs.write(kRegs, "REG_A .EQU 0x11\n");
    vfs.write(kGlobals, ".INCLUDE register_defs.inc\nVALUE .EQU 5\n"
                        ".DEFINE Arg d4\n");
    const char* test = ".INCLUDE Globals.inc\n_main:\n MOV Arg, VALUE\n"
                       " MOV d1, REG_A\n HALT\n";
    vfs.write(kFirst, test);
    vfs.write(kSecond, test);
    options.include_dirs = {"/sys/M/Abstraction_Layer",
                            "/sys/Global_Libraries"};
  }

  /// Assembles the first cell through the memo, applies `edit`, then
  /// checks the second cell through the memo against a memo-off build.
  void expect_second_sees(const std::function<void()>& edit,
                          const std::string& marker) {
    (void)assemble_rendered(vfs, kFirst, options, &memo);
    const std::string before =
        assemble_rendered(vfs, kSecond, options, nullptr);
    edit();
    const std::string after = assemble_rendered(vfs, kSecond, options, &memo);
    EXPECT_EQ(after, assemble_rendered(vfs, kSecond, options, nullptr));
    EXPECT_NE(after, before);
    EXPECT_NE(after.find(marker), std::string::npos) << after;
  }

  support::VirtualFileSystem vfs;
  AssemblerOptions options;
  assembler::IncludeMemo memo;
};

TEST(IncludeMemo, SecondCellSeesEditsAndShadowingBetweenCells) {
  SharedIncludeTree tree;
  EXPECT_EQ(assemble_rendered(tree.vfs, tree.kFirst, tree.options, &tree.memo),
            assemble_rendered(tree.vfs, tree.kFirst, tree.options, nullptr));
  EXPECT_EQ(assemble_rendered(tree.vfs, tree.kSecond, tree.options,
                              &tree.memo),
            assemble_rendered(tree.vfs, tree.kSecond, tree.options, nullptr));
  EXPECT_EQ(tree.memo.hits(), 1u);

  // MOV's immediate is the little-endian tail of the instruction bytes.
  tree.expect_second_sees(
      [&] {
        tree.vfs.write(tree.kGlobals, ".INCLUDE register_defs.inc\n"
                                      "VALUE .EQU 0x77\n.DEFINE Arg d4\n");
      },
      " 119 0 0 0");
  tree.expect_second_sees(
      [&] { tree.vfs.write(tree.kRegs, "REG_A .EQU 0x22\n"); }, " 34 0 0 0");
  tree.expect_second_sees(
      [&] { tree.vfs.write(tree.kShadow, "REG_A .EQU 0x33\n"); },
      std::string("-> ") + tree.kShadow);
  // Each edit replaced the module's one entry instead of adding another.
  EXPECT_EQ(tree.memo.size(), 1u);
}

TEST(IncludeMemo, IneligibleIncludesAreProcessedEveryTime) {
  struct Case {
    const char* name;
    const char* include;
    const char* test;
  };
  const Case cases[] = {
      {"after a label", "V .EQU 1\n",
       "_start:\n.INCLUDE inc.inc\n MOV d0, V\n HALT\n"},
      {"after the unit's own .EQU", ".IFDEF X\nV .EQU 1\n.ENDIF\n",
       "X .EQU 1\n.INCLUDE inc.inc\n_main:\n MOV d0, V\n HALT\n"},
      {"after the unit's own .DEFINE", "V .EQU 1\n",
       ".DEFINE R d0\n.INCLUDE inc.inc\n_main:\n MOV R, V\n HALT\n"},
      {"emits .DD", "V .EQU 1\n .DD 5\n",
       ".INCLUDE inc.inc\n_main:\n MOV d0, V\n HALT\n"},
      {"warns", "V .EQU 1\n.WARNING \"careful\"\n",
       ".INCLUDE inc.inc\n_main:\n MOV d0, V\n HALT\n"},
      {"defines a macro", ".MACRO Stop\n HALT\n.ENDM\n",
       ".INCLUDE inc.inc\n_main:\n Stop\n"},
      {"leaves .IF open", ".IF 1\nV .EQU 1\n",
       ".INCLUDE inc.inc\n.ENDIF\n_main:\n MOV d0, V\n HALT\n"},
  };
  for (const Case& c : cases) {
    support::VirtualFileSystem vfs;
    vfs.write("/m/inc.inc", c.include);
    vfs.write("/m/a/test.asm", c.test);
    vfs.write("/m/b/test.asm", c.test);
    AssemblerOptions options;
    options.include_dirs = {"/m"};
    assembler::IncludeMemo memo;
    for (const char* path : {"/m/a/test.asm", "/m/b/test.asm"}) {
      const std::string on = assemble_rendered(vfs, path, options, &memo);
      EXPECT_EQ(on, assemble_rendered(vfs, path, options, nullptr))
          << c.name;
      EXPECT_NE(on.find("edge " + std::string(path) + " -> /m/inc.inc"),
                std::string::npos)
          << c.name << "\n" << on;
    }
    EXPECT_EQ(memo.size(), 0u) << c.name;
    EXPECT_EQ(memo.hits(), 0u) << c.name;
  }
}

}  // namespace
