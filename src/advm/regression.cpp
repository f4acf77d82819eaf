#include "advm/regression.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "advm/base_functions.h"
#include "advm/environment.h"
#include "advm/lint/cfg.h"
#include "asm/assembler.h"
#include "asm/linker.h"
#include "soc/board.h"
#include "soc/global_layer.h"
#include "support/diagnostics.h"
#include "support/hash.h"

namespace advm::core {

using assembler::ObjectFile;
using support::join_path;

std::size_t RegressionReport::passed() const {
  std::size_t n = 0;
  for (const auto& r : records) n += r.passed() ? 1 : 0;
  return n;
}

std::size_t RegressionReport::failed() const {
  return records.size() - passed();
}

std::size_t RegressionReport::build_failures() const {
  std::size_t n = 0;
  for (const auto& r : records) n += r.build_ok ? 0 : 1;
  return n;
}

bool RegressionReport::all_passed() const {
  return !records.empty() && passed() == records.size();
}

std::uint64_t RegressionReport::total_instructions() const {
  std::uint64_t n = 0;
  for (const auto& r : records) n += r.instructions;
  return n;
}

double RegressionReport::total_modeled_seconds() const {
  double s = 0;
  for (const auto& r : records) s += r.modeled_seconds;
  return s;
}

std::uint64_t RegressionReport::outcome_digest() const {
  support::Fnv1a h;
  for (const auto& r : records) {
    h.update(r.environment);
    h.update(r.test_id);
    h.update(std::uint64_t{static_cast<std::uint8_t>(r.verdict)});
    h.update(r.state_digest);
  }
  return h.digest();
}

namespace {

/// Appends the resolved-include trail of a failed assembly so BUILD-FAIL
/// records name the file that introduced the failure, not just the
/// top-level translation unit.
void append_include_trail(
    std::string& error,
    const std::shared_ptr<const std::vector<assembler::IncludeEdge>>&
        includes) {
  if (!includes || includes->empty()) return;
  error += " [include trail:";
  for (const auto& edge : *includes) {
    error += " " + edge.from_file + " -> " + edge.to_file + ";";
  }
  error.back() = ']';
}

/// "stuck polling uart+0x4 at ES_Uart_Send_Byte" — the proven loop's
/// polled register and its head, attributed like `advm lint` findings to
/// the nearest preceding symbol, here among the global symbols of the
/// segment holding the loop (local labels carry mangled object paths).
std::string describe_stuck_loop(const sim::RunResult& run,
                                const assembler::Image& image) {
  lint::SymbolTable symbols;
  for (const assembler::Segment& segment : image.segments) {
    if (run.stuck_pc < segment.base || run.stuck_pc >= segment.end()) {
      continue;
    }
    for (const auto& [name, symbol] : image.symbols) {
      if (symbol.address >= segment.base && symbol.address < segment.end() &&
          !name.starts_with("$local$")) {
        symbols.emplace_back(symbol.address, name);
      }
    }
  }
  std::sort(symbols.begin(), symbols.end());
  std::string text = run.stuck_poll.empty()
                         ? "stuck looping"
                         : "stuck polling " + run.stuck_poll;
  text += " at ";
  if (const auto symbol = lint::symbol_before(symbols, run.stuck_pc)) {
    text += symbol->to_string();
  } else {
    char pc[16];
    std::snprintf(pc, sizeof pc, "0x%x", run.stuck_pc);
    text += pc;
  }
  return text;
}

/// Runs one linked image on a board leased for (spec, platform). `record`
/// arrives carrying the cell's identity.
TestRunRecord run_image(TestRunRecord record, const assembler::Image& image,
                        const soc::DerivativeSpec& spec,
                        sim::PlatformKind platform,
                        std::uint64_t max_instructions, BoardPool& boards) {
  BoardPool::Lease lease = boards.acquire(spec, platform);
  soc::Board& board = lease.board();
  std::string load_error;
  if (!board.load(image, &load_error)) {
    record.detail = load_error;
    return record;
  }
  record.build_ok = true;

  soc::RunOutcome outcome = board.run(max_instructions);
  record.verdict = outcome.verdict;
  record.stop = outcome.machine.reason;
  record.detail = outcome.console;
  record.instructions = outcome.machine.instructions;
  record.cycles = outcome.machine.cycles;
  record.state_digest = board.machine().state_digest();
  record.modeled_seconds = outcome.modeled_seconds;
  record.x_register_reads = outcome.x_register_reads;
  record.x_ram_reads = outcome.x_ram_reads;
  if (outcome.machine.fast_forwarded != 0) {
    record.stuck = describe_stuck_loop(outcome.machine, image);
  }
  return record;
}

/// Link half of the link+run phase for one (memory map, test): fills in
/// `record`'s identity and links the cached test object against the
/// environment's shared objects. The image depends on the derivative only
/// through link_options(spec), so every cell with those options runs this
/// one image. nullopt with the reason in `record.detail` on a build
/// problem (environment-wide, the test's own, or the link) — the record
/// every such cell then gets.
std::optional<assembler::Image> link_test(const EnvBuildContext& env,
                                          std::size_t test,
                                          const CachedObject& test_obj,
                                          const soc::DerivativeSpec& spec,
                                          TestRunRecord& record) {
  record.environment = support::base_name(env.dir);
  record.test_id = env.tests[test];
  if (!env.ok()) {
    record.detail = "shared object '" + env.failed_library +
                    "': " + env.failure.error;
    append_include_trail(record.detail, env.failure.includes);
    return std::nullopt;
  }
  if (!test_obj.ok()) {
    record.detail = test_obj.error;
    append_include_trail(record.detail, test_obj.includes);
    return std::nullopt;
  }
  support::DiagnosticEngine diags;
  auto image = link_cell(env, *test_obj.object, spec, diags);
  if (!image) record.detail = diags.to_string();
  return image;
}

/// Assembly phase 2: every test.asm becomes an ObjectFile exactly once,
/// fanned out over the pool — this cost is independent of how many matrix
/// cells will link against it. Returns one object per (environment, test);
/// an environment whose shared build failed assembles none of its tests.
std::vector<std::vector<CachedObject>> assemble_tests(
    const support::VirtualFileSystem& vfs,
    const std::vector<EnvBuildContext>& envs, std::size_t jobs,
    ObjectCache& cache) {
  struct Unit {
    std::size_t env = 0;
    std::size_t test = 0;
  };
  std::vector<std::vector<CachedObject>> objects(envs.size());
  std::vector<Unit> units;
  for (std::size_t e = 0; e < envs.size(); ++e) {
    objects[e].resize(envs[e].tests.size());
    if (!envs[e].ok()) continue;  // env-wide failure covers every cell
    for (std::size_t t = 0; t < envs[e].tests.size(); ++t) {
      units.push_back({e, t});
    }
  }
  parallel_for(units.size(), jobs, [&](std::size_t i) {
    const EnvBuildContext& env = envs[units[i].env];
    objects[units[i].env][units[i].test] = cache.assemble(
        vfs, env.test_source(units[i].test), env.asm_options);
  });
  return objects;
}

/// Link+run phase: executes the (cell × environment × test) cube over the
/// worker pool against the phase-A object cube, one task per (memory map,
/// environment, test) — each task links its image once and runs it on
/// every cell whose derivative induces that map's link_options(). Every
/// task writes pre-allocated record slots, so aggregation is in submission
/// order by construction — pool size never reorders a report.
std::vector<RegressionReport> run_planned_matrix(
    const std::vector<EnvBuildContext>& envs,
    const std::vector<std::vector<CachedObject>>& objects,
    const std::vector<MatrixCell>& cells, std::size_t jobs,
    std::uint64_t max_instructions, BoardPool& boards) {
  /// The cells of one memory map, in `cells` order.
  struct MemoryMap {
    assembler::LinkOptions options;
    const soc::DerivativeSpec* spec = nullptr;  ///< the first cell's
    std::vector<std::size_t> cells;
  };
  struct Task {
    std::size_t map = 0;
    std::size_t env = 0;
    std::size_t test = 0;
    std::size_t slot = 0;  ///< record index within each cell's report
  };

  std::vector<MemoryMap> maps;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    assembler::LinkOptions options = link_options(*cells[c].spec);
    auto it = std::find_if(maps.begin(), maps.end(), [&](const MemoryMap& m) {
      return m.options == options;
    });
    if (it == maps.end()) {
      it = maps.insert(maps.end(), {std::move(options), cells[c].spec, {}});
    }
    it->cells.push_back(c);
  }

  std::size_t record_count = 0;
  for (const EnvBuildContext& env : envs) record_count += env.tests.size();
  std::vector<RegressionReport> reports(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    reports[c].derivative = cells[c].spec->name;
    reports[c].platform = cells[c].platform;
    reports[c].records.resize(record_count);
  }

  std::vector<Task> tasks;
  tasks.reserve(maps.size() * record_count);
  for (std::size_t m = 0; m < maps.size(); ++m) {
    std::size_t slot = 0;
    for (std::size_t e = 0; e < envs.size(); ++e) {
      for (std::size_t t = 0; t < envs[e].tests.size(); ++t) {
        tasks.push_back({m, e, t, slot++});
      }
    }
  }

  parallel_for(tasks.size(), jobs, [&](std::size_t i) {
    const Task& task = tasks[i];
    const MemoryMap& map = maps[task.map];
    TestRunRecord record;
    const auto image = link_test(envs[task.env], task.test,
                                 objects[task.env][task.test], *map.spec,
                                 record);
    for (std::size_t c : map.cells) {
      reports[c].records[task.slot] =
          image ? run_image(record, *image, *cells[c].spec, cells[c].platform,
                            max_instructions, boards)
                : record;
    }
  });
  return reports;
}

/// Two-phase execution shared by every public entry point: assemble each
/// translation unit once (phase A: the environments' shared libraries were
/// built by the caller, now every test), then link+run the cube (phase
/// B). Cache counters since `before` land on every cell's report.
std::vector<RegressionReport> run_two_phase(
    const support::VirtualFileSystem& vfs,
    const std::vector<EnvBuildContext>& envs, const ObjectCacheStats& before,
    const std::vector<MatrixCell>& cells, std::size_t jobs, ObjectCache& cache,
    std::uint64_t max_instructions, BoardPool& boards) {
  const auto objects = assemble_tests(vfs, envs, jobs, cache);
  auto reports = run_planned_matrix(envs, objects, cells, jobs,
                                    max_instructions, boards);
  const ObjectCacheStats after = cache.stats();
  for (RegressionReport& report : reports) {
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    report.cache.bytes = after.bytes;
    report.cache.persistent_hits =
        after.persistent_hits - before.persistent_hits;
    report.cache.persistent_stores =
        after.persistent_stores - before.persistent_stores;
  }
  return reports;
}

}  // namespace

std::vector<std::string> discover_tests(const support::VirtualFileSystem& vfs,
                                        std::string_view env_dir) {
  std::vector<std::string> tests;
  for (const std::string& entry : vfs.list_dir(env_dir)) {
    if (entry.empty() || entry.back() != '/') continue;  // files
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kAbstractionLayerDir) continue;
    const std::string cell_dir = join_path(env_dir, name);
    if (!vfs.exists(join_path(cell_dir, kTestSourceFile))) continue;
    tests.push_back(name);
  }
  return tests;
}

std::vector<std::string> discover_environments(
    const support::VirtualFileSystem& vfs, std::string_view system_root) {
  std::vector<std::string> envs;
  for (const std::string& entry : vfs.list_dir(system_root)) {
    if (entry.empty() || entry.back() != '/') continue;
    const std::string name = entry.substr(0, entry.size() - 1);
    if (name == kGlobalLibrariesDir) continue;
    const std::string env_dir = join_path(system_root, name);
    if (!vfs.exists(join_path(env_dir, kTestplanFile))) continue;
    envs.push_back(env_dir);
  }
  return envs;
}

std::string EnvBuildContext::test_source(std::size_t test) const {
  return join_path(join_path(dir, tests[test]), kTestSourceFile);
}

EnvBuildContext prepare_environment(const support::VirtualFileSystem& vfs,
                                    std::string_view env_dir,
                                    std::string_view global_dir,
                                    ObjectCache& cache) {
  EnvBuildContext env;
  env.dir = std::string(env_dir);
  env.tests = discover_tests(vfs, env_dir);
  const std::string abstraction_dir =
      join_path(env_dir, kAbstractionLayerDir);
  if (vfs.dir_exists(abstraction_dir)) {
    env.asm_options.include_dirs.push_back(abstraction_dir);
  }
  env.asm_options.include_dirs.push_back(std::string(global_dir));

  for (std::string path :
       {join_path(abstraction_dir, kBaseFunctionsFile),
        join_path(global_dir, kTrapLibraryFile),
        join_path(global_dir, soc::kEmbeddedSoftwareFile),
        join_path(global_dir, soc::kCommonFunctionsFile)}) {
    if (!vfs.exists(path)) continue;  // optional component
    CachedObject built = cache.assemble(vfs, path, env.asm_options);
    if (!built.ok()) {
      env.failed_library = std::move(path);
      env.failure = std::move(built);
      break;
    }
    env.shared_objects.push_back(std::move(built.object));
  }
  return env;
}

std::vector<EnvBuildContext> prepare_system(
    const support::VirtualFileSystem& vfs, std::string_view system_root,
    std::size_t jobs, ObjectCache& cache) {
  const std::string global_dir = join_path(system_root, kGlobalLibrariesDir);
  const std::vector<std::string> env_dirs =
      discover_environments(vfs, system_root);
  std::vector<EnvBuildContext> envs(env_dirs.size());
  parallel_for(env_dirs.size(), jobs, [&](std::size_t i) {
    envs[i] = prepare_environment(vfs, env_dirs[i], global_dir, cache);
  });
  return envs;
}

assembler::LinkOptions link_options(const soc::DerivativeSpec& spec) {
  assembler::LinkOptions options;
  options.code_base = spec.code_base();
  options.data_base = spec.data_base();
  return options;
}

std::optional<assembler::Image> link_cell(
    const EnvBuildContext& env, const ObjectFile& test_object,
    const soc::DerivativeSpec& spec, support::DiagnosticEngine& diags) {
  std::vector<const ObjectFile*> objects;
  objects.reserve(1 + env.shared_objects.size());
  objects.push_back(&test_object);
  for (const auto& shared : env.shared_objects) {
    objects.push_back(shared.get());
  }
  return assembler::link(objects, link_options(spec), diags);
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (jobs == 0) {
    jobs = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  jobs = std::min(jobs, count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = cursor.fetch_add(1)) < count;) {
        try {
          task(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
}

RegressionReport RegressionRunner::run_environment(
    std::string_view env_dir, std::string_view global_dir,
    const soc::DerivativeSpec& spec, sim::PlatformKind platform,
    std::uint64_t max_instructions) {
  const ObjectCacheStats before = cache_->stats();
  auto reports = run_two_phase(
      vfs_, {prepare_environment(vfs_, env_dir, global_dir, *cache_)}, before,
      {{&spec, platform}}, jobs_, *cache_, max_instructions, *boards_);
  return std::move(reports.front());
}

RegressionReport RegressionRunner::run_system(
    std::string_view system_root, const soc::DerivativeSpec& spec,
    sim::PlatformKind platform, std::uint64_t max_instructions) {
  auto reports =
      run_matrix(system_root, {{&spec, platform}}, max_instructions);
  return std::move(reports.front());
}

std::vector<RegressionReport> RegressionRunner::run_matrix(
    std::string_view system_root, const std::vector<MatrixCell>& cells,
    std::uint64_t max_instructions) {
  const ObjectCacheStats before = cache_->stats();
  return run_two_phase(vfs_,
                       prepare_system(vfs_, system_root, jobs_, *cache_),
                       before, cells, jobs_, *cache_, max_instructions,
                       *boards_);
}

std::string format_report(const RegressionReport& report) {
  std::ostringstream os;
  os << "regression: " << report.derivative << " on "
     << sim::to_string(report.platform) << "\n";
  for (const auto& r : report.records) {
    os << "  " << r.environment << "/" << r.test_id << ": ";
    if (!r.build_ok) {
      os << "BUILD-FAIL";
    } else {
      os << to_string(r.verdict) << " (" << sim::to_string(r.stop) << ", "
         << r.instructions << " instr, " << r.cycles << " cyc";
      if (!r.stuck.empty()) os << "; " << r.stuck;
      if (r.x_register_reads != 0) {
        os << "; " << r.x_register_reads << " X register reads";
      }
      if (r.x_ram_reads != 0) os << "; " << r.x_ram_reads << " X RAM reads";
      os << ")";
    }
    os << "\n";
  }
  os << "  total: " << report.passed() << "/" << report.records.size()
     << " passed";
  if (report.build_failures() != 0) {
    os << ", " << report.build_failures() << " build failures";
  }
  os << "\n";
  os << "  object cache: " << report.cache.hits << " hits, "
     << report.cache.misses << " misses, " << report.cache.bytes
     << " object bytes\n";
  return os.str();
}

}  // namespace advm::core
