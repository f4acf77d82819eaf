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

using assembler::AssemblerOptions;
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

/// Everything shared by the tests of one environment build. Shared objects
/// are held by pointer into the cache — linking a test never copies them.
struct EnvBuildContext {
  std::vector<std::shared_ptr<const ObjectFile>> shared_objects;
  AssemblerOptions asm_options;
  bool ok = false;
  std::string error;
};

EnvBuildContext prepare_environment(const support::VirtualFileSystem& vfs,
                                    std::string_view env_dir,
                                    std::string_view global_dir,
                                    ObjectCache& cache) {
  EnvBuildContext ctx;
  const std::string abstraction_dir =
      join_path(env_dir, kAbstractionLayerDir);

  if (vfs.dir_exists(abstraction_dir)) {
    ctx.asm_options.include_dirs.push_back(abstraction_dir);
  }
  ctx.asm_options.include_dirs.push_back(std::string(global_dir));

  auto add_shared = [&](const std::string& path) {
    if (!vfs.exists(path)) return true;  // optional component
    CachedObject built = cache.assemble(vfs, path, ctx.asm_options);
    if (!built.ok()) {
      ctx.error = "shared object '" + path + "': " + built.error;
      append_include_trail(ctx.error, built.includes);
      return false;
    }
    ctx.shared_objects.push_back(std::move(built.object));
    return true;
  };

  if (!add_shared(join_path(abstraction_dir, kBaseFunctionsFile))) return ctx;
  if (!add_shared(join_path(global_dir, kTrapLibraryFile))) return ctx;
  if (!add_shared(join_path(global_dir, soc::kEmbeddedSoftwareFile))) {
    return ctx;
  }
  if (!add_shared(join_path(global_dir, soc::kCommonFunctionsFile))) {
    return ctx;
  }
  ctx.ok = true;
  return ctx;
}

/// Link+run phase for one (cell, test): links the cached test object
/// against the environment's shared objects — all by pointer, zero
/// ObjectFile copies — and executes the image.
TestRunRecord run_one_test(const EnvBuildContext& ctx,
                           const CachedObject& test_obj,
                           std::string_view env_dir, const std::string& test_id,
                           const soc::DerivativeSpec& spec,
                           sim::PlatformKind platform,
                           std::uint64_t max_instructions, BoardPool& boards) {
  TestRunRecord record;
  record.environment = support::base_name(env_dir);
  record.test_id = test_id;

  if (!test_obj.ok()) {
    record.detail = test_obj.error;
    append_include_trail(record.detail, test_obj.includes);
    return record;
  }

  std::vector<const ObjectFile*> objects;
  objects.reserve(1 + ctx.shared_objects.size());
  objects.push_back(test_obj.object.get());
  for (const auto& shared : ctx.shared_objects) {
    objects.push_back(shared.get());
  }

  support::DiagnosticEngine diags;
  assembler::LinkOptions link_options;
  link_options.code_base = spec.code_base();
  link_options.data_base = spec.data_base();
  auto image = assembler::link(objects, link_options, diags);
  if (!image) {
    record.detail = diags.to_string();
    return record;
  }

  BoardPool::Lease lease = boards.acquire(spec, platform);
  soc::Board& board = lease.board();
  std::string load_error;
  if (!board.load(*image, &load_error)) {
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
  if (outcome.machine.fast_forwarded != 0) {
    record.stuck = describe_stuck_loop(outcome.machine, *image);
  }
  return record;
}

/// An environment ready to execute: directory, discovered test cells (in
/// VFS order, which fixes the report order), the shared build context, and
/// — after the assembly phase — one cached object per test cell.
struct EnvPlan {
  std::string dir;
  std::vector<std::string> tests;
  std::vector<CachedObject> test_objects;  ///< parallel to `tests`
  EnvBuildContext ctx;
};

/// Assembly phase 1: discovers test cells and assembles shared objects for
/// every environment. The per-environment builds are independent, so they
/// run on the pool too.
std::vector<EnvPlan> plan_environments(const support::VirtualFileSystem& vfs,
                                       const std::vector<std::string>& env_dirs,
                                       std::string_view global_dir,
                                       std::size_t jobs, ObjectCache& cache) {
  std::vector<EnvPlan> plans(env_dirs.size());
  parallel_for(env_dirs.size(), jobs, [&](std::size_t i) {
    plans[i].dir = env_dirs[i];
    plans[i].tests = discover_tests(vfs, env_dirs[i]);
    plans[i].ctx = prepare_environment(vfs, env_dirs[i], global_dir, cache);
  });
  return plans;
}

/// Assembly phase 2: every test.asm becomes an ObjectFile exactly once,
/// fanned out over the pool — this cost is independent of how many matrix
/// cells will link against it.
void assemble_tests(const support::VirtualFileSystem& vfs,
                    std::vector<EnvPlan>& plans, std::size_t jobs,
                    ObjectCache& cache) {
  struct Unit {
    std::size_t env = 0;
    std::size_t test = 0;
  };
  std::vector<Unit> units;
  for (std::size_t e = 0; e < plans.size(); ++e) {
    plans[e].test_objects.resize(plans[e].tests.size());
    if (!plans[e].ctx.ok) continue;  // env-wide failure covers every cell
    for (std::size_t t = 0; t < plans[e].tests.size(); ++t) {
      units.push_back({e, t});
    }
  }
  parallel_for(units.size(), jobs, [&](std::size_t i) {
    EnvPlan& plan = plans[units[i].env];
    const std::string test_path = join_path(
        join_path(plan.dir, plan.tests[units[i].test]), kTestSourceFile);
    plan.test_objects[units[i].test] =
        cache.assemble(vfs, test_path, plan.ctx.asm_options);
  });
}

TestRunRecord run_planned_test(const EnvPlan& plan, std::size_t test_index,
                               const soc::DerivativeSpec& spec,
                               sim::PlatformKind platform,
                               std::uint64_t max_instructions,
                               BoardPool& boards) {
  if (!plan.ctx.ok) {
    // Environment-wide build problem: every cell reports it.
    TestRunRecord record;
    record.environment = support::base_name(plan.dir);
    record.test_id = plan.tests[test_index];
    record.detail = plan.ctx.error;
    return record;
  }
  return run_one_test(plan.ctx, plan.test_objects[test_index], plan.dir,
                      plan.tests[test_index], spec, platform, max_instructions,
                      boards);
}

/// Link+run phase: executes the (cell × environment × test) cube over the
/// worker pool against the phase-A object cube. Every task writes one
/// pre-allocated record slot, so aggregation is in submission order by
/// construction — pool size never reorders a report.
std::vector<RegressionReport> run_planned_matrix(
    const std::vector<EnvPlan>& plans, const std::vector<MatrixCell>& cells,
    std::size_t jobs, std::uint64_t max_instructions, BoardPool& boards) {
  struct Task {
    std::size_t cell = 0;
    std::size_t env = 0;
    std::size_t test = 0;
    std::size_t slot = 0;  ///< record index within the cell's report
  };

  std::vector<RegressionReport> reports(cells.size());
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    reports[c].derivative = cells[c].spec->name;
    reports[c].platform = cells[c].platform;
    std::size_t slot = 0;
    for (std::size_t e = 0; e < plans.size(); ++e) {
      for (std::size_t t = 0; t < plans[e].tests.size(); ++t) {
        tasks.push_back({c, e, t, slot++});
      }
    }
    reports[c].records.resize(slot);
  }

  parallel_for(tasks.size(), jobs, [&](std::size_t i) {
    const Task& task = tasks[i];
    reports[task.cell].records[task.slot] =
        run_planned_test(plans[task.env], task.test, *cells[task.cell].spec,
                         cells[task.cell].platform, max_instructions, boards);
  });
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

  // Workers claim K tasks per fetch_add instead of one: at 10k+ matrix
  // cells the single shared cursor otherwise becomes a contended cache
  // line. K scales with count/jobs (≈8 claims per worker) and is capped so
  // the tail of an uneven workload still balances.
  const std::size_t chunk =
      std::clamp<std::size_t>(count / (jobs * 8), 1, 64);
  std::atomic<std::size_t> cursor{0};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (std::size_t base; (base = cursor.fetch_add(chunk)) < count;) {
        const std::size_t end = std::min(count, base + chunk);
        for (std::size_t i = base; i < end; ++i) {
          try {
            task(i);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) failure = std::current_exception();
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  if (failure) std::rethrow_exception(failure);
}

namespace {

/// Two-phase execution shared by every public entry point: assemble each
/// translation unit once (phases A1/A2), then link+run the cube (phase B).
/// Cache counters observed across the run land on every cell's report.
std::vector<RegressionReport> run_two_phase(
    const support::VirtualFileSystem& vfs,
    const std::vector<std::string>& env_dirs, std::string_view global_dir,
    const std::vector<MatrixCell>& cells, std::size_t jobs, ObjectCache& cache,
    std::uint64_t max_instructions, BoardPool& boards) {
  const ObjectCacheStats before = cache.stats();
  auto plans = plan_environments(vfs, env_dirs, global_dir, jobs, cache);
  assemble_tests(vfs, plans, jobs, cache);
  auto reports =
      run_planned_matrix(plans, cells, jobs, max_instructions, boards);
  const ObjectCacheStats after = cache.stats();
  for (RegressionReport& report : reports) {
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    report.cache.evictions = after.evictions - before.evictions;
    report.cache.bytes = after.bytes;
    report.cache.persistent_hits =
        after.persistent_hits - before.persistent_hits;
    report.cache.persistent_stores =
        after.persistent_stores - before.persistent_stores;
    report.cache.persistent_evictions =
        after.persistent_evictions - before.persistent_evictions;
  }
  return reports;
}

}  // namespace

RegressionReport RegressionRunner::run_environment(
    std::string_view env_dir, std::string_view global_dir,
    const soc::DerivativeSpec& spec, sim::PlatformKind platform,
    std::uint64_t max_instructions) {
  auto reports = run_two_phase(vfs_, {std::string(env_dir)}, global_dir,
                               {{&spec, platform}}, jobs_, *cache_,
                               max_instructions, *boards_);
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
  const std::string global_dir = join_path(system_root, kGlobalLibrariesDir);
  return run_two_phase(vfs_, discover_environments(vfs_, system_root),
                       global_dir, cells, jobs_, *cache_, max_instructions,
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
     << " object bytes";
  if (report.cache.evictions != 0) {
    os << ", " << report.cache.evictions << " evictions";
  }
  os << "\n";
  return os.str();
}

}  // namespace advm::core
