// advm_replay — in-process replay of one benchmark lap, with optional spans.
//
// A benchmark lap is what a user types: `advm matrix <tree> ...`. This
// program performs the same work in its own process through the same public
// layer calls the CLI reaches — disk import, discovery,
// ObjectCache::assemble, assembler::link, BoardPool leases, Board::load/run
// and to_json — so perfbench/run.py can attribute a lap's time to layers
// without any tracing inside src/. With --port-tree, each lap first does
// what `advm port <port-tree> --to X` does (import, PortRequest, export) on
// that second tree, so the porting and export layers are timed too; the
// matrix tree is never ported. With --trace every one of those calls is
// wrapped in a span (name, start, end, parent, lap, thread); spans stay in
// memory and are printed at the end, together with per-lap counts and
// per-cell outcomes (digest, instructions, cache hits and misses: the
// replay-parity tokens run.py compares against the CLI laps).
//
// usage: advm_replay --tree DIR --derivatives A,B --laps N --seconds S
//                    [--port-tree DIR --port-targets X,Y,...] [--trace]
//
// The lap's --jobs and platform list are compiled in from lap.json, which
// run.py reads too. Laps stop after --laps laps or --seconds seconds,
// whichever comes first, but never before kMinLaps. Each lap uses fresh
// sessions, like the CLI processes it mirrors. A lap's wall_ns times its
// matrix part only. Exit 0 with one JSON document on stdout, 2 on bad
// arguments or a failed call.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "advm/base_functions.h"
#include "advm/environment.h"
#include "advm/regression.h"
#include "advm/report.h"
#include "advm/session.h"
#include "asm/linker.h"
#include "soc/global_layer.h"
#include "support/diagnostics.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/text.h"

namespace {

using namespace advm;
using namespace advm::core;
using Clock = std::chrono::steady_clock;

constexpr const char* kVfsRoot = "/SYS";
constexpr std::size_t kJobs = ADVM_BENCH_JOBS;
constexpr const char* kPlatforms = ADVM_BENCH_PLATFORMS;
constexpr std::size_t kMinLaps = 3;

// Span names: one per layer call, plus the two structural spans ("lap",
// "cell") whose self time is the replay's own bookkeeping.
constexpr const char* kLap = "lap";
constexpr const char* kCell = "cell";
constexpr const char* kImport = "support.vfs.import";
constexpr const char* kExport = "support.vfs.export";
constexpr const char* kDiscover = "advm.regression.discover";
constexpr const char* kPort = "advm.porting.port";
constexpr const char* kCacheHit = "advm.objcache.hit";
constexpr const char* kAssemble = "asm.assembler.miss";
constexpr const char* kLink = "asm.linker.link";
constexpr const char* kAcquire = "advm.boardpool.acquire";
constexpr const char* kRelease = "advm.boardpool.release";
constexpr const char* kLoad = "soc.board.load";
constexpr const char* kRun = "sim.machine.run";
constexpr const char* kRender = "advm.report.render";

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span; -1 for a lap
  std::size_t lap = 0;
  std::uint32_t thread = 0;
};

/// Small dense id per OS thread, for the trace viewer's thread rows.
std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// In-memory span store shared by the lap's worker threads. Disabled, it
/// records nothing and every Span is a no-op.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a span and returns its id, so children can name it as parent
  /// before it closes.
  std::int64_t open(const char* name, std::int64_t parent, std::size_t lap) {
    SpanRecord span;
    span.name = name;
    span.parent = parent;
    span.lap = lap;
    span.thread = this_thread_index();
    span.start_ns = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t id, const char* name) {
    const std::int64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = end;
    span.name = name;
  }

  /// Read once every lap has finished (no worker thread is alive).
  [[nodiscard]] const std::deque<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::mutex mutex_;  ///< guards spans_
  std::deque<SpanRecord> spans_;
};

/// RAII span: opened on construction, closed (under its final name) on
/// destruction.
class Span {
 public:
  Span(Recorder& recorder, const char* name, std::int64_t parent,
       std::size_t lap)
      : recorder_(recorder),
        name_(name),
        id_(recorder.enabled() ? recorder.open(name, parent, lap) : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (id_ >= 0) recorder_.close(id_, name_);
  }

  /// The outcome decides the layer (an ObjectCache hit vs an assembly).
  void rename(const char* name) { name_ = name; }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Recorder& recorder_;
  const char* name_;
  std::int64_t id_;
};

/// Counts recorded at the span boundaries of one lap. Worker threads add
/// to them concurrently.
struct LapCounts {
  std::atomic<std::uint64_t> assembled_lines{0};
  std::atomic<std::uint64_t> links{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> capped_tests{0};
  std::atomic<std::uint64_t> capped_instructions{0};
};

struct CellOutcome {
  std::string derivative;
  std::string platform;
  std::size_t passed = 0;
  std::size_t total = 0;
  std::string digest;
  std::uint64_t instructions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

struct LapResult {
  std::int64_t wall_ns = 0;
  std::vector<CellOutcome> cells;
  ObjectCacheStats cache;  ///< the matrix session's cache counters
  BoardPoolStats boards;
  std::size_t report_bytes = 0;
};

struct Options {
  std::string tree;
  std::vector<std::string> derivatives;
  std::size_t laps = 1;
  double seconds = 0;
  std::string port_tree;
  std::vector<std::string> port_targets;
  bool trace = false;
};

/// One lap's shared state: the recorder, the lap id and root span, counts.
struct LapContext {
  Recorder& recorder;
  std::size_t lap = 0;
  std::int64_t root = -1;
  LapCounts& counts;
};

/// Source lines a miss assembled: the translation unit plus every include
/// it resolved (the rule bench_e10_matrix's lines/s uses).
std::uint64_t assembled_lines(const support::VirtualFileSystem& vfs,
                              const std::string& path,
                              const CachedObject& built) {
  std::uint64_t lines = 0;
  if (auto source = vfs.read(path)) lines += support::count_lines(*source);
  if (built.includes) {
    for (const auto& edge : *built.includes) {
      if (auto content = vfs.read(edge.to_file)) {
        lines += support::count_lines(*content);
      }
    }
  }
  return lines;
}

/// ObjectCache::assemble inside a span filed under the layer that did the
/// work: advm.objcache for a hit, asm.assembler for a miss that assembled.
/// The lap's hit and miss counts come from the cache's stats() delta.
CachedObject traced_assemble(LapContext& lap, ObjectCache& cache,
                             const support::VirtualFileSystem& vfs,
                             const std::string& path,
                             const assembler::AssemblerOptions& options) {
  if (!lap.recorder.enabled()) return cache.assemble(vfs, path, options);
  CachedObject built;
  {
    Span span(lap.recorder, kAssemble, lap.root, lap.lap);
    built = cache.assemble(vfs, path, options);
    if (built.hit) span.rename(kCacheHit);
  }
  if (!built.hit) {
    lap.counts.assembled_lines.fetch_add(assembled_lines(vfs, path, built));
  }
  return built;
}

/// Everything the tests of one environment share (mirrors the runner's
/// per-environment build context).
struct EnvPlan {
  std::string dir;
  std::vector<std::string> tests;
  assembler::AssemblerOptions options;
  std::vector<std::shared_ptr<const assembler::ObjectFile>> shared;
  std::vector<CachedObject> test_objects;
  bool ok = false;
  std::string error;
};

void prepare_environment(LapContext& lap, const support::VirtualFileSystem& vfs,
                         ObjectCache& cache, const std::string& global_dir,
                         EnvPlan& plan) {
  {
    Span span(lap.recorder, kDiscover, lap.root, lap.lap);
    plan.tests = discover_tests(vfs, plan.dir);
  }
  const std::string abstraction_dir =
      support::join_path(plan.dir, kAbstractionLayerDir);
  if (vfs.dir_exists(abstraction_dir)) {
    plan.options.include_dirs.push_back(abstraction_dir);
  }
  plan.options.include_dirs.push_back(global_dir);
  for (const std::string& path :
       {support::join_path(abstraction_dir, kBaseFunctionsFile),
        support::join_path(global_dir, kTrapLibraryFile),
        support::join_path(global_dir, soc::kEmbeddedSoftwareFile),
        support::join_path(global_dir, soc::kCommonFunctionsFile)}) {
    if (!vfs.exists(path)) continue;  // optional component
    CachedObject built =
        traced_assemble(lap, cache, vfs, path, plan.options);
    if (!built.ok()) {
      plan.error = "shared object '" + path + "': " + built.error;
      return;
    }
    plan.shared.push_back(std::move(built.object));
  }
  plan.ok = true;
}

/// Link + lease + load + run + release for one (cell, test), each call in
/// its own span under a per-test "cell" span.
TestRunRecord run_test(LapContext& lap, const EnvPlan& plan,
                       std::size_t test_index, const MatrixCell& cell,
                       BoardPool& boards, std::uint64_t max_instructions) {
  Span test_span(lap.recorder, kCell, lap.root, lap.lap);
  TestRunRecord record;
  record.environment = support::base_name(plan.dir);
  record.test_id = plan.tests[test_index];
  if (!plan.ok) {
    record.detail = plan.error;
    return record;
  }
  const CachedObject& test_obj = plan.test_objects[test_index];
  if (!test_obj.ok()) {
    record.detail = test_obj.error;
    return record;
  }

  std::vector<const assembler::ObjectFile*> objects;
  objects.reserve(1 + plan.shared.size());
  objects.push_back(test_obj.object.get());
  for (const auto& shared : plan.shared) objects.push_back(shared.get());

  support::DiagnosticEngine diags;
  assembler::LinkOptions link_options;
  link_options.code_base = cell.spec->code_base();
  link_options.data_base = cell.spec->data_base();
  std::optional<assembler::Image> image;
  {
    Span span(lap.recorder, kLink, test_span.id(), lap.lap);
    image = assembler::link(objects, link_options, diags);
  }
  lap.counts.links.fetch_add(1);
  if (!image) {
    record.detail = diags.to_string();
    return record;
  }

  std::optional<BoardPool::Lease> lease;
  {
    Span span(lap.recorder, kAcquire, test_span.id(), lap.lap);
    lease.emplace(boards.acquire(*cell.spec, cell.platform));
  }
  soc::Board& board = lease->board();
  bool loaded = false;
  std::string load_error;
  {
    Span span(lap.recorder, kLoad, test_span.id(), lap.lap);
    loaded = board.load(*image, &load_error);
  }
  if (loaded) {
    record.build_ok = true;
    soc::RunOutcome outcome;
    {
      Span span(lap.recorder, kRun, test_span.id(), lap.lap);
      outcome = board.run(max_instructions);
    }
    record.verdict = outcome.verdict;
    record.stop = outcome.machine.reason;
    record.detail = outcome.console;
    record.instructions = outcome.machine.instructions;
    record.cycles = outcome.machine.cycles;
    record.state_digest = board.machine().state_digest();
    record.modeled_seconds = outcome.modeled_seconds;
    lap.counts.instructions.fetch_add(record.instructions);
    if (record.stop == sim::StopReason::CycleLimit) {
      lap.counts.capped_tests.fetch_add(1);
      lap.counts.capped_instructions.fetch_add(record.instructions);
    }
  } else {
    record.detail = load_error;
  }
  {
    Span span(lap.recorder, kRelease, test_span.id(), lap.lap);
    lease.reset();  // Lease destruction resets the board into the pool
  }
  return record;
}

/// `advm port <port-tree> --to target`: import, port, export, on a fresh
/// default session (the CLI's port invocation takes no flags).
void replay_port(LapContext& lap, const Options& options,
                 const std::string& target) {
  Session session;
  {
    Span span(lap.recorder, kImport, lap.root, lap.lap);
    support::import_from_disk(session.vfs(), options.port_tree, kVfsRoot);
  }
  PortResult result;
  {
    Span span(lap.recorder, kPort, lap.root, lap.lap);
    PortRequest request;
    request.root = kVfsRoot;
    request.to = target;
    result = session.run(request);
  }
  if (!result.status.ok()) {
    throw std::runtime_error("port to " + target + ": " +
                             result.status.message);
  }
  Span span(lap.recorder, kExport, lap.root, lap.lap);
  support::export_to_disk(session.vfs(), kVfsRoot, options.port_tree);
}

/// `advm matrix <tree> ... --jobs N --format json`: the
/// runner's two phases (assemble every TU once, then link+run the cube
/// over parallel_for) and the JSON render.
void replay_matrix(LapContext& lap, const std::string& tree,
                   const std::vector<MatrixCell>& cells, LapResult& out) {
  SessionConfig config;
  config.jobs = kJobs;
  Session session(std::move(config));
  const support::VirtualFileSystem& vfs = session.vfs();
  {
    Span span(lap.recorder, kImport, lap.root, lap.lap);
    support::import_from_disk(session.vfs(), tree, kVfsRoot);
  }
  const ObjectCacheStats cache_before = session.cache().stats();
  const BoardPoolStats boards_before = session.boards().stats();
  const std::string global_dir =
      support::join_path(kVfsRoot, kGlobalLibrariesDir);
  std::vector<std::string> env_dirs;
  {
    Span span(lap.recorder, kDiscover, lap.root, lap.lap);
    env_dirs = discover_environments(vfs, kVfsRoot);
  }
  std::vector<EnvPlan> plans(env_dirs.size());
  parallel_for(plans.size(), kJobs, [&](std::size_t i) {
    plans[i].dir = env_dirs[i];
    prepare_environment(lap, vfs, session.cache(), global_dir, plans[i]);
  });

  struct Unit {
    std::size_t env = 0;
    std::size_t test = 0;
  };
  std::vector<Unit> units;
  for (std::size_t e = 0; e < plans.size(); ++e) {
    plans[e].test_objects.resize(plans[e].tests.size());
    if (!plans[e].ok) continue;
    for (std::size_t t = 0; t < plans[e].tests.size(); ++t) {
      units.push_back({e, t});
    }
  }
  parallel_for(units.size(), kJobs, [&](std::size_t i) {
    EnvPlan& plan = plans[units[i].env];
    const std::string path = support::join_path(
        support::join_path(plan.dir, plan.tests[units[i].test]),
        kTestSourceFile);
    plan.test_objects[units[i].test] =
        traced_assemble(lap, session.cache(), vfs, path, plan.options);
  });

  struct Task {
    std::size_t cell = 0;
    std::size_t env = 0;
    std::size_t test = 0;
    std::size_t slot = 0;
  };
  MatrixResult result;
  result.cells.resize(cells.size());
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    result.cells[c].derivative = cells[c].spec->name;
    result.cells[c].platform = cells[c].platform;
    std::size_t slot = 0;
    for (std::size_t e = 0; e < plans.size(); ++e) {
      for (std::size_t t = 0; t < plans[e].tests.size(); ++t) {
        tasks.push_back({c, e, t, slot++});
      }
    }
    result.cells[c].records.resize(slot);
  }
  parallel_for(tasks.size(), kJobs, [&](std::size_t i) {
    const Task& task = tasks[i];
    result.cells[task.cell].records[task.slot] =
        run_test(lap, plans[task.env], task.test, cells[task.cell],
                 session.boards(), MatrixRequest{}.max_instructions);
  });

  const ObjectCacheStats cache_after = session.cache().stats();
  for (RegressionReport& report : result.cells) {
    report.cache.hits = cache_after.hits - cache_before.hits;
    report.cache.misses = cache_after.misses - cache_before.misses;
    report.cache.evictions = cache_after.evictions - cache_before.evictions;
    report.cache.bytes = cache_after.bytes;
    report.cache.persistent_hits =
        cache_after.persistent_hits - cache_before.persistent_hits;
    report.cache.persistent_stores =
        cache_after.persistent_stores - cache_before.persistent_stores;
    report.cache.persistent_evictions =
        cache_after.persistent_evictions - cache_before.persistent_evictions;
  }
  {
    Span span(lap.recorder, kRender, lap.root, lap.lap);
    out.report_bytes = to_json(result).size();
  }

  out.cache = result.cells.empty() ? ObjectCacheStats{} : result.cells[0].cache;
  const BoardPoolStats boards_after = session.boards().stats();
  out.boards.constructed = boards_after.constructed - boards_before.constructed;
  out.boards.reused = boards_after.reused - boards_before.reused;
  for (const RegressionReport& report : result.cells) {
    CellOutcome cell;
    cell.derivative = report.derivative;
    cell.platform = std::string(sim::to_string(report.platform));
    cell.passed = report.passed();
    cell.total = report.records.size();
    cell.digest = support::hash_to_string(report.outcome_digest());
    cell.instructions = report.total_instructions();
    cell.cache_hits = report.cache.hits;
    cell.cache_misses = report.cache.misses;
    out.cells.push_back(std::move(cell));
  }
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::optional<Options> parse_options(int argc, char** argv) {
  std::map<std::string, std::string> values;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      values[arg.substr(2)] = argv[++i];
    } else {
      std::cerr << "advm_replay: unexpected argument '" << arg << "'\n";
      return std::nullopt;
    }
  }
  for (const char* key : {"tree", "derivatives", "laps", "seconds"}) {
    if (!values.count(key)) {
      std::cerr << "advm_replay: missing --" << key << "\n";
      return std::nullopt;
    }
  }
  options.tree = values["tree"];
  options.derivatives = split_list(values["derivatives"]);
  options.laps = std::strtoul(values["laps"].c_str(), nullptr, 10);
  options.seconds = std::strtod(values["seconds"].c_str(), nullptr);
  options.port_tree = values["port-tree"];
  options.port_targets = split_list(values["port-targets"]);
  if (options.port_tree.empty() != options.port_targets.empty() ||
      (!options.port_targets.empty() &&
       options.port_targets.size() < options.laps)) {
    std::cerr << "advm_replay: --port-tree needs --port-targets, one target "
                 "per lap\n";
    return std::nullopt;
  }
  return options;
}

/// The cube a lap runs: derivative-major, like the matrix verb plans it.
/// Empty when a name does not resolve.
std::vector<MatrixCell> cells_for(const std::vector<std::string>& derivatives) {
  std::vector<MatrixCell> cells;
  for (const std::string& derivative : derivatives) {
    for (const std::string& platform : split_list(kPlatforms)) {
      const soc::DerivativeSpec* spec = soc::find_derivative(derivative);
      const auto kind = sim::platform_from_name(platform);
      if (spec == nullptr || !kind) return {};
      cells.push_back({spec, *kind});
    }
  }
  return cells;
}

void print_document(const Options& options, const Recorder& recorder,
                    const std::vector<LapResult>& laps,
                    const std::vector<std::unique_ptr<LapCounts>>& counts) {
  std::ostringstream os;
  os << "{\"trace\":" << (options.trace ? "true" : "false") << ",\"laps\":[";
  for (std::size_t i = 0; i < laps.size(); ++i) {
    const LapResult& lap = laps[i];
    const LapCounts& c = *counts[i];
    if (i != 0) os << ",";
    os << "{\"lap\":" << i << ",\"wall_ns\":" << lap.wall_ns
       << ",\"cells\":[";
    for (std::size_t k = 0; k < lap.cells.size(); ++k) {
      const CellOutcome& cell = lap.cells[k];
      if (k != 0) os << ",";
      os << "{\"derivative\":\"" << cell.derivative << "\",\"platform\":\""
         << cell.platform << "\",\"passed\":" << cell.passed
         << ",\"total\":" << cell.total << ",\"digest\":\"" << cell.digest
         << "\",\"instructions\":" << cell.instructions
         << ",\"cache_hits\":" << cell.cache_hits
         << ",\"cache_misses\":" << cell.cache_misses << "}";
    }
    os << "],\"counts\":{\"assembled_lines\":" << c.assembled_lines
       << ",\"links\":" << c.links
       << ",\"instructions\":" << c.instructions
       << ",\"capped_tests\":" << c.capped_tests
       << ",\"capped_instructions\":" << c.capped_instructions
       << ",\"cache_hits\":" << lap.cache.hits
       << ",\"cache_misses\":" << lap.cache.misses
       << ",\"boards_constructed\":" << lap.boards.constructed
       << ",\"boards_reused\":" << lap.boards.reused
       << ",\"report_bytes\":" << lap.report_bytes << "}}";
  }
  os << "],\"spans\":[";
  bool first = true;
  for (const SpanRecord& span : recorder.spans()) {
    if (!first) os << ",";
    first = false;
    os << "[\"" << span.name << "\"," << span.start_ns << "," << span.end_ns
       << "," << span.parent << "," << span.lap << "," << span.thread << "]";
  }
  os << "]}\n";
  std::cout << os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse_options(argc, argv);
  if (!parsed) return 2;
  const Options& options = *parsed;

  const std::vector<MatrixCell> cells = cells_for(options.derivatives);
  if (cells.empty()) {
    std::cerr << "advm_replay: unknown derivative or platform\n";
    return 2;
  }
  Recorder recorder(options.trace);
  std::vector<LapResult> laps;
  std::vector<std::unique_ptr<LapCounts>> counts;
  const Clock::time_point start = Clock::now();
  try {
    while (laps.size() < options.laps) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (laps.size() >= kMinLaps && elapsed >= options.seconds) break;
      const std::size_t index = laps.size();
      counts.push_back(std::make_unique<LapCounts>());
      LapResult result;
      {
        Span root(recorder, kLap, -1, index);
        LapContext lap{recorder, index, root.id(), *counts.back()};
        if (!options.port_targets.empty()) {
          replay_port(lap, options, options.port_targets[index]);
        }
        const Clock::time_point matrix_start = Clock::now();
        replay_matrix(lap, options.tree, cells, result);
        result.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - matrix_start)
                             .count();
      }
      laps.push_back(std::move(result));
    }
  } catch (const std::exception& e) {
    std::cerr << "advm_replay: " << e.what() << "\n";
    return 2;
  }
  print_document(options, recorder, laps, counts);
  return 0;
}
