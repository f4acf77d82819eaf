#!/usr/bin/env python3
"""ADVM loop benchmark: times `advm` CLI laps end to end and, with
--trace 1, replays the same laps in-process to attribute time to layers.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1

Run from the repository root. The first run builds the `advm` CLI and the
replay (perfbench/replay.cpp) in .bench_build/; trees, result records
and Chrome traces go under .bench_out/. The last stdout line is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Workloads (trees from `advm init`, SC88-A corpus; one child at a time,
every lap at lap.json's --jobs over its platforms):
  cube-hung    init --tests 2; cold matrix over SC88-A..D x golden-model,
               hdl-rtl. 80 executions, four SC88-C tests spin to the
               2,000,000-instruction cap: the simulator carries the lap.
  ported-wide  init --tests 40; cold matrix over SC88-A,B x both platforms.
               800 executions, ~71k instructions: assembler, linker,
               import, board pool and report render carry the lap.
With --trace 1 every traced replay lap first ports a second tree of the
same size (import, PortRequest, export) to the next target of a seeded
rotation that never repeats the current derivative, so the porting and
export layers are timed on both workloads. A timed port-then-rerun lap is
left out: `advm port` rewrites every file of the tree, and on a shared
4-core VM that write-back made ten such runs spread 21-40% around their
median. The seed drives the port rotation and the derivative order each
matrix lap is typed with.
"""

import argparse
import glob
import hashlib
import json
import os
import platform as host_platform
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib
from benchlib import DERIVATIVES, JOBS, PLATFORMS

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORK = OUT / "work"

SETUPS = 7           # set-ups per timed run, spread through it; setup_s is
                     # their median
MAX_REPLAY_LAPS = 1000
MAX_TRACED_LAPS = 40
CHILD_TIMEOUT_S = 60

WORKLOADS = {
    "cube-hung": {
        "tests": 2, "derivatives": DERIVATIVES, "exit": 1,
        "pins": {"SC88-A": (10, 10), "SC88-B": (10, 10),
                 "SC88-C": (7, 10), "SC88-D": (0, 10)},
    },
    "ported-wide": {
        "tests": 40, "derivatives": ("SC88-A", "SC88-B"), "exit": 1,
        "pins": {"SC88-A": (200, 200), "SC88-B": (188, 200)},
    },
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build --

def build():
    """Configures (once) and builds the CLI and the replay. Returns their
    paths. Raises BenchError with the build log's tail on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1)), "-t", "advm_cli",
                  "advm_replay"])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    advm = BUILD / "advm" / "tools" / "advm"
    replay = BUILD / "advm_replay"
    for binary in (advm, replay):
        if not binary.exists():
            raise BenchError(f"build produced no {binary}")
    return advm, replay


def fingerprint():
    """Host and build identity for like-host comparison. Holds nothing
    that names a workload."""
    compiler_id = compiler_version = "unknown"
    for path in glob.glob(str(BUILD / "CMakeFiles" / "*" /
                              "CMakeCXXCompiler.cmake")):
        for line in Path(path).read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_ID "):
                compiler_id = line.split('"')[1]
            elif line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                compiler_version = line.split('"')[1]
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    host = {
        "nproc": os.cpu_count(),
        "machine": host_platform.machine(),
        "compiler": compiler_id,
        "compiler_version": compiler_version,
        "build_type": build_type,
    }
    host["key"] = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()).hexdigest()[:16]
    commit = "unknown"  # not a git work tree of its own (e.g. an export)
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return host, commit


# ---------------------------------------------------------- CLI children --

def run_child(argv, err_path):
    """Runs one child, reading its stdout through a pipe (no file write
    inside a timed lap). Returns (exit code, stdout bytes, wall seconds,
    wait4 rusage); the wall clock spans spawn to reap."""
    read_end, write_end = os.pipe()
    actions = [
        (os.POSIX_SPAWN_DUP2, write_end, 1),
        (os.POSIX_SPAWN_CLOSE, read_end),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(write_end)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill,
                               (pid, signal.SIGKILL))
    watchdog.start()
    chunks = []
    try:
        with os.fdopen(read_end, "rb", buffering=0) as stream:
            while chunk := stream.read(1 << 20):
                chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise BenchError(f"{argv[1]} killed by signal {-code}: "
                         f"{Path(err_path).read_text(errors='replace')}")
    return code, b"".join(chunks), wall, usage


def peak_rss_mb(usage):
    return usage.ru_maxrss / 1024.0


class Cli:
    """The `advm` verbs a lap types, each checked and timed."""

    def __init__(self, advm, work):
        self.advm = str(advm)
        self.err = work / "child.err"

    def init(self, tree, tests):
        """Returns the CPU seconds (user + system) `advm init` took. Its
        wall time is mostly waiting on file write-back, which on a shared
        disk drifted twice as much as its CPU time."""
        code, _, _, usage = run_child(
            [self.advm, "init", str(tree), "--tests", str(tests)], self.err)
        if code != 0:
            raise BenchError(f"advm init exited {code}")
        return usage.ru_utime + usage.ru_stime

    def matrix(self, tree, derivatives):
        code, out, wall, usage = run_child(
            [self.advm, "matrix", str(tree), "--derivatives",
             ",".join(derivatives), "--platforms", ",".join(PLATFORMS),
             "--jobs", str(JOBS), "--format", "json"], self.err)
        try:
            cells = [{"derivative": c["derivative"],
                      "platform": c["platform"], "passed": c["passed"],
                      "total": c["total"], "digest": c["outcome_digest"],
                      "instructions": c["total_instructions"],
                      "cache_hits": c["cache"]["hits"],
                      "cache_misses": c["cache"]["misses"]}
                     for c in json.loads(out)["cells"]]
        except (ValueError, KeyError, TypeError):
            cells = []
        return code, wall, peak_rss_mb(usage), cells


# ------------------------------------------------------------- workloads --

class Workload:
    """Set-up and laps of one workload. A lap returns (ok, wall seconds,
    executions, peak RSS MB, failures)."""

    def __init__(self, name, seed, cli, work):
        self.work = work
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.cli = cli
        self.oracle = benchlib.LapOracle(self.spec["pins"], self.spec["exit"])
        self.order_rng = random.Random(seed)
        self.tree = None

    def setup(self, index):
        """`advm init` for tree `index`. Returns its CPU seconds. Trees
        are rewritten in place run after run, never deleted: on this kind
        of host, deleting files stalls file creation for seconds after,
        and `advm init` over an existing (even ported) tree yields the
        same tree as a fresh one."""
        self.tree = self.work / f"tree{index}"
        return self.cli.init(self.tree, self.spec["tests"])

    def covered(self):
        """True once CLI laps recorded every cell a replay lap runs."""
        return all((d, p) in self.oracle.first
                   for d in self.spec["derivatives"] for p in PLATFORMS)

    def derivatives_for_lap(self):
        order = list(self.spec["derivatives"])
        self.order_rng.shuffle(order)
        return order

    def lap(self):
        derivatives = self.derivatives_for_lap()
        code, wall, rss, cells = self.cli.matrix(self.tree, derivatives)
        failures = self.oracle.check(code, cells, derivatives)
        return (not failures, wall, sum(c["total"] for c in cells), rss,
                failures)

    def port_tree(self):
        """Initialises the tree the traced replay ports (at SC88-A, like
        every `advm init` tree) and returns (its path, seeded targets)."""
        tree = self.work / "port-tree"
        self.cli.init(tree, self.spec["tests"])
        rotation = benchlib.Rotation(self.seed, "SC88-A")
        return tree, [rotation.next() for _ in range(MAX_TRACED_LAPS)]


def run_cli_laps(workload, seconds, setups, min_laps):
    """Closed loop, one child at a time, for about `seconds` of laps (at
    least `min_laps`, and until every replayable cell has a digest), with
    `setups` set-ups spread evenly through it: set-up k starts window k and
    the window's laps run on its tree. Filesystem stalls on this kind of
    host come in bursts; spreading the set-ups keeps one burst from moving
    their median. Returns (laps, set-up seconds)."""
    laps, setup_times = [], []
    window_laps = -(-min_laps // setups)
    budget = seconds / setups
    for index in range(setups):
        setup_times.append(workload.setup(index))
        window = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(window) >= window_laps and elapsed >= budget and (
                    workload.covered() or elapsed >= 2 * budget + 5):
                break
            window.append(workload.lap())
        laps += window
    return laps, setup_times


def run_replay(replay, workload, seconds, laps, port=None):
    """Runs the replay binary and returns its parsed document. With
    `port` = (port tree, targets) the replay is traced and each lap first
    ports that tree to its target."""
    argv = [str(replay), "--tree", str(workload.tree), "--derivatives",
            ",".join(workload.derivatives_for_lap()), "--laps", str(laps),
            "--seconds", str(seconds)]
    if port:
        argv += ["--port-tree", str(port[0]), "--port-targets",
                 ",".join(port[1]), "--trace"]
    out_path = workload.work / "replay.json"
    with open(out_path, "w") as out:
        proc = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S + seconds)
    if proc.returncode != 0:
        raise BenchError(f"replay exited {proc.returncode}: {proc.stderr}")
    return json.loads(out_path.read_text())


# --------------------------------------------------------------- metrics --

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(laps, setup_times):
    walls = [lap[1] for lap in laps]
    percentile, tail, groups = benchlib.grouped_tail(walls)
    metrics = {
        "lap_p50_ms": metric(benchlib.median(walls) * 1e3, "ms"),
        "lap_tail_ms": metric(tail * 1e3, "ms"),
        "tests_per_s": metric(sum(lap[2] for lap in laps) / sum(walls),
                              "1/s"),
        "peak_rss_mb": metric(max(lap[3] for lap in laps), "MB"),
        "setup_s": metric(benchlib.median(setup_times), "s"),
    }
    detail = {"tail_percentile": percentile, "tail_groups": groups,
              "laps": len(laps)}
    return metrics, detail


# Layer span name -> its per-layer metric. None: layer time that counts as
# attributed but is not reported (cold laps never hit the object cache).
LAYER_SPANS = {
    "support.vfs.import": "support.vfs.import_ms",
    "support.vfs.export": "support.vfs.export_ms",
    "advm.regression.discover": "advm.regression.discover_ms",
    "advm.porting.port": "advm.porting.port_ms",
    "advm.objcache.hit": None,
    "asm.assembler.miss": "asm.assembler.miss_ms",
    "asm.linker.link": "asm.linker.link_ms",
    "advm.boardpool.acquire": "advm.boardpool.acquire_ms",
    "advm.boardpool.release": "advm.boardpool.release_ms",
    "soc.board.load": "soc.board.load_ms",
    "sim.machine.run": "sim.machine.run_ms",
    "advm.report.render": "advm.report.render_ms",
}


def layer_of(span_name):
    return ".".join(span_name.split(".")[:2])


def per_lap_layers(document):
    """Per traced lap: self milliseconds per layer span name, the union of
    layer spans, and the lap span's duration."""
    spans = document["spans"]
    selfs = benchlib.self_times([(s[1], s[2], s[3]) for s in spans])
    laps = [{"ms": {}, "layer_intervals": [], "wall_ms": 0.0}
            for _ in document["laps"]]
    for span, self_ns in zip(spans, selfs):
        name, start, end, _, lap_index, _ = span
        lap = laps[lap_index]
        if name == "lap":
            lap["wall_ms"] = (end - start) / 1e6
        elif name in LAYER_SPANS:
            lap["ms"][name] = lap["ms"].get(name, 0.0) + self_ns / 1e6
            lap["layer_intervals"].append((start, end))
    for lap in laps:
        lap["covered_ms"] = benchlib.union_ms(lap.pop("layer_intervals")) / 1e6
    return laps


def per_layer(traced, untraced, cli_walls, lap_ok):
    """Per-layer metrics: medians over traced laps, plus the tracing and
    CLI overheads against the untraced replay."""
    layers = per_lap_layers(traced)
    per_lap = {}

    def add(name, value):
        per_lap.setdefault(name, []).append(value)

    for lap, record in zip(layers, traced["laps"]):
        counts = record["counts"]
        ms = lap["ms"]
        for span_name, metric_name in LAYER_SPANS.items():
            if metric_name:
                add(metric_name, ms.get(span_name, 0.0))
        run_s = ms.get("sim.machine.run", 0.0) / 1e3
        miss_s = ms.get("asm.assembler.miss", 0.0) / 1e3
        link_s = ms.get("asm.linker.link", 0.0) / 1e3
        instructions = counts["instructions"]
        add("sim.machine.instructions", instructions)
        add("sim.machine.minstr_per_s",
            instructions / run_s / 1e6 if run_s else 0.0)
        add("sim.machine.capped_tests", counts["capped_tests"])
        add("sim.machine.capped_instr_share",
            counts["capped_instructions"] / instructions
            if instructions else 0.0)
        add("asm.assembler.lines_per_s",
            counts["assembled_lines"] / miss_s if miss_s else 0.0)
        add("asm.linker.links_per_s",
            counts["links"] / link_s if link_s else 0.0)
        add("advm.objcache.lookups",
            counts["cache_hits"] + counts["cache_misses"])
        leases = counts["boards_constructed"] + counts["boards_reused"]
        add("advm.boardpool.reuse_ratio",
            counts["boards_reused"] / leases if leases else 0.0)
        add("advm.report.bytes", counts["report_bytes"])
        add("trace.unattributed_ms", lap["wall_ms"] - lap["covered_ms"])

    units = {"sim.machine.instructions": "count",
             "sim.machine.minstr_per_s": "Minstr/s",
             "sim.machine.capped_tests": "count",
             "sim.machine.capped_instr_share": "ratio",
             "asm.assembler.lines_per_s": "lines/s",
             "asm.linker.links_per_s": "1/s",
             "advm.objcache.lookups": "count",
             "advm.boardpool.reuse_ratio": "ratio",
             "advm.report.bytes": "bytes"}
    metrics = {name: metric(benchlib.median(values), units.get(name, "ms"))
               for name, values in per_lap.items()}
    traced_wall = benchlib.median([lap["wall_ns"] / 1e6
                                   for lap in traced["laps"]])
    untraced_wall = benchlib.median([lap["wall_ns"] / 1e6
                                     for lap in untraced["laps"]])
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall,
                                             "ratio")
    metrics["cli.overhead_ms"] = metric(
        benchlib.median(cli_walls) * 1e3 - untraced_wall, "ms")
    metrics["lap_fail_ratio"] = metric(benchlib.fail_ratio(lap_ok)[2],
                                       "ratio")
    return metrics


def write_chrome_trace(document, path):
    """The slowest and the median traced lap as Chrome trace-event JSON
    ("X" complete events, microseconds), loadable by any trace viewer."""
    by_wall = sorted(range(len(document["laps"])),
                     key=lambda i: document["laps"][i]["wall_ns"])
    keep = {by_wall[-1], by_wall[len(by_wall) // 2]}
    events = []
    for index, (name, start, end, parent, lap, thread) in enumerate(
            document["spans"]):
        if lap not in keep:
            continue
        events.append({"name": name, "cat": layer_of(name), "ph": "X",
                       "ts": start / 1e3, "dur": (end - start) / 1e3,
                       "pid": 1, "tid": thread,
                       "args": {"lap": lap, "span": index,
                                "parent": parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


# ------------------------------------------------------------------ main --

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    advm, replay = build()
    host, commit = fingerprint()
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, Cli(advm, work), work)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "commit": commit}
    if args.trace == 0:
        laps, setup_times = run_cli_laps(workload, args.seconds, SETUPS,
                                         benchlib.TAIL_GROUP)
        lap_ok = [lap[0] for lap in laps]
        metrics, detail = end_to_end(laps, setup_times)
        record.update(detail)
    else:
        phase = args.seconds / 3
        laps, _ = run_cli_laps(workload, phase, 1, 1)
        lap_ok = [lap[0] for lap in laps]
        untraced = run_replay(replay, workload, phase, MAX_REPLAY_LAPS)
        traced = run_replay(replay, workload, phase, MAX_TRACED_LAPS,
                            port=workload.port_tree())
        parity_failures = []
        for document in (untraced, traced):
            for lap in document["laps"]:
                failures = workload.oracle.parity(lap["cells"])
                derivatives = sorted({c["derivative"] for c in lap["cells"]})
                failures += workload.oracle.check(None, lap["cells"],
                                                  derivatives)
                lap_ok.append(not failures)
                parity_failures += failures
        metrics = per_layer(traced, untraced, [lap[1] for lap in laps],
                            lap_ok)
        write_chrome_trace(traced, OUT / "traces" /
                           f"{args.workload}.trace.json")
        record.update({"laps": len(laps),
                       "replay_laps": len(untraced["laps"]),
                       "traced_laps": len(traced["laps"]),
                       "parity_failures": parity_failures[:5]})
    attempted, failed, _ = benchlib.fail_ratio(lap_ok)
    failures = [f for lap in laps for f in lap[4]]
    record.update({"failures": failures[:5], "metrics": metrics})
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
