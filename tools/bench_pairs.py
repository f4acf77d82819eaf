#!/usr/bin/env python3
"""Compares a change with its parent commit under BENCHMARK.json.

usage: python3 tools/bench_pairs.py PARENT_DIR [WORKLOAD ...]

PARENT_DIR is a checkout of the parent commit (for example from
`git worktree add`); the change is the checkout that holds this script.
For each workload (all that BENCHMARK.json lists, unless some are named)
the script runs BENCHMARK.json's command with `--trace 0` for its
`run_seconds`, in both checkouts, as PAIRS pairs: both runs of a pair
share one seed, and the side that runs first alternates from pair to
pair, so drift in the host's load falls on both sides alike. Each
checkout builds and runs its own code.

It prints every run as it ends, then per (workload, end-to-end metric)
both medians, the parent's quartiles and the pairs the change won (a tie
counts for neither side). A metric whose parent quartiles lie further
apart than its bound is marked unresolved: its runs spread too widely to
tell a regression of that size.

Exit status: 1 when any end-to-end metric's change median is worse than
the parent median by more than that metric's bound, or when a workload's
share of failed laps rose; 2 when the two checkouts do not hold the same
benchmark (BENCHMARK.json and every file under its `paths`) or a run
reports nothing; 0 otherwise.

Stdlib only.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


class Refused(Exception):
    pass


# ------------------------------------------------------------ verdicts --

def quartiles(values):
    """(first, third) quartile, inclusive method: both lie within the
    sample range even for a handful of runs."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def is_better(a, b, better):
    """True when value `a` is strictly better than `b`."""
    return a < b if better == "lower" else a > b


def change_wins(parent, change, better):
    """Pairs whose change run beat the parent run; ties count for
    neither side."""
    return sum(1 for p, c in zip(parent, change) if is_better(c, p, better))


def regressed(parent_median, change_median, better, bound):
    """True when the change median is worse than the parent median by
    more than `bound`, a fraction of the parent median."""
    if better == "lower":
        return change_median > parent_median * (1 + bound)
    return change_median < parent_median * (1 - bound)


def unresolved(parent, bound):
    """True when the parent's quartiles lie further apart than `bound`
    of its median."""
    q1, q3 = quartiles(parent)
    return q3 - q1 > bound * abs(statistics.median(parent))


def failed_share(runs):
    """Failed laps over attempted laps, summed over runs."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(parent_runs, change_runs, end_to_end):
    """Verdict of one workload. Runs are the benchmark's result objects
    ({"attempted", "failed", "metrics"}), pair by pair. Returns (rows,
    problems): one row per end-to-end metric, and one line per
    regression."""
    rows, problems = [], []
    for spec in end_to_end:
        name, better, bound = spec["name"], spec["better"], spec["bound"]
        parent = [r["metrics"][name]["value"] for r in parent_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        worse = regressed(parent_median, change_median, better, bound)
        rows.append({"metric": name, "unit": spec["unit"], "bound": bound,
                     "parent_median": parent_median,
                     "parent_quartiles": quartiles(parent),
                     "change_median": change_median,
                     "change_wins": change_wins(parent, change, better),
                     "pairs": len(parent),
                     "unresolved": unresolved(parent, bound),
                     "regressed": worse})
        if worse:
            problems.append(
                f"{name} {parent_median:.4g} -> {change_median:.4g} "
                f"{spec['unit']} is worse by more than {bound:.0%}")
    parent_failed, change_failed = (failed_share(parent_runs),
                                    failed_share(change_runs))
    if change_failed > parent_failed:
        problems.append(f"failed-lap share rose: {parent_failed:.4g} -> "
                        f"{change_failed:.4g}")
    return rows, problems


# ---------------------------------------------------------- checkouts --

def benchmark_files(checkout, paths):
    """{relative path: bytes} of BENCHMARK.json and every file under the
    benchmark's paths, leaving out Python bytecode caches."""
    files = {"BENCHMARK.json": (checkout / "BENCHMARK.json").read_bytes()}
    for top in paths:
        for path in sorted((checkout / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(checkout))] = path.read_bytes()
    return files


def check_same_benchmark(parent, change):
    """Raises Refused unless both checkouts hold the same benchmark, and
    returns its parsed BENCHMARK.json."""
    if not (parent / "BENCHMARK.json").is_file():
        raise Refused(f"{parent} holds no BENCHMARK.json")
    benchmark = json.loads((change / "BENCHMARK.json").read_text())
    ours = benchmark_files(change, benchmark["paths"])
    theirs = benchmark_files(parent, benchmark["paths"])
    differ = sorted(p for p in ours.keys() | theirs.keys()
                    if ours.get(p) != theirs.get(p))
    if differ:
        raise Refused("the checkouts run different benchmarks; these "
                      "differ: " + ", ".join(differ))
    return benchmark


def run_once(checkout, benchmark, workload, seed):
    """One benchmark run; returns its last stdout line, parsed."""
    argv = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise Refused(f"{' '.join(argv)} in {checkout} exited "
                      f"{proc.returncode}")
    return json.loads(lines[-1])


def describe(result, end_to_end):
    values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                      for m in end_to_end)
    return f"{values} failed={result['failed']}/{result['attempted']}"


def run_pairs(parent, benchmark, workload):
    """PAIRS alternating pairs of one workload; returns (parent runs,
    change runs) in pair order."""
    sides = {"parent": (parent, []), "change": (ROOT, [])}
    for index in range(PAIRS):
        seed = index + 1
        order = ("parent", "change") if index % 2 == 0 else \
            ("change", "parent")
        for side in order:
            checkout, runs = sides[side]
            result = run_once(checkout, benchmark, workload, seed)
            runs.append(result)
            print(f"{workload} pair {index + 1}/{PAIRS} seed {seed} "
                  f"{side}: {describe(result, benchmark['end_to_end'])}",
                  flush=True)
    return sides["parent"][1], sides["change"][1]


def print_rows(workload, rows):
    for row in rows:
        q1, q3 = row["parent_quartiles"]
        notes = [note for note, flag in (("REGRESSED", row["regressed"]),
                                         ("unresolved", row["unresolved"]))
                 if flag]
        print(f"{workload} {row['metric']} ({row['unit']}, bound "
              f"{row['bound']:.0%}): parent median {row['parent_median']:.4g}"
              f" (quartiles {q1:.4g}-{q3:.4g}), change median "
              f"{row['change_median']:.4g}, change won {row['change_wins']}"
              f"/{row['pairs']} pairs {' '.join(notes)}".rstrip())


def main(argv):
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    try:
        benchmark = check_same_benchmark(parent, ROOT)
        known = [w["name"] for w in benchmark["workloads"]]
        workloads = argv[1:] or known
        unknown = [w for w in workloads if w not in known]
        if unknown:
            raise Refused("unknown workload " + ", ".join(unknown) +
                          "; BENCHMARK.json lists " + ", ".join(known))
        problems = []
        for workload in workloads:
            parent_runs, change_runs = run_pairs(parent, benchmark, workload)
            rows, found = compare(parent_runs, change_runs,
                                  benchmark["end_to_end"])
            print_rows(workload, rows)
            problems += [f"{workload}: {p}" for p in found]
    except Refused as error:
        print(f"bench-pairs: refused: {error}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"bench-pairs: FAIL {problem}")
    if problems:
        return 1
    print(f"bench-pairs: OK, no end-to-end metric worse than its bound on "
          f"{', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
