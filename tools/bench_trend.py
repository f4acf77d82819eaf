#!/usr/bin/env python3
"""CI trend gate over the BENCH_*.json perf records.

Every bench binary appends JSONL records ({bench, table, headers, rows}) to
BENCH_<name>.json. This script extracts every measured throughput column
it knows about (assembler lines/s, regression tests/s, simulator instr/s;
"modeled" rates are model constants and never gated), compares
the values against the previous invocation's record in a history file, and
fails (exit 1) when any metric dropped by more than --max-drop percent.
The current values are appended to the history either way, so the next CI
lap diffs against this one — consecutive records, as the ROADMAP asks.

Stdlib only; no third-party dependencies.

Usage:
    bench_trend.py <bench-json-dir> [--history FILE] [--max-drop PCT]
"""

import argparse
import json
import pathlib
import sys

# Substrings that mark a table column as a throughput metric (higher is
# better). Matched against the header text.
THROUGHPUT_COLUMNS = ("lines/s", "tests/s", "instr/s")

# A "modeled" rate is a constant of the platform model (the e4 table's
# "modeled instr/s" column prints kCaps from src/sim/platform.cpp), not a
# measurement; gating it would compare a number with itself.
MODELED = "modeled"


def is_throughput(name: str) -> bool:
    return (any(t in name for t in THROUGHPUT_COLUMNS)
            and MODELED not in name)


def extract_metrics(json_dir: pathlib.Path) -> dict:
    """Flattens all BENCH_*.json records into {metric-id: value}.

    A metric id is "<bench>/<table>/<row-label>/<column>", so a bench can
    rename tables or rows without silently comparing unrelated numbers.
    """
    metrics = {}
    for path in sorted(json_dir.glob("BENCH_*.json")):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                print(f"bench-trend: skipping malformed line in {path.name}")
                continue
            headers = record.get("headers", [])
            bench = record.get("bench", "?")
            table = record.get("table", "?")

            def record_metric(row_label, column, value):
                try:
                    metrics["/".join((bench, table, row_label, column))] = \
                        float(value)
                except ValueError:
                    pass  # non-numeric cell (a label or "n/a")

            # Form 1: a throughput-named column ("tests/s") with one value
            # per row.
            for col, header in enumerate(headers):
                if not is_throughput(header):
                    continue
                for row in record.get("rows", []):
                    if row and col < len(row):
                        record_metric(row[0], header, row[col])
            # Form 2: a (metric, value) table where the throughput name is
            # the row label ("assembler lines/s", "1.1e+06").
            for row in record.get("rows", []):
                if len(row) >= 2 and is_throughput(row[0]):
                    record_metric(row[0], "value", row[-1])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_dir", type=pathlib.Path,
                        help="directory holding BENCH_*.json")
    parser.add_argument("--history", type=pathlib.Path, default=None,
                        help="JSONL history file (default: "
                             "<json_dir>/bench-trend-history.jsonl)")
    parser.add_argument("--max-drop", type=float, default=15.0,
                        help="fail on a drop greater than this percent")
    args = parser.parse_args()

    history_path = args.history or args.json_dir / "bench-trend-history.jsonl"
    current = extract_metrics(args.json_dir)
    if not current:
        print(f"bench-trend: no throughput metrics under {args.json_dir}; "
              "nothing to gate")
        return 0

    previous = {}
    if history_path.exists():
        lines = [l for l in history_path.read_text().splitlines() if l.strip()]
        if lines:
            previous = json.loads(lines[-1]).get("metrics", {})
    if not previous:
        # Say so loudly: a missing baseline means the gate compares nothing
        # this lap, and a *persistently* empty history means the records are
        # being written somewhere transient (the bug this message caught).
        print(f"bench-trend: no baseline in {history_path}; "
              "recording first lap")

    regressions = []
    for key, value in sorted(current.items()):
        if key not in previous:
            continue
        base = previous[key]
        if base <= 0:
            continue
        drop = (base - value) / base * 100.0
        marker = ""
        if drop > args.max_drop:
            regressions.append((key, base, value, drop))
            marker = "  <-- REGRESSION"
        print(f"bench-trend: {key}: {base:.4g} -> {value:.4g} "
              f"({-drop:+.1f}%){marker}")

    if regressions:
        # Do NOT record a failing lap: the baseline stays at the last green
        # record, so retrying CI at the same slow revision fails again
        # instead of laundering the regression into the new baseline.
        print(f"bench-trend: FAIL — {len(regressions)} metric(s) dropped "
              f"more than {args.max_drop:.0f}%:")
        for key, base, value, drop in regressions:
            print(f"  {key}: {base:.4g} -> {value:.4g} (-{drop:.1f}%)")
        return 1

    # Green lap: record it as the baseline the next lap diffs against.
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as fh:
        fh.write(json.dumps({"metrics": current}) + "\n")

    compared = sum(1 for k in current if k in previous)
    print(f"bench-trend: OK — {len(current)} metric(s) recorded, "
          f"{compared} compared against previous record")
    return 0


if __name__ == "__main__":
    sys.exit(main())
