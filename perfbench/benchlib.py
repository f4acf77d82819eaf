"""Arithmetic and checks of the ADVM loop benchmark, kept free of I/O
(beyond reading lap.json) so perfbench/test_benchlib.py can pin them down.

- JOBS, PLATFORMS: every lap's --jobs and platform list, stated once in
  lap.json (the replay compiles them in from the same file).
- tail_percentile: the highest percentile with at least ten samples beyond;
  grouped_tail: its median over consecutive groups of exactly 50 laps, so
  the tail is p80 whatever the lap count.
- fail_ratio: laps that failed any check / laps attempted.
- union_ms / self_times: span self time = duration minus the part of it
  that child spans cover (children may overlap: two workers run them).
- Rotation: the seeded port-target rotation; never a no-op port.
- LapOracle: the per-lap correctness checks (pinned exit code and pass
  counts, same-binary digests across platforms, digests stable across laps)
  and replay parity (digest, instructions, cache hits and misses per cell).
"""

import json
import math
import random
import statistics
from pathlib import Path

_LAP = json.loads((Path(__file__).parent / "lap.json").read_text())
JOBS = _LAP["jobs"]
PLATFORMS = tuple(_LAP["platforms"])
DERIVATIVES = ("SC88-A", "SC88-B", "SC88-C", "SC88-D")
PARITY_FIELDS = ("digest", "instructions", "cache_hits", "cache_misses")
TAIL_BEYOND = 10
TAIL_GROUP = 50


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """Highest whole percentile p whose nearest-rank value has at least
    `beyond` samples strictly above it. Returns (p, value, count above).
    Raises ValueError when no percentile qualifies (too few samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        value = ordered[max(1, math.ceil(p * n / 100)) - 1]
        above = sum(1 for s in ordered if s > value)
        if above >= beyond:
            return p, value, above
    raise ValueError(f"{n} samples leave no percentile with {beyond} beyond")


def grouped_tail(samples, group=TAIL_GROUP, beyond=TAIL_BEYOND):
    """Tail of a run's laps: split them, in order, into n // group groups
    of exactly `group` laps (the partial remainder is dropped) and take
    each group's tail_percentile, which is then the same percentile for
    every group and every run. Returns (percentile, median value, group
    count). A burst of slow laps moves one group's tail, not the run's.
    Raises ValueError with fewer than `group` samples."""
    count = len(samples) // group
    if count == 0:
        raise ValueError(f"{len(samples)} samples fill no group of {group}")
    tails = [tail_percentile(samples[i * group:(i + 1) * group], beyond)
             for i in range(count)]
    return tails[0][0], statistics.median([t[1] for t in tails]), count


def fail_ratio(lap_ok):
    """(attempted, failed, failed / attempted) over per-lap pass flags."""
    attempted = len(lap_ok)
    if attempted == 0:
        raise ValueError("no laps attempted")
    failed = sum(1 for ok in lap_ok if not ok)
    return attempted, failed, failed / attempted


def union_ms(intervals, lo=None, hi=None):
    """Length of the union of (start, end) intervals, optionally clipped to
    [lo, hi]. Units are whatever the intervals use."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span. `spans` is a list of (start, end, parent)
    with parent an index into the same list or -1. A span's self time is
    its duration minus the union of its direct children's intervals."""
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    result = []
    for i, (start, end, _) in enumerate(spans):
        covered = union_ms([(spans[c][0], spans[c][1]) for c in children[i]],
                           start, end)
        result.append((end - start) - covered)
    return result


class Rotation:
    """Seeded sequence of port targets. Each target differs from the
    derivative the tree currently has, so every port does real work."""

    def __init__(self, seed, current, derivatives=DERIVATIVES):
        if current not in derivatives or len(derivatives) < 2:
            raise ValueError("rotation needs the current target among >= 2")
        self._rng = random.Random(seed)
        self._derivatives = tuple(derivatives)
        self.current = current

    def next(self):
        choices = [d for d in self._derivatives if d != self.current]
        self.current = self._rng.choice(choices)
        return self.current


class LapOracle:
    """Correctness checks of one workload's laps.

    `pins` maps derivative -> (passed, total) per platform cell (None as a
    key pins every derivative alike); `exit_code` is the matrix verb's
    pinned exit status. `check` returns the list of failed checks for one
    lap's roll-up (empty when the lap is correct)."""

    def __init__(self, pins, exit_code):
        self.pins = pins
        self.exit_code = exit_code
        self.first = {}  # (derivative, platform) -> the cell as first seen

    def pinned(self, derivative):
        return self.pins.get(derivative, self.pins.get(None))

    def check(self, exit_code, cells, derivatives):
        """`cells`: dicts with derivative, platform, passed, total, digest.
        `derivatives`: the derivatives the lap asked for."""
        failures = []
        if exit_code is not None and exit_code != self.exit_code:
            failures.append(f"exit {exit_code} != pinned {self.exit_code}")
        expected = {(d, p) for d in derivatives for p in PLATFORMS}
        seen = {(c["derivative"], c["platform"]) for c in cells}
        if seen != expected or len(cells) != len(expected):
            failures.append(f"cells {sorted(seen)} != {sorted(expected)}")
        by_derivative = {}
        for cell in cells:
            key = (cell["derivative"], cell["platform"])
            pin = self.pinned(cell["derivative"])
            if pin is None or (cell["passed"], cell["total"]) != tuple(pin):
                failures.append(f"{key}: {cell['passed']}/{cell['total']} "
                                f"!= pinned {pin}")
            by_derivative.setdefault(cell["derivative"], set()).add(
                cell["digest"])
            first = self.first.setdefault(key, cell)["digest"]
            if first != cell["digest"]:
                failures.append(f"{key}: digest {cell['digest']} != "
                                f"earlier lap {first}")
        for derivative, digests in by_derivative.items():
            if len(digests) != 1:
                failures.append(f"{derivative}: platforms disagree "
                                f"{sorted(digests)}")
        return failures

    def parity(self, cells):
        """Replay parity: every replayed cell reproduces what the CLI laps
        recorded for it: the outcome digest, and the work behind it
        (instructions simulated, object-cache hits and misses), so a replay
        that plans, assembles or runs differently is caught even when the
        outcomes agree. Returns the list of mismatches."""
        failures = []
        for cell in cells:
            key = (cell["derivative"], cell["platform"])
            cli = self.first.get(key, {})
            for field in PARITY_FIELDS:
                if cli.get(field) != cell[field]:
                    failures.append(f"replay {key} {field}: {cell[field]} "
                                    f"!= CLI {cli.get(field)}")
        return failures


def median(values):
    return statistics.median(values) if values else 0.0
