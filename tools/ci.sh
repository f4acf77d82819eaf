#!/usr/bin/env bash
# CI gate for the ADVM tree.
#
#   1. tier-1: the exact ROADMAP verify command (configure, build, ctest),
#      which also checks the paper's experiment tables against their
#      goldens and runs the examples.
#   2. CLI gates: the JSON report contract, lint, --jobs determinism and
#      the serve daemon's parity with local runs.
#   3. sim-core lap: bench_sim_core's own exit code, and e10 roll-up
#      identity across pool sizes.
#   4. hygiene: a -Werror configure preset must compile warning-clean.
#   5. sanitizers (ASan+UBSan over tier-1, TSan over the threaded suites)
#      and clang-tidy, each skippable for quick gates.
#
# Speed is not gated here: tools/bench_pairs.py compares a change with its
# parent under BENCHMARK.json's bounds.
#
# Run from anywhere: the script cds to the repo root first. It writes only
# under ignored paths, and fails if a run leaves `git status` changed.
set -euo pipefail
cd "$(dirname "$0")/.."
STATUS_AT_START=$(git status --porcelain 2> /dev/null || true)

echo "==> tier-1 verify"
cmake -B build -S . && cmake --build build -j && cd build && ctest --output-on-failure -j
cd ..

echo "==> JSON report contract (advm matrix --format json)"
rm -rf build/json-contract-env
./build/tools/advm init build/json-contract-env --tests 2 > /dev/null
./build/tools/advm matrix build/json-contract-env \
  --derivatives SC88-A,SC88-B --platforms golden-model \
  --format json > build/json-contract.json
python3 - build/json-contract.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True, doc
assert doc["verb"] == "matrix", doc["verb"]
assert doc["backend"] == "thread", doc["backend"]
assert doc["shards"] == 1, doc["shards"]
assert doc["all_passed"] is True, "matrix not green"
assert len(doc["cells"]) == 2, len(doc["cells"])
assert len(doc["rollup"]) == len(doc["cells"])
for cell in doc["cells"]:
    for key in ("derivative", "platform", "records", "passed", "total",
                "build_failures", "all_passed", "outcome_digest", "cache"):
        assert key in cell, "missing key " + key
    assert cell["total"] == len(cell["records"]) > 0
    assert len(cell["outcome_digest"]) == 16
    for key in ("hits", "misses", "bytes", "evictions", "persistent_hits"):
        assert key in cell["cache"], "missing cache key " + key
for entry in doc["rollup"]:
    for key in ("derivative", "platform", "passed", "total",
                "build_failures", "outcome_digest"):
        assert key in entry, "missing rollup key " + key
print("json contract ok: %d cells, %d records" %
      (len(doc["cells"]), sum(c["total"] for c in doc["cells"])))
PY

echo "==> lint gate (advm lint static analyzer + --lint pre-run gate)"
# The generated corpus must be lint-clean (the analyzer's zero-false-
# positive contract), a seeded defect must surface as a typed finding and
# trip the --lint gate, and the gated run on the clean tree must pass.
./build/tools/advm lint build/json-contract-env
./build/tools/advm run build/json-contract-env --lint > /dev/null
rm -rf build/lint-env
cp -r build/json-contract-env build/lint-env
printf '.INCLUDE Globals.inc\n_main:\n MOV d1, d3\n CALL Base_Report_Pass\n' \
  > build/lint-env/MEM_MODULE/TEST_MEMORY_000/test.asm
if ./build/tools/advm lint build/lint-env --format json > build/lint.json; then
  echo "lint exited 0 on a seeded defect" >&2
  exit 1
fi
if ./build/tools/advm run build/lint-env --lint > /dev/null; then
  echo "--lint gate let a dirty tree run" >&2
  exit 1
fi
python3 - build/lint.json <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["ok"] is True and doc["verb"] == "lint", doc
assert doc["clean"] is False and doc["count"] == 1, doc
assert doc["by_code"] == {"advm.lint-undef-reg": 1}, doc["by_code"]
f = doc["findings"][0]
for key in ("code", "environment", "test", "file", "address", "symbol",
            "detail"):
    assert key in f, "missing finding key " + key
assert f["environment"] == "MEM_MODULE" and f["symbol"] == "_main", f
print("lint gate ok: clean corpus clean, seeded defect caught as %s"
      % f["code"])
PY

echo "==> --jobs determinism gate (e10 cube: pool sizes and warm cache)"
# The e10 cube at --jobs 1 (filling a fresh --cache-dir), 4 and 0 (one
# worker per hardware thread), then a second lap on the same --cache-dir.
# Exit codes are informational here (un-ported derivatives legitimately
# fail their cells); the gate is that every lap fails *identically*:
# byte-identical roll-ups, and a warm lap served from the persistent cache.
rm -rf build/jobs-env build/jobs-cache
./build/tools/advm init build/jobs-env --tests 2 > /dev/null
E10_AXES="--derivatives SC88-A,SC88-B,SC88-C,SC88-D --platforms golden-model,hdl-rtl"
./build/tools/advm matrix build/jobs-env $E10_AXES --jobs 1 \
  --cache-dir build/jobs-cache --format json > build/jobs-1.json || true
for jobs in 4 0; do
  ./build/tools/advm matrix build/jobs-env $E10_AXES --jobs "$jobs" \
    --format json > "build/jobs-$jobs.json" || true
done
./build/tools/advm matrix build/jobs-env $E10_AXES --jobs 4 \
  --cache-dir build/jobs-cache --format json > build/jobs-warm.json || true
python3 - build/jobs-1.json build/jobs-4.json build/jobs-0.json \
  build/jobs-warm.json <<'PY'
import json, sys
serial, four, auto, warm = (json.load(open(p)) for p in sys.argv[1:5])
roll = lambda doc: json.dumps(doc["rollup"], sort_keys=True)
assert len(serial["rollup"]) == 8, len(serial["rollup"])
assert roll(serial) == roll(four), "--jobs 4 roll-up diverged from --jobs 1"
assert roll(serial) == roll(auto), "--jobs 0 roll-up diverged from --jobs 1"
assert roll(serial) == roll(warm), "warm-cache roll-up diverged"
hits = sum(c["cache"]["persistent_hits"] for c in warm["cells"])
assert hits > 0, "second lap on the cache dir had no persistent-cache hits"
print("jobs determinism ok: %d cells byte-identical at --jobs 1/4/0, "
      "%d persistent-cache hits on the warm lap" % (len(serial["rollup"]), hits))
PY
# The e10 tree over all six platforms at --jobs 1 and 4, no cache dir.
# Pooled boards run a different sequence of tests at each pool size, with
# plain RAM on five platforms and init-tracking RAM on hdl-gate, so a reset
# that left a dirty page behind would change what a later test reads: its
# verdict, state digest or instruction count. The whole document must be
# byte-identical.
SIX_AXES="--derivatives SC88-A,SC88-B,SC88-C,SC88-D"
SIX_AXES="$SIX_AXES --platforms golden-model,hdl-rtl,hdl-gate,accelerator,bondout,product"
for jobs in 1 4; do
  ./build/tools/advm matrix build/jobs-env $SIX_AXES --jobs "$jobs" \
    --format json > "build/jobs-six-$jobs.json" || true
done
cmp build/jobs-six-1.json build/jobs-six-4.json
echo "jobs determinism ok: e10 tree on all six platforms byte-identical" \
  "at --jobs 1/4"
# The 200-test tree (advm init --tests 40) over SC88-A,B x golden-model,
# hdl-rtl at --jobs 1 and 4: 800 executions whose workers contend for the
# include memo and share one linked image across every cell with one
# memory map. The whole document, cache counters included, must be
# byte-identical. A third lap types the tree as ./build/jobs-wide-env/:
# the import derives VFS paths lexically, so the spelling must not show.
rm -rf build/jobs-wide-env
./build/tools/advm init build/jobs-wide-env --tests 40 > /dev/null
WIDE_AXES="--derivatives SC88-A,SC88-B --platforms golden-model,hdl-rtl"
for jobs in 1 4; do
  ./build/tools/advm matrix build/jobs-wide-env $WIDE_AXES --jobs "$jobs" \
    --format json > "build/jobs-wide-$jobs.json" || true
done
./build/tools/advm matrix ./build/jobs-wide-env/ $WIDE_AXES --jobs 4 \
  --format json > build/jobs-wide-spelled.json || true
cmp build/jobs-wide-1.json build/jobs-wide-4.json
cmp build/jobs-wide-1.json build/jobs-wide-spelled.json
echo "jobs determinism ok: 200-test matrix byte-identical at --jobs 1/4" \
  "and under a second spelling of its path"

echo "==> serve daemon gate (warm resident session vs cold CLI)"
# One daemon owns a warm Session (thread pool + persistent cache); every
# lap below is a thin `--attach` client. The gate pins three things: (a)
# attached roll-ups are byte-identical to the local reference, (b) warm
# laps actually run warm — a restarted daemon starts from the persistent
# cache its predecessor wrote, and the laps after that are served from
# the resident in-memory cache — and (c) the daemon drains cleanly on
# --stop. Wall-clock for a cold CLI lap vs a warm attached lap is printed
# as the median of SERVE_PAIRS alternating cold/warm pairs, so host drift
# hits both sides alike and one lucky or unlucky lap cannot move it. No
# timing is asserted.
rm -rf build/serve-cache build/serve-cold-cache
rm -f build/serve.sock
start_daemon() {
  ./build/tools/advm serve --socket build/serve.sock "$@" \
    2>> build/serve-daemon.log &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    ./build/tools/advm serve --stats --socket build/serve.sock \
      > /dev/null 2>&1 && break
    sleep 0.1
  done
}
stop_daemon() {
  ./build/tools/advm serve --stop --socket build/serve.sock > /dev/null
  wait "$SERVE_PID"
  if [[ -e build/serve.sock ]]; then
    echo "daemon exited without unlinking its socket" >&2
    exit 1
  fi
}
: > build/serve-daemon.log
start_daemon --jobs 8 --cache-dir build/serve-cache
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
# Lap 1 fills the daemon's cache dir; a restarted daemon must then start
# from it (persistent hits), and later laps ride the resident session.
# Exit codes are informational, as in the --jobs gate: the e10 cube has
# legitimately failing cells.
./build/tools/advm matrix build/jobs-env $E10_AXES \
  --attach build/serve.sock --format json > build/serve-lap1.json || true
stop_daemon
start_daemon --jobs 8 --cache-dir build/serve-cache
./build/tools/advm matrix build/jobs-env $E10_AXES \
  --attach build/serve.sock --format json > build/serve-restart.json || true
# Alternating pairs. Cold: a standalone CLI lap pays session construction
# and an empty cache every time (fresh cache dir per lap). Warm: an
# attached lap on the resident session.
SERVE_PAIRS=7
COLD_NS=""
WARM_NS=""
for _ in $(seq 1 "$SERVE_PAIRS"); do
  rm -rf build/serve-cold-cache
  t0=$(date +%s%N)
  ./build/tools/advm matrix build/jobs-env $E10_AXES --jobs 8 \
    --cache-dir build/serve-cold-cache \
    --format json > build/serve-cold.json || true
  COLD_NS="$COLD_NS $(( $(date +%s%N) - t0 ))"
  t0=$(date +%s%N)
  ./build/tools/advm matrix build/jobs-env $E10_AXES \
    --attach build/serve.sock --format json > build/serve-lap2.json || true
  WARM_NS="$WARM_NS $(( $(date +%s%N) - t0 ))"
done
./build/tools/advm serve --stats --socket build/serve.sock \
  --format json > build/serve-stats.json
python3 - build/serve-lap1.json build/serve-restart.json \
  build/serve-lap2.json build/serve-cold.json build/jobs-1.json \
  build/serve-stats.json "$COLD_NS" "$WARM_NS" <<'PY'
import json, statistics, sys
lap1, restart, lap2, cold, ref, stats = \
    (json.load(open(p)) for p in sys.argv[1:7])
cold_ms = statistics.median(int(n) for n in sys.argv[7].split()) / 1e6
warm_ms = statistics.median(int(n) for n in sys.argv[8].split()) / 1e6
roll = lambda doc: json.dumps(doc["rollup"], sort_keys=True)
assert roll(lap1) == roll(ref), "attached lap-1 roll-up diverged"
assert roll(restart) == roll(ref), "restarted-daemon roll-up diverged"
assert roll(lap2) == roll(ref), "warm attached roll-up diverged"
assert roll(cold) == roll(ref), "cold CLI roll-up diverged"
hits = sum(c["cache"]["persistent_hits"] for c in restart["cells"])
assert hits > 0, "restarted daemon had no persistent-cache hits"
misses = sum(c["cache"]["misses"] for c in lap2["cells"])
assert misses == 0, "warm attached lap missed the resident cache"
assert stats["ok"] is True and stats["verb"] == "serve", stats
assert stats["clients_served"] >= 4, stats["clients_served"]
assert stats["requests"].get("matrix", 0) >= 4, stats["requests"]
assert stats["trees"] >= 1, stats["trees"]
assert stats["clients_lost"] == 0, stats["clients_lost"]
print("serve daemon ok: roll-ups byte-identical, restarted daemon %d "
      "persistent hits, warm lap 0 misses, median of %d pairs: cold %.1fms "
      "vs warm %.1fms" % (hits, len(sys.argv[7].split()), cold_ms, warm_ms))
PY
stop_daemon
# Attach parity on a seeded-broken copy of the tree: build failures print
# the VFS path of the offending file, so an attached verb must see the
# tree under the same root as the local CLI — in the JSON documents and in
# the human text alike. Each format gets a fresh daemon without a cache
# dir, as cold as the local process, and `run` goes first: its output
# carries cache counters; lint's and check's do not.
rm -rf build/serve-broken-env
cp -r build/jobs-env build/serve-broken-env
echo " BOGUS d0, d0" >> \
  build/serve-broken-env/UART_MODULE/Abstraction_Layer/base_functions.asm
for format in json text; do
  FORMAT_FLAG=""
  [[ "$format" == json ]] && FORMAT_FLAG="--format json"
  start_daemon
  for verb in run lint check; do
    ./build/tools/advm "$verb" build/serve-broken-env $FORMAT_FLAG \
      > "build/serve-broken-local-$verb.$format" || true
    ./build/tools/advm "$verb" build/serve-broken-env $FORMAT_FLAG \
      --attach build/serve.sock > "build/serve-broken-attached-$verb.$format" \
      || true
    cmp "build/serve-broken-local-$verb.$format" \
      "build/serve-broken-attached-$verb.$format"
  done
  stop_daemon
done
start_daemon
# Bad-flag parity: the daemon checks an attached --jobs exactly as a local
# run does, so a malformed value is the same typed error document with the
# same exit code.
LOCAL_EXIT=0
./build/tools/advm run build/serve-broken-env --jobs abc --format json \
  > build/serve-badflag-local.json || LOCAL_EXIT=$?
ATTACHED_EXIT=0
./build/tools/advm run build/serve-broken-env --jobs abc --format json \
  --attach build/serve.sock > build/serve-badflag-attached.json \
  || ATTACHED_EXIT=$?
cmp build/serve-badflag-local.json build/serve-badflag-attached.json
if [[ "$LOCAL_EXIT" != "$ATTACHED_EXIT" ]]; then
  echo "bad --jobs exits $LOCAL_EXIT locally but $ATTACHED_EXIT attached" >&2
  exit 1
fi
echo "serve broken-tree parity ok: run, lint, check (JSON and text) and a" \
  "bad --jobs byte-identical"
stop_daemon
trap - EXIT

echo "==> sim-core lap (decoded-cache speedup, stuck-loop count, e10 identity)"
# bench_sim_core exits non-zero unless the decoded arm is bit-identical to
# the plain interpreter on all five kernels, each stops the way it declares,
# the stuck UART poll is fast-forwarded through more than 1.9M of its 2M
# instructions (and no other kernel at all), AND the decoded arm holds a
# >= 3x instr/s advantage on the compute kernel. The roll-up re-check
# reuses the --jobs gate's artifacts: a sim-core change must be invisible
# in the e10 cube at every pool size.
cmake --build build -t bench_sim_core -j
./build/bench/bench_sim_core > build/bench_sim_core.log
tail -2 build/bench_sim_core.log
python3 - build/jobs-1.json build/jobs-0.json <<'PY'
import json, sys
serial, auto = (json.load(open(p)) for p in sys.argv[1:3])
assert json.dumps(serial["rollup"], sort_keys=True) == \
       json.dumps(auto["rollup"], sort_keys=True), \
    "e10 roll-up diverged between --jobs 1 and --jobs 0"
print("sim-core lap ok: e10 roll-up byte-identical across pool sizes")
PY

echo "==> -Werror hygiene build"
cmake --preset werror
cmake --build build-werror -j

if [[ "${ADVM_CI_SKIP_SAN:-0}" != "1" ]]; then
  echo "==> ASan+UBSan lane (tier-1 ctest, instrumented end to end)"
  # The e2e suites spawn the real CLI, so the whole tree — libraries, CLI,
  # daemon, tests — runs instrumented. halt_on_error keeps UBSan fatal.
  cmake --preset asan
  cmake --build build-asan -j
  (cd build-asan && \
   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
   ctest -L tier1 --output-on-failure -j)

  echo "==> TSan lane (concurrency suites: serve daemon, parallel regression, board pool, object cache, assembler)"
  # Scoped to the suites that actually exercise threads — the daemon's
  # session fanning each verb out over --jobs, parallel regression and the
  # board pool its workers lease from (regression_parallel_test), the
  # object cache's per-entry locking under same-key racers and concurrent
  # disk writers, four assemblers sharing one include memo and the
  # process-wide source-name table (asm_identity_test) — a full TSan ctest
  # lap would mostly re-run single-threaded code slower.
  cmake --preset tsan
  cmake --build build-tsan -j -t serve_test -t regression_parallel_test \
    -t objcache_test -t asm_identity_test
  for suite in serve_test regression_parallel_test objcache_test \
      asm_identity_test; do
    "./build-tsan/tests/${suite}"
  done
else
  echo "==> sanitizer lanes skipped (ADVM_CI_SKIP_SAN=1)"
fi

if [[ "${ADVM_CI_SKIP_TIDY:-0}" != "1" ]] && command -v clang-tidy > /dev/null
then
  echo "==> clang-tidy gate (src/, profile in .clang-tidy)"
  # compile_commands.json comes from the default configure; tidy findings
  # are errors (WarningsAsErrors in .clang-tidy), so a regression fails CI.
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  find src -name '*.cpp' -print0 | xargs -0 -P "$(nproc)" -n 8 \
    clang-tidy -p build --quiet
else
  echo "==> clang-tidy gate skipped (binary missing or ADVM_CI_SKIP_TIDY=1)"
fi

echo "==> clean tree (a CI run rewrites no tracked or unignored file)"
STATUS_AT_END=$(git status --porcelain 2> /dev/null || true)
if [[ "$STATUS_AT_END" != "$STATUS_AT_START" ]]; then
  echo "git status changed during the run:" >&2
  diff <(echo "$STATUS_AT_START") <(echo "$STATUS_AT_END") >&2 || true
  exit 1
fi

echo "==> CI green"
