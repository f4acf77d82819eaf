#!/usr/bin/env bash
# CI gate for the ADVM tree: tier-1 plus the lanes that need a build or a
# timing of their own.
#
#   1. tier-1: the exact ROADMAP verify command (configure, build, ctest).
#      It is the one behaviour gate: the paper's tables against their
#      goldens, the examples, the CLI and serve end-to-end suites, and the
#      matrix contract (e10 and 200-test roll-up goldens, documents
#      byte-identical at every --jobs).
#   2. sim-core lap: bench_sim_core's own exit code (arm identity, the
#      stuck-poll count and the >= 3x decoded speedup, a timing tier-1
#      does not take).
#   3. hygiene: a -Werror configure preset must compile warning-clean.
#   4. sanitizers (ASan+UBSan over tier-1, TSan over the threaded suites)
#      and clang-tidy, each skippable for quick gates.
#   5. clean tree: the run rewrites no tracked or unignored file.
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

echo "==> sim-core lap (decoded-cache speedup, stuck-loop count)"
# bench_sim_core exits non-zero unless the decoded arm is bit-identical to
# the plain interpreter on all five kernels, each stops the way it declares,
# the stuck UART poll is fast-forwarded through more than 1.9M of its 2M
# instructions (and no other kernel at all), AND the decoded arm holds a
# >= 3x instr/s advantage on the compute kernel.
cmake --build build -t bench_sim_core -j "$(nproc)"
./build/bench/bench_sim_core > build/bench_sim_core.log
tail -2 build/bench_sim_core.log

echo "==> -Werror hygiene build"
cmake --preset werror
cmake --build build-werror -j "$(nproc)"

if [[ "${ADVM_CI_SKIP_SAN:-0}" != "1" ]]; then
  echo "==> ASan+UBSan lane (tier-1 ctest, instrumented end to end)"
  # The e2e suites spawn the real CLI, so the whole tree — libraries, CLI,
  # daemon, tests — runs instrumented. halt_on_error keeps UBSan fatal.
  cmake --preset asan
  cmake --build build-asan -j "$(nproc)"
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
  cmake --build build-tsan -j "$(nproc)" -t serve_test \
    -t regression_parallel_test -t objcache_test -t asm_identity_test
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
