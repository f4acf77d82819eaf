// Structured reports — every Session result as stable, machine-readable
// JSON, alongside the existing human-readable renderings.
//
// The JSON surface is a contract: key order is fixed (insertion order as
// written here), digests are 16-digit lowercase hex, and every top-level
// document carries {"ok": bool, "verb": "<verb>"} so a consumer can
// dispatch without knowing which request produced it. Validation failures
// serialize as {"ok": false, "verb": ..., "error": {code, message}} — the
// same Status the typed API returns. tools/ci.sh parses a matrix document
// on every lap, and tests/golden/*.json pin the exact bytes for `run` and
// `matrix`.
//
// This is the machine half of the paper's reporting story (and what a
// multi-agent / CI consumer reads); `format_report` in regression.h and
// `format_matrix_rollup` below remain the human half.
#pragma once

#include <string>
#include <string_view>

#include "advm/session.h"

namespace advm::core {

/// JSON string escaping (quotes, backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

// Top-level documents, one per verb.
[[nodiscard]] std::string to_json(const BuildResult& result);
[[nodiscard]] std::string to_json(const RunResult& result);
[[nodiscard]] std::string to_json(const MatrixResult& result);
[[nodiscard]] std::string to_json(const PortResult& result);
[[nodiscard]] std::string to_json(const CheckResult& result);
[[nodiscard]] std::string to_json(const LintResult& result);
[[nodiscard]] std::string to_json(const ReleaseResult& result);
[[nodiscard]] std::string to_json(const RandomResult& result);

/// The five-key cache-counter object every report document embeds
/// ({"hits":...,"misses":...,"bytes":...,"evictions":...,
/// "persistent_hits":...}) — exposed so the serve daemon's stats document
/// renders its cumulative session counters through the identical
/// contract instead of a divergent hand-rolled copy.
[[nodiscard]] std::string cache_counters_to_json(const ObjectCacheStats& stats);

/// The {"ok":false,"verb":...,"error":{code,message}} document every verb
/// shares — exposed so the CLI can render pre-request failures (bad
/// --jobs, unknown flags) through the same contract.
[[nodiscard]] std::string error_to_json(std::string_view verb,
                                        const Status& status);

/// The cache-invariant roll-up of a matrix result as a JSON array — one
/// entry per cell with its identity, pass counts and outcome digest. This
/// is the byte-identical surface the --jobs determinism CI gate compares
/// across pool sizes and warm/cold caches (cache counters legitimately
/// differ between a cold and a warm lap, so the full cell documents
/// cannot be).
[[nodiscard]] std::string rollup_to_json(const MatrixResult& result);

/// The human-readable derivative × platform roll-up table (one row per
/// cell: passed, build failures, outcome digest).
[[nodiscard]] std::string format_matrix_rollup(const MatrixResult& result);

}  // namespace advm::core
