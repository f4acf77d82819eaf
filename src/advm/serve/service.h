// serve::VerbRequest / execute_verb — the one request path of the CLI.
//
// Every CLI verb is the same data: the verb name, the disk directory its
// tree lives in, and the CLI's parsed flag map. execute_verb is the one
// place those flag names turn into a typed Session request — numeric
// values (--tests, --seed, --jobs) are checked strictly there — and it
// runs that request against a Session: import side effects, export side
// effects, text rendering, exit-code policy and all.
//
// Parity by construction: the local CLI and the daemon both hand the same
// flag map to execute_verb, so an attached `advm matrix` cannot drift from
// a local one — same code, same flags, a tree under the same VFS root,
// differing only in which process owns the Session. An attached --jobs or
// --cache-dir is checked exactly as a local one; the daemon then runs with
// its own values.
#pragma once

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "advm/session.h"

namespace advm::core::serve {

/// The CLI's parsed flags: name (without the leading dashes) → value; a
/// boolean flag maps to "1".
using Options = std::map<std::string, std::string>;

/// One CLI verb as data.
struct VerbRequest {
  std::string verb;  ///< init|run|matrix|port|check|lint|release|random
  std::string dir;   ///< disk path of the environment tree
  Options options;   ///< every flag on the command line
};

/// Whether execute_verb knows `verb`.
[[nodiscard]] bool is_verb(std::string_view verb);

/// The request frame payload, one line:
/// {"dir":"<dir>","options":{"<flag>":"<value>",...}}. The verb travels
/// only in the frame header.
[[nodiscard]] std::string request_payload(const VerbRequest& request);

/// Inverse of request_payload for a frame whose header names `verb`.
/// nullopt (diagnostic in *error when non-null) on malformed JSON, a
/// missing dir or options object, a non-string option, or an unknown verb.
[[nodiscard]] std::optional<VerbRequest> parse_request_payload(
    std::string_view verb, std::string_view payload,
    std::string* error = nullptr);

/// Reads the numeric flag `key` strictly: digits only. strtoul would
/// silently accept "-1" (wrapping to the maximum — for --jobs, fanning out
/// the whole machine) and read "abc" as 0, so negative and non-numeric
/// values come back as a typed Status with `code`. An absent flag leaves
/// *out untouched. Range limits are the Session's job.
template <typename Count>
[[nodiscard]] Status parse_count(const Options& options, const char* key,
                                 const char* code, Count* out) {
  const auto it = options.find(key);
  if (it == options.end()) return {};
  const std::string& value = it->second;
  // 20 digits cannot fit in 64 bits: reject before strtoull saturates.
  if (value.empty() || value.size() > 19 ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return Status::error(code, std::string("invalid --") + key + " value '" +
                                   value +
                                   "' (expected a non-negative number)");
  }
  *out = static_cast<Count>(std::strtoull(value.c_str(), nullptr, 10));
  return {};
}

/// Fills the shared execution flags (--jobs, --cache-dir) into `config`
/// and validates it. Typed Status on a malformed or out-of-range value.
[[nodiscard]] Status session_config(const Options& options,
                                    SessionConfig* config);

/// The VFS root every verb's tree lives under, in the local CLI and in
/// the daemon alike. One root is what makes every path a verb prints —
/// build diagnostics included — the same attached as local.
inline constexpr const char* kVfsRoot = "/SYS";

/// What executing a verb produced: the CLI exit code, the --format json
/// document, and the human text rendering. Exactly one of json/text is
/// printed by the caller depending on --format; on exit code 2 the text
/// is the bare error message and belongs on stderr (the render_status /
/// render_error contract).
struct VerbOutcome {
  int exit = 0;
  std::string json;
  std::string text;
};

/// Executes one verb on `session` exactly as the local CLI would: builds
/// the typed request from the flags, checks --jobs/--cache-dir with
/// session_config (the session's own config is what runs), validates via
/// the typed Session API, applies the verb's disk side
/// effects (init/port/random export the tree to request.dir, release
/// exports the snapshot next to it), and renders both output formats.
/// The tree must already be imported under kVfsRoot for verbs that read
/// one; a failed import is passed via `import_error` so root-validation
/// failures report the disk-level message.
[[nodiscard]] VerbOutcome execute_verb(Session& session,
                                       const VerbRequest& request,
                                       const std::string& import_error = {});

}  // namespace advm::core::serve
