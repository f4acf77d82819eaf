// serve::VerbRequest / execute_verb — the attach surface of the CLI.
//
// Every CLI verb reduces to the same shape: a typed Session request
// built from flags, a disk directory the tree lives in, and a rendering
// of the typed result (the --format json document, the human text, an
// exit code). A VerbRequest captures exactly that shape in one
// serializable struct, and execute_verb runs it against a Session —
// import side effects, export side effects, text rendering, exit-code
// policy and all.
//
// Parity by construction: the local CLI path and the daemon both call
// execute_verb, so an attached `advm matrix` cannot drift from a local
// one — they are the same code, fed the same request, on a tree under the
// same VFS root, differing only in which process owns the Session.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "advm/session.h"

namespace advm::core::serve {

/// One CLI verb as data: the verb name, the absolute disk directory it
/// targets, and the typed request the flags produced. Only the verb's
/// own member is meaningful; the rest stay default-constructed. The
/// requests' `root` fields are overwritten by execute_verb with the VFS
/// root the executing session actually uses, so they do not marshal.
struct VerbRequest {
  std::string verb;  ///< init|run|matrix|port|check|lint|release|random
  std::string dir;   ///< absolute disk path of the environment tree
  BuildRequest build;
  RunRequest run;
  MatrixRequest matrix;
  PortRequest port;
  CheckRequest check;
  LintRequest lint;
  ReleaseRequest release;
  RandomRequest random;
  /// run/matrix only: lint the tree first and refuse to execute when any
  /// finding surfaces (the CLI's --lint pre-run gate).
  bool lint_gate = false;
};

/// Single-line JSON document for the frame payload
/// ({"verb":...,"dir":...,<verb fields>}).
[[nodiscard]] std::string to_json(const VerbRequest& request);

/// Inverse of to_json. nullopt (diagnostic in *error when non-null) on
/// malformed JSON, an unknown verb, or a missing dir.
[[nodiscard]] std::optional<VerbRequest> parse_verb_request(
    std::string_view document, std::string* error = nullptr);

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

/// Executes one verb on `session` exactly as the local CLI would:
/// validates via the typed Session API, applies the verb's disk side
/// effects (init/port/random export the tree to request.dir, release
/// exports the snapshot next to it), and renders both output formats.
/// The tree must already be imported under kVfsRoot for verbs that read
/// one; a failed import is passed via `import_error` so root-validation
/// failures report the disk-level message (the make_session contract).
[[nodiscard]] VerbOutcome execute_verb(Session& session,
                                       const VerbRequest& request,
                                       const std::string& import_error = {});

}  // namespace advm::core::serve
