// serve::Frame — the wire unit of the attach protocol.
//
// Each connection carries one request frame and one response frame; the
// envelope carries an id, the verb and (on responses) the exit code and
// human text. A frame is exactly two lines:
//
//   {"id":N,"verb":"matrix","exit":0,"text":"<escaped human text>"}
//   <payload document>
//
// The header line is ordinary report-layer JSON (parse with
// support::json); the payload line is carried as *raw bytes*, never
// re-serialized — the whole point of the attach contract is that a
// client prints the same report document a local run would have
// (byte-identical, down to double digits), and a decode/encode round
// trip through a double would corrupt that. Keeping the payload on its
// own line makes that trivially safe: no length bookkeeping, no
// substring extraction from inside an escaped string, just "read two
// lines".
//
// Request frames carry the verb in the header and the CLI's flag map as
// the payload ({"dir":...,"options":{...}}, see serve::request_payload;
// `exit`/`text` unused); response frames carry the verb back with the
// CLI exit code, the human rendering in `text`, and the --format json
// document as the payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace advm::core::serve {

struct Frame {
  std::uint64_t id = 0;
  std::string verb;     ///< request: the CLI verb; response: echoed back
  int exit = 0;         ///< response only: the CLI exit code
  std::string text;     ///< response only: human rendering ("" when none)
  std::string payload;  ///< one single-line JSON document, raw bytes
};

/// Renders the two-line wire form (header '\n' payload '\n'). An empty
/// payload encodes as `null` so the payload line is always a valid
/// document.
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Parses one header line. The returned Frame has an empty payload —
/// the caller reads the next line and assigns it verbatim. nullopt (with
/// a diagnostic in *error when non-null) on malformed JSON, a missing
/// id/verb, or a verb that is not a plain lowercase word — the envelope
/// is machine-built, so anything else is protocol corruption.
[[nodiscard]] std::optional<Frame> decode_frame_header(
    std::string_view line, std::string* error = nullptr);

}  // namespace advm::core::serve
