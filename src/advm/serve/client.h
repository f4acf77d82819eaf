// serve::attach_roundtrip — the thin client half of the attach protocol.
//
// One request per connection: connect, write the request frame (two
// lines), read the response frame, close. The response's payload is the
// byte-exact report document a local run would have printed and its
// `exit` is the local exit code, so the CLI's attach path is a pure
// transport: print one of payload/text, return exit.
//
// Liveness rides a poll(2) deadline (read_line_deadline, endpoint.h): a
// daemon that dies mid-response surfaces as a typed Status, a wedged one
// as advm.serve-timeout — never a CLI hung in read(2).
#pragma once

#include <cstddef>
#include <string>

#include "advm/serve/frame.h"
#include "advm/session.h"

namespace advm::core::serve {

struct AttachOptions {
  std::string socket_path;
  /// Deadline for the connect itself — generous, but finite: a daemon
  /// with a full accept backlog should fail typed, not hang the client.
  std::size_t connect_timeout_ms = 10'000;
  /// Deadline for the whole response (0 = wait forever — a matrix lap
  /// legitimately runs for minutes; a dead daemon still surfaces
  /// promptly as EOF).
  std::size_t read_timeout_ms = 0;
};

/// One attach round trip. Typed failures: advm.serve-unreachable
/// (connect), advm.serve-timeout (deadline), advm.serve-protocol
/// (malformed or truncated response).
[[nodiscard]] Status attach_roundtrip(const AttachOptions& options,
                                      const Frame& request,
                                      Frame* response);

}  // namespace advm::core::serve
