// serve::attach_roundtrip — the thin client half of the attach protocol.
//
// One request per connection: connect, write the request frame (two
// lines), read the response frame, close. The response's payload is the
// byte-exact report document a local run would have printed and its
// `exit` is the local exit code, so the CLI's attach path is a pure
// transport: print one of payload/text, return exit.
//
// The connect carries a finite deadline (a daemon with a full accept
// backlog fails typed, not hung); the response is awaited without one,
// since a matrix lap legitimately runs for minutes — a daemon that dies
// mid-response still surfaces promptly as EOF, a typed Status.
#pragma once

#include <string>

#include "advm/serve/frame.h"
#include "advm/session.h"

namespace advm::core::serve {

/// One attach round trip to the daemon at `socket_path`. Typed failures:
/// advm.serve-unreachable (connect), advm.serve-protocol (malformed or
/// truncated response).
[[nodiscard]] Status attach_roundtrip(const std::string& socket_path,
                                      const Frame& request,
                                      Frame* response);

}  // namespace advm::core::serve
