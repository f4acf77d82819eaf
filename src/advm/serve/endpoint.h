// serve::endpoint — unix-socket plumbing shared by daemon and client.
//
// One place owns the SOCK_STREAM address handling: path-length
// validation against sun_path, the daemon's bind/listen with a
// stale-socket probe (a socket file left behind by a killed daemon is
// connect-probed; refusal means abandoned → unlink and rebind, success
// means a live daemon owns it → typed advm.serve-socket-busy), and the
// client's connect with a poll(2) deadline — plus the two stream
// helpers the attach client (and its tests) frame messages with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "advm/session.h"

namespace advm::core::serve {

/// Binds + listens a SOCK_STREAM unix socket at `path`. On EADDRINUSE
/// the path is probed with a connect(2): a refused/ignored probe marks
/// the file as the corpse of a dead daemon, which is unlinked and
/// rebound; an accepted probe returns advm.serve-socket-busy. On success
/// *fd holds the listening socket (close-on-exec).
[[nodiscard]] Status listen_endpoint(const std::string& path, int backlog,
                                     int* fd);

/// Connects to the daemon at `path` with a deadline (0 = forever). On
/// success *fd holds the connected socket (close-on-exec). Typed
/// advm.serve-unreachable when nothing answers.
[[nodiscard]] Status connect_endpoint(const std::string& path,
                                      std::size_t timeout_ms, int* fd);

/// send(2)s all of `bytes` to the connected socket `fd` with
/// MSG_NOSIGNAL, so a vanished peer surfaces as EPIPE (a typed Status
/// upstream), never a process kill. On failure errno identifies the
/// write error.
[[nodiscard]] bool write_all_fd(int fd, std::string_view bytes);

/// What read_line_deadline produced.
enum class LineRead : std::uint8_t {
  Line,     ///< one full line is in *line (newline stripped)
  Eof,      ///< the peer closed before completing a line
  Timeout,  ///< the deadline expired mid-line
  Error,    ///< poll/read failed; errno in *io_errno
};

/// Reads one '\n'-terminated line from `fd` with a poll(2) deadline.
/// `carry` holds bytes read past the last returned line and must persist
/// across calls on the same stream; `timeout_ms` 0 waits forever. On
/// Error the failing errno is captured into *io_errno (when non-null)
/// before returning, so callers can fold it into a diagnostic without
/// racing their own cleanup I/O.
[[nodiscard]] LineRead read_line_deadline(int fd, std::string* carry,
                                          std::string* line,
                                          std::size_t timeout_ms,
                                          int* io_errno = nullptr);

}  // namespace advm::core::serve
