// serve::Daemon — the resident verification service.
//
// One warm advm::Session (VFS, object cache + persistent store, board
// pool, thread-pool size) behind a SOCK_STREAM unix socket. Clients are
// served one at a time by a sequential loop: accept, read the two-line
// serve::Frame request, execute it, write the response frame, close.
// Parallelism lives inside the Session — every verb fans out over the
// daemon's --jobs workers — so a second request in flight would only
// oversubscribe the cores.
//
// Each request re-imports the client's disk tree under /SYS, the root a
// local CLI run uses, so every path an attached verb prints — diagnostics
// included — matches the local run byte for byte. The object cache key
// includes the path and the source content, so the fixed root keeps the
// session warm across laps, and the re-import is what makes disk edits
// between laps visible.
//
// Lifecycle: a client that vanishes before its response only loses that
// response (counted as a lost client); a client that stalls mid-request
// is dropped after kClientStallMs so the next one gets served;
// --idle-timeout and SIGTERM/SIGINT finish the request at hand and
// unlink the socket; a stale socket file is probed and replaced on
// startup (endpoint.h); a `stats` frame answers with a live stats
// document.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "advm/session.h"

namespace advm::core::serve {

/// How long a connected client may take to deliver its whole request
/// (header and payload line) before the daemon drops it. A real client
/// writes both lines in one call, so this only ever fires on a stalled
/// or hostile peer — which would otherwise wedge the one-at-a-time loop.
inline constexpr std::size_t kClientStallMs = 2'000;

struct DaemonConfig {
  std::string socket_path;
  /// Configuration of the one shared Session (jobs, cache dir, ... — the
  /// same flags a local CLI run takes).
  SessionConfig session;
  /// Exit cleanly after this long with no client; 0 = run until --stop /
  /// SIGTERM / SIGINT.
  std::size_t idle_timeout_ms = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  /// Validates the session config, binds + listens the socket (with the
  /// stale-socket probe) and constructs the warm Session. Typed Status
  /// (advm.serve-socket-busy, advm.bad-*) on failure.
  [[nodiscard]] Status start();

  /// Serves clients one at a time until a shutdown frame, the idle
  /// timeout, or SIGTERM/SIGINT, then unlinks the socket. Returns the
  /// process exit code (0 on any clean shutdown path).
  int serve();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace advm::core::serve
