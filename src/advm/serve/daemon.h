// serve::Daemon — the resident verification service.
//
// One warm advm::Session (VFS, object cache + persistent store, board
// pool, thread-pool size) behind a SOCK_STREAM unix socket. A
// poll(2)-driven event loop multiplexes concurrent clients: each
// connection carries exactly one two-line serve::Frame request, verbs
// execute on a small executor pool, and the response frame is written
// back from the loop (non-blocking, partial writes resumed via POLLOUT)
// before the connection closes.
//
// Concurrent sessions are serialized onto the shared Session with an
// ownership rule: read-only verbs (run/matrix/check) hold the session
// lock shared and genuinely run concurrently (cache and board pool are
// internally synchronized — that is what they exist for); mutating verbs
// (init/port/random/release) hold it exclusively. Each client directory
// gets a stable VFS root (/trees/<n>) so the object cache stays warm
// across laps — the key includes the path — and the disk tree is
// re-synced into the VFS only when its content actually changed, so two
// clients hammering the same tree still run concurrently.
//
// Lifecycle is first-class: a client that vanishes mid-request only
// loses its own response (the work completes, the daemon stays healthy),
// --idle-timeout and SIGTERM/SIGINT both drain in-flight work and unlink
// the socket, a stale socket file is probed and replaced on startup
// (endpoint.h), and a `stats` frame answers with a live stats document at
// any time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "advm/session.h"

namespace advm::core::serve {

struct DaemonConfig {
  std::string socket_path;
  /// Configuration of the one shared Session (jobs, cache dir, ... — the
  /// same flags a local CLI run takes).
  SessionConfig session;
  /// Exit cleanly after this long with no clients and no in-flight work;
  /// 0 = run until --stop / SIGTERM / SIGINT.
  std::size_t idle_timeout_ms = 0;
  /// Executor threads = the number of verbs genuinely in flight at once.
  std::size_t executors = 2;
  /// A connection that stalls mid-request (header sent, payload never
  /// arrives) is closed after this long — the client-liveness deadline.
  std::size_t client_stall_ms = 30'000;
};

/// Live counters for the stats document. Snapshot semantics: taken under
/// the daemon's state lock, rendered lock-free.
struct DaemonStats {
  std::uint64_t uptime_ms = 0;
  std::uint64_t clients_served = 0;  ///< connections accepted
  std::uint64_t clients_lost = 0;    ///< vanished before their response
  std::uint64_t requests_ok = 0;     ///< responses with exit code 0
  std::uint64_t requests_failed = 0; ///< responses with nonzero exit
  std::map<std::string, std::uint64_t> per_verb;  ///< requests by verb
  std::size_t trees = 0;  ///< distinct client directories resident in VFS
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

  /// Runs the event loop until a shutdown frame, the idle timeout, or
  /// SIGTERM/SIGINT; drains in-flight work and unlinks the socket. Returns the process exit code (0 on any clean
  /// shutdown path).
  int serve();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace advm::core::serve
