#include "advm/serve/daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "advm/report.h"
#include "advm/serve/endpoint.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "support/disk.h"

namespace advm::core::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The listener's poll(2) tick: how promptly SIGTERM/SIGINT and the idle
/// timeout are noticed while no client is connected.
constexpr int kTickMs = 200;

volatile sig_atomic_t g_stop_requested = 0;

extern "C" void daemon_signal_handler(int) { g_stop_requested = 1; }

std::uint64_t elapsed_ms(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            since)
          .count());
}

}  // namespace

struct Daemon::Impl {
  DaemonConfig config;

  int listen_fd = -1;
  std::unique_ptr<Session> session;
  Clock::time_point started;

  std::set<std::string> dirs;  ///< distinct client directories served
  std::uint64_t clients_served = 0;  ///< connections accepted
  std::uint64_t clients_lost = 0;    ///< vanished before their response
  std::uint64_t requests_ok = 0;     ///< responses with exit code 0
  std::uint64_t requests_failed = 0; ///< responses with nonzero exit
  std::map<std::string, std::uint64_t> per_verb;  ///< requests by verb

  ~Impl() { close_listener(); }

  /// Stops accepting and unlinks the socket, so new connects are refused.
  void close_listener() {
    if (listen_fd < 0) return;
    ::close(listen_fd);
    listen_fd = -1;
    ::unlink(config.socket_path.c_str());
  }

  /// Imports the client's disk tree afresh under kVfsRoot — the root a
  /// local CLI run uses, so every path in the result (diagnostics
  /// included) is the one the local run prints — and executes the verb
  /// there. The cache key hashes the source text as well as the path, so
  /// trees from different client directories never share a stale object.
  VerbOutcome run_verb(const VerbRequest& request) {
    // The previous tree is dropped first so that files deleted on disk
    // (or a re-init) cannot linger.
    session->vfs().remove_tree(kVfsRoot);
    if (request.verb == "init") return execute_verb(*session, request);
    dirs.insert(request.dir);
    std::string import_error;
    try {
      support::import_from_disk(session->vfs(), request.dir, kVfsRoot);
    } catch (const std::exception& e) {
      // Unreadable dir: drop any partial copy so root validation fails
      // and execute_verb substitutes the disk-level message.
      import_error = e.what();
      session->vfs().remove_tree(kVfsRoot);
    }
    return execute_verb(*session, request, import_error);
  }

  /// The live stats document — the same fixed-key-order, single-line
  /// contract every other report document follows.
  std::string stats_json() const {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "{\"ok\":true,\"verb\":\"serve\",\"socket\":\""
       << json_escape(config.socket_path)
       << "\",\"uptime_ms\":" << elapsed_ms(started)
       << ",\"clients_served\":" << clients_served
       << ",\"clients_lost\":" << clients_lost
       << ",\"requests_ok\":" << requests_ok
       << ",\"requests_failed\":" << requests_failed << ",\"requests\":{";
    bool first = true;
    for (const auto& [verb, count] : per_verb) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(verb) << "\":" << count;
    }
    os << "},\"trees\":" << dirs.size()
       << ",\"cache\":" << cache_counters_to_json(session->cache().stats());
    const BoardPoolStats boards = session->boards().stats();
    os << ",\"boards\":{\"constructed\":" << boards.constructed
       << ",\"reused\":" << boards.reused
       << ",\"discarded\":" << boards.discarded
       << ",\"stale_evicted\":" << boards.stale_evicted << "}}";
    return os.str();
  }

  std::string stats_text() const {
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "daemon on " << config.socket_path << ": up "
       << elapsed_ms(started) << "ms, " << clients_served << " clients ("
       << clients_lost << " lost), " << requests_ok << " requests ok, "
       << requests_failed << " failed, " << dirs.size()
       << " trees served\n";
    return os.str();
  }

  static Frame error_frame(std::uint64_t id, const std::string& verb,
                           const Status& status) {
    Frame frame;
    frame.id = id;
    frame.verb = verb.empty() ? "serve" : verb;
    frame.exit = 2;
    frame.text = status.message + "\n";
    frame.payload = error_to_json(frame.verb, status);
    return frame;
  }

  /// Answers one complete request frame: stats and shutdown inline, verbs
  /// through execute_verb.
  Frame answer(const Frame& request) {
    ++per_verb[request.verb];
    Frame frame;
    frame.id = request.id;
    frame.verb = request.verb;
    if (request.verb == "stats") {
      frame.text = stats_text();
      frame.payload = stats_json();
      return frame;
    }
    if (request.verb == "shutdown") {
      frame.text = "daemon at " + config.socket_path + ": shutting down\n";
      frame.payload = "{\"ok\":true,\"verb\":\"shutdown\",\"socket\":\"" +
                      json_escape(config.socket_path) + "\"}";
      return frame;
    }
    std::string parse_error;
    const auto verb_request =
        parse_request_payload(request.verb, request.payload, &parse_error);
    if (!verb_request) {
      return error_frame(request.id, request.verb,
                         Status::error("advm.serve-bad-request", parse_error));
    }
    const VerbOutcome outcome = run_verb(*verb_request);
    frame.exit = outcome.exit;
    frame.text = outcome.text;
    frame.payload = outcome.json;
    return frame;
  }

  /// Serves one connected client: read its two-line request within the
  /// stall deadline, answer it, write the response frame. A client that
  /// stalls or hangs up before its request is complete is dropped
  /// unanswered. Returns true when the client asked for shutdown.
  bool serve_client(int fd) {
    ++clients_served;
    // A peer that stops reading must not park the loop in send(2) either.
    const timeval send_timeout = {
        static_cast<time_t>(kClientStallMs / 1000),
        static_cast<suseconds_t>(kClientStallMs % 1000 * 1000)};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof send_timeout);
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kClientStallMs);
    const auto remaining_ms = [&] {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      // read_line_deadline treats 0 as "forever": never hand it that.
      return static_cast<std::size_t>(left > 0 ? left : 1);
    };

    std::string carry;
    std::string line;
    if (read_line_deadline(fd, &carry, &line, remaining_ms()) !=
        LineRead::Line) {
      return false;
    }
    std::string decode_error;
    const auto header = decode_frame_header(line, &decode_error);
    Frame response;
    if (!header) {
      response = error_frame(
          0, "", Status::error("advm.serve-bad-request", decode_error));
    } else {
      Frame request = *header;
      if (read_line_deadline(fd, &carry, &request.payload, remaining_ms()) !=
          LineRead::Line) {
        return false;
      }
      response = answer(request);
    }
    if (response.exit == 0) {
      ++requests_ok;
    } else {
      ++requests_failed;
    }
    if (!write_all_fd(fd, encode_frame(response))) ++clients_lost;
    return header && header->verb == "shutdown";
  }
};

Daemon::Daemon(DaemonConfig config) : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
}

Daemon::~Daemon() = default;

Status Daemon::start() {
  if (Status status = impl_->config.session.validate(); !status.ok()) {
    return status;
  }
  if (Status status =
          listen_endpoint(impl_->config.socket_path, 16, &impl_->listen_fd);
      !status.ok()) {
    return status;
  }
  impl_->session = std::make_unique<Session>(impl_->config.session);
  impl_->started = Clock::now();
  return {};
}

int Daemon::serve() {
  Impl& impl = *impl_;

  g_stop_requested = 0;
  struct sigaction action = {};
  action.sa_handler = daemon_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term = {};
  struct sigaction old_int = {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  Clock::time_point last_activity = Clock::now();
  while (g_stop_requested == 0) {
    pollfd pfd = {impl.listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kTickMs);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed
    if (ready > 0) {
      const int client =
          ::accept4(impl.listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (client < 0) continue;
      const bool shutdown = impl.serve_client(client);
      ::close(client);
      last_activity = Clock::now();
      if (shutdown) break;
      continue;
    }
    if (impl.config.idle_timeout_ms > 0 &&
        elapsed_ms(last_activity) >= impl.config.idle_timeout_ms) {
      break;
    }
  }

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  impl.close_listener();
  return 0;
}

}  // namespace advm::core::serve
