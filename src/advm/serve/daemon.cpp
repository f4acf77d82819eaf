#include "advm/serve/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "advm/report.h"
#include "advm/serve/endpoint.h"
#include "advm/serve/frame.h"
#include "advm/serve/service.h"
#include "support/disk.h"
#include "support/vfs.h"

namespace advm::core::serve {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ----------------------------------------------------------- wake pipe --

// Self-pipe shared with the signal handlers: SIGTERM/SIGINT set the flag
// and poke the pipe so a poll(2) parked on its 200ms tick wakes at once.
volatile sig_atomic_t g_stop_requested = 0;
int g_signal_wake_fd = -1;

extern "C" void daemon_signal_handler(int) {
  g_stop_requested = 1;
  if (g_signal_wake_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(g_signal_wake_fd, &byte, 1);
  }
}

void poke(int fd) {
  const char byte = 'w';
  while (::write(fd, &byte, 1) < 0 && errno == EINTR) {
  }
}

// ------------------------------------------------------------ disk sync --

/// A disk tree snapshot: (relative path, content) pairs, read without
/// holding any session lock so concurrent read-only clients never
/// serialize on filesystem I/O.
using DiskTree = std::vector<std::pair<std::string, std::string>>;

/// Mirrors support::import_from_disk (same traversal, same diagnostics)
/// but into memory instead of the VFS.
DiskTree read_disk_tree(const std::string& dir, std::string* error) {
  DiskTree tree;
  try {
    const fs::path root(dir);
    if (!fs::is_directory(root)) {
      throw std::runtime_error("no such directory: " + dir);
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        throw std::runtime_error("cannot read " + entry.path().string());
      }
      std::string content((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
      tree.emplace_back(rel, std::move(content));
    }
  } catch (const std::exception& e) {
    *error = e.what();
    tree.clear();
  }
  return tree;
}

/// True when the VFS copy under `root` is byte-identical to the disk
/// snapshot — the check that lets an unchanged tree skip the exclusive
/// re-import and keep read-only verbs concurrent.
bool tree_matches(const support::VirtualFileSystem& vfs,
                  const std::string& root, const DiskTree& tree) {
  if (vfs.list_tree(root).size() != tree.size()) return false;
  for (const auto& [rel, content] : tree) {
    const auto existing = vfs.read(support::join_path(root, rel));
    if (!existing || *existing != content) return false;
  }
  return true;
}

void sync_tree(support::VirtualFileSystem& vfs, const std::string& root,
               const DiskTree& tree) {
  vfs.remove_tree(root);
  for (const auto& [rel, content] : tree) {
    vfs.write(support::join_path(root, rel), content);
  }
}

// ----------------------------------------------------------- connection --

struct Connection {
  int fd = -1;
  std::uint64_t serial = 0;
  std::string inbuf;
  bool have_header = false;
  Frame request;
  bool executing = false;  ///< verb handed to an executor
  bool closing = false;    ///< response queued; close once flushed
  std::string outbuf;
  std::size_t out_off = 0;
  Clock::time_point last_activity;
};

struct Task {
  std::uint64_t serial = 0;
  std::uint64_t frame_id = 0;
  VerbRequest request;
};

struct Completion {
  std::uint64_t serial = 0;
  Frame frame;
};

}  // namespace

// ------------------------------------------------------------------ impl --

struct Daemon::Impl {
  DaemonConfig config;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  bool socket_bound = false;
  std::unique_ptr<Session> session;
  Clock::time_point started;

  /// The ownership rule: mutating verbs exclusive, read-only shared.
  std::shared_mutex session_mutex;

  /// Guards everything below (task/completion queues, roots, counters).
  std::mutex state_mutex;
  std::condition_variable tasks_cv;
  std::deque<Task> tasks;
  std::deque<Completion> completed;
  bool stop_executors = false;
  std::size_t in_flight = 0;  ///< queued + executing verbs
  std::map<std::string, std::string> roots;  ///< canonical dir → VFS root
  std::uint64_t clients_served = 0;
  std::uint64_t clients_lost = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  std::map<std::string, std::uint64_t> per_verb;

  std::vector<std::thread> executors;
  std::map<std::uint64_t, Connection> conns;
  std::uint64_t next_serial = 1;
  bool draining = false;
  Clock::time_point last_idle_activity;

  ~Impl() { close_all(); }

  void close_all() {
    for (auto& [serial, conn] : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
    wake_read = wake_write = -1;
    if (socket_bound) ::unlink(config.socket_path.c_str());
    socket_bound = false;
  }

  /// Stable VFS root for a client directory: the cache key includes the
  /// path, so reusing the same root across laps is what keeps the warm
  /// session warm.
  std::string root_for(const std::string& dir) {
    std::lock_guard<std::mutex> lock(state_mutex);
    auto [it, inserted] =
        roots.emplace(dir, "/trees/" + std::to_string(roots.size() + 1));
    return it->second;
  }

  /// Executes one verb under the ownership rule and renders its frame.
  Frame run_verb(const Task& task) {
    const VerbRequest& request = task.request;
    VerbOutcome outcome;
    if (request.verb == "init") {
      // init regenerates the whole tree; the result document embeds the
      // VFS root, so parity demands the CLI's /SYS. Exclusive, and the
      // previous /SYS is dropped so a re-init cannot leave stale files.
      std::unique_lock<std::shared_mutex> lock(session_mutex);
      session->vfs().remove_tree("/SYS");
      outcome = execute_verb(*session, request, "/SYS");
    } else {
      std::string import_error;
      const DiskTree tree = read_disk_tree(request.dir, &import_error);
      const std::string root = root_for(request.dir);
      if (verb_mutates(request.verb)) {
        std::unique_lock<std::shared_mutex> lock(session_mutex);
        if (import_error.empty()) {
          sync_tree(session->vfs(), root, tree);
        } else {
          // Unreadable dir: drop any stale copy so root validation
          // fails and execute_verb substitutes the disk-level message.
          session->vfs().remove_tree(root);
        }
        outcome = execute_verb(*session, request, root, import_error);
      } else {
        std::shared_lock<std::shared_mutex> lock(session_mutex);
        const bool fresh =
            import_error.empty() && tree_matches(session->vfs(), root, tree);
        if (!fresh) {
          lock.unlock();
          {
            std::unique_lock<std::shared_mutex> sync_lock(session_mutex);
            if (import_error.empty()) {
              sync_tree(session->vfs(), root, tree);
            } else {
              session->vfs().remove_tree(root);
            }
          }
          lock.lock();
        }
        outcome = execute_verb(*session, request, root, import_error);
      }
    }
    Frame frame;
    frame.id = task.frame_id;
    frame.verb = request.verb;
    frame.exit = outcome.exit;
    frame.text = outcome.text;
    frame.payload = outcome.json;
    return frame;
  }

  void executor_main() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(state_mutex);
        tasks_cv.wait(lock,
                      [this] { return stop_executors || !tasks.empty(); });
        if (tasks.empty()) return;  // stop requested and queue drained
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      Frame frame = run_verb(task);
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        if (frame.exit == 0) {
          ++requests_ok;
        } else {
          ++requests_failed;
        }
        completed.push_back({task.serial, std::move(frame)});
      }
      poke(wake_write);
    }
  }

  DaemonStats snapshot_stats() {
    DaemonStats stats;
    stats.uptime_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              started)
            .count());
    std::lock_guard<std::mutex> lock(state_mutex);
    stats.clients_served = clients_served;
    stats.clients_lost = clients_lost;
    stats.requests_ok = requests_ok;
    stats.requests_failed = requests_failed;
    stats.per_verb = per_verb;
    stats.trees = roots.size();
    return stats;
  }

  /// The live stats document — the same fixed-key-order, single-line
  /// contract every other report document follows.
  std::string stats_json() {
    const DaemonStats stats = snapshot_stats();
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "{\"ok\":true,\"verb\":\"serve\",\"socket\":\""
       << json_escape(config.socket_path)
       << "\",\"uptime_ms\":" << stats.uptime_ms
       << ",\"clients_served\":" << stats.clients_served
       << ",\"clients_lost\":" << stats.clients_lost
       << ",\"requests_ok\":" << stats.requests_ok
       << ",\"requests_failed\":" << stats.requests_failed << ",\"requests\":{";
    bool first = true;
    for (const auto& [verb, count] : stats.per_verb) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(verb) << "\":" << count;
    }
    os << "},\"trees\":" << stats.trees
       << ",\"cache\":" << cache_counters_to_json(session->cache().stats());
    const BoardPoolStats boards = session->boards().stats();
    os << ",\"boards\":{\"constructed\":" << boards.constructed
       << ",\"reused\":" << boards.reused
       << ",\"discarded\":" << boards.discarded
       << ",\"trimmed\":" << boards.trimmed
       << ",\"stale_evicted\":" << boards.stale_evicted << "}}";
    return os.str();
  }

  std::string stats_text() {
    const DaemonStats stats = snapshot_stats();
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os << "daemon on " << config.socket_path << ": up " << stats.uptime_ms
       << "ms, " << stats.clients_served << " clients ("
       << stats.clients_lost << " lost), " << stats.requests_ok
       << " requests ok, " << stats.requests_failed << " failed, "
       << stats.trees << " trees resident\n";
    return os.str();
  }

  void touch_idle() { last_idle_activity = Clock::now(); }

  /// Queues an encoded response on the connection; the loop's flush pass
  /// writes it out and closes.
  void queue_response(Connection& conn, const Frame& frame) {
    conn.outbuf = encode_frame(frame);
    conn.out_off = 0;
    conn.closing = true;
    conn.executing = false;
  }

  void queue_error(Connection& conn, std::uint64_t id,
                   const std::string& verb, const Status& status) {
    Frame frame;
    frame.id = id;
    frame.verb = verb.empty() ? "serve" : verb;
    frame.exit = 2;
    frame.text = status.message + "\n";
    frame.payload = error_to_json(frame.verb, status);
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      ++requests_failed;
    }
    queue_response(conn, frame);
  }

  /// A full frame (header + payload) arrived: answer stats/shutdown
  /// inline, hand verbs to the executor pool.
  void dispatch(Connection& conn) {
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      ++per_verb[conn.request.verb];
    }
    if (conn.request.verb == "stats") {
      Frame frame;
      frame.id = conn.request.id;
      frame.verb = "stats";
      frame.text = stats_text();
      frame.payload = stats_json();
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        ++requests_ok;
      }
      queue_response(conn, frame);
      return;
    }
    if (conn.request.verb == "shutdown") {
      Frame frame;
      frame.id = conn.request.id;
      frame.verb = "shutdown";
      frame.text = "daemon at " + config.socket_path + ": shutting down\n";
      frame.payload =
          "{\"ok\":true,\"verb\":\"shutdown\",\"socket\":\"" +
          json_escape(config.socket_path) + "\"}";
      {
        std::lock_guard<std::mutex> lock(state_mutex);
        ++requests_ok;
      }
      queue_response(conn, frame);
      draining = true;
      return;
    }
    std::string parse_error;
    const auto request = parse_verb_request(conn.request.payload, &parse_error);
    if (!request) {
      queue_error(conn, conn.request.id, conn.request.verb,
                  Status::error("advm.serve-bad-request", parse_error));
      return;
    }
    if (request->verb != conn.request.verb) {
      queue_error(conn, conn.request.id, conn.request.verb,
                  Status::error("advm.serve-bad-request",
                                "frame verb '" + conn.request.verb +
                                    "' does not match request verb '" +
                                    request->verb + "'"));
      return;
    }
    conn.executing = true;
    {
      std::lock_guard<std::mutex> lock(state_mutex);
      ++in_flight;
      tasks.push_back({conn.serial, conn.request.id, *request});
    }
    tasks_cv.notify_one();
  }

  /// Consumes buffered input: header line, then payload line, then
  /// dispatch. A second request on the same connection is ignored — the
  /// protocol is one request per connection.
  void consume_input(Connection& conn) {
    while (!conn.executing && !conn.closing) {
      const std::size_t newline = conn.inbuf.find('\n');
      if (newline == std::string::npos) return;
      std::string line = conn.inbuf.substr(0, newline);
      conn.inbuf.erase(0, newline + 1);
      if (!conn.have_header) {
        std::string decode_error;
        const auto header = decode_frame_header(line, &decode_error);
        if (!header) {
          queue_error(conn, 0, "",
                      Status::error("advm.serve-bad-request", decode_error));
          return;
        }
        conn.request = *header;
        conn.have_header = true;
        continue;
      }
      conn.request.payload = std::move(line);
      dispatch(conn);
    }
  }

  /// Non-blocking flush of a queued response. Returns false when the
  /// connection died mid-write (counted as a lost client).
  bool flush(Connection& conn) {
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbuf.data() + conn.out_off,
                 conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // EPIPE/ECONNRESET: client vanished
    }
    return true;
  }
};

// ---------------------------------------------------------------- Daemon --

Daemon::Daemon(DaemonConfig config) : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  if (impl_->config.executors == 0) impl_->config.executors = 1;
}

Daemon::~Daemon() = default;

Status Daemon::start() {
  if (Status status = impl_->config.session.validate(); !status.ok()) {
    return status;
  }
  int listen_fd = -1;
  if (Status status =
          listen_endpoint(impl_->config.socket_path, 16, &listen_fd);
      !status.ok()) {
    return status;
  }
  impl_->listen_fd = listen_fd;
  impl_->socket_bound = true;
  // The accept loop drains until EAGAIN — a blocking listener would park
  // the whole event loop inside accept4 after the first client.
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) != 0) {
    const int pipe_errno = errno;
    impl_->close_all();
    return Status::error("advm.serve-socket-failed",
                         std::string("pipe: ") + std::strerror(pipe_errno));
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  impl_->session = std::make_unique<Session>(impl_->config.session);
  impl_->started = Clock::now();
  impl_->last_idle_activity = impl_->started;
  return {};
}

int Daemon::serve() {
  Impl& impl = *impl_;

  g_stop_requested = 0;
  g_signal_wake_fd = impl.wake_write;
  struct sigaction action = {};
  action.sa_handler = daemon_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction old_term = {};
  struct sigaction old_int = {};
  ::sigaction(SIGTERM, &action, &old_term);
  ::sigaction(SIGINT, &action, &old_int);

  for (std::size_t i = 0; i < impl.config.executors; ++i) {
    impl.executors.emplace_back([&impl] { impl.executor_main(); });
  }

  bool listen_closed = false;
  for (;;) {
    // Assemble the poll set: wake pipe, listener (until draining), every
    // connection (POLLIN always — EOF detection while executing is how a
    // vanished client is noticed — plus POLLOUT while a response drains).
    std::vector<pollfd> pfds;
    std::vector<std::uint64_t> serials;
    pfds.push_back({impl.wake_read, POLLIN, 0});
    serials.push_back(0);
    if (!impl.draining && impl.listen_fd >= 0) {
      pfds.push_back({impl.listen_fd, POLLIN, 0});
      serials.push_back(0);
    }
    for (auto& [serial, conn] : impl.conns) {
      short events = POLLIN;
      if (conn.closing && conn.out_off < conn.outbuf.size()) {
        events |= POLLOUT;
      }
      pfds.push_back({conn.fd, events, 0});
      serials.push_back(serial);
    }

    const int ready = ::poll(pfds.data(), pfds.size(), 200);
    if (ready < 0 && errno != EINTR) break;  // poll itself failed

    if (g_stop_requested != 0) impl.draining = true;

    // Drain the wake pipe.
    if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(impl.wake_read, buf, sizeof buf) > 0) {
      }
    }

    // Accept new clients.
    if (!impl.draining && impl.listen_fd >= 0) {
      for (std::size_t i = 1; i < pfds.size(); ++i) {
        if (pfds[i].fd != impl.listen_fd) continue;
        if ((pfds[i].revents & POLLIN) == 0) break;
        for (;;) {
          const int client = ::accept4(impl.listen_fd, nullptr, nullptr,
                                       SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (client < 0) break;
          Connection conn;
          conn.fd = client;
          conn.serial = impl.next_serial++;
          conn.last_activity = Clock::now();
          {
            std::lock_guard<std::mutex> lock(impl.state_mutex);
            ++impl.clients_served;
          }
          impl.conns.emplace(conn.serial, std::move(conn));
          impl.touch_idle();
        }
        break;
      }
    }

    // Read from ready connections; notice vanished clients.
    std::vector<std::uint64_t> dead;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (serials[i] == 0) continue;
      auto it = impl.conns.find(serials[i]);
      if (it == impl.conns.end()) continue;
      Connection& conn = it->second;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      for (;;) {
        char buf[4096];
        const ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n > 0) {
          conn.inbuf.append(buf, static_cast<std::size_t>(n));
          conn.last_activity = Clock::now();
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        eof = true;  // orderly EOF or hard error: the client is gone
        break;
      }
      // Consume what arrived BEFORE honouring EOF: a client that writes
      // its whole request and immediately closes (fire-and-forget, or a
      // crash right after send) has still made a request — it must be
      // dispatched so the vanish is counted against a real completion.
      impl.consume_input(conn);
      if (!eof) continue;
      // The client hung up. If its verb is still executing, the work
      // finishes and only this response is dropped (the completion finds
      // no connection and counts a lost client). A response that never
      // fully flushed also counts as lost.
      if (conn.executing ||
          (conn.closing && conn.out_off < conn.outbuf.size())) {
        if (!conn.executing) {
          std::lock_guard<std::mutex> lock(impl.state_mutex);
          ++impl.clients_lost;
        }
      }
      dead.push_back(conn.serial);
    }
    for (const std::uint64_t serial : dead) {
      auto it = impl.conns.find(serial);
      if (it == impl.conns.end()) continue;
      ::close(it->second.fd);
      impl.conns.erase(it);
      impl.touch_idle();
    }

    // Deliver completions from the executor pool.
    std::deque<Completion> finished;
    {
      std::lock_guard<std::mutex> lock(impl.state_mutex);
      finished.swap(impl.completed);
      impl.in_flight -= finished.size();
    }
    for (Completion& completion : finished) {
      auto it = impl.conns.find(completion.serial);
      if (it == impl.conns.end()) {
        // Vanished mid-request: the verb ran to completion, the
        // response has no one to go to.
        std::lock_guard<std::mutex> lock(impl.state_mutex);
        ++impl.clients_lost;
      } else {
        impl.queue_response(it->second, completion.frame);
      }
      impl.touch_idle();
    }

    // Flush queued responses; close drained or dead connections.
    std::vector<std::uint64_t> done;
    for (auto& [serial, conn] : impl.conns) {
      if (!conn.closing) continue;
      if (!impl.flush(conn)) {
        {
          std::lock_guard<std::mutex> lock(impl.state_mutex);
          ++impl.clients_lost;
        }
        done.push_back(serial);
        continue;
      }
      if (conn.out_off == conn.outbuf.size()) done.push_back(serial);
    }
    for (const std::uint64_t serial : done) {
      auto it = impl.conns.find(serial);
      if (it == impl.conns.end()) continue;
      ::close(it->second.fd);
      impl.conns.erase(it);
      impl.touch_idle();
    }

    const Clock::time_point now = Clock::now();

    // Client-liveness deadline: a connection that stalls mid-request
    // (no complete frame, nothing executing) is closed.
    if (impl.config.client_stall_ms > 0) {
      std::vector<std::uint64_t> stalled;
      for (auto& [serial, conn] : impl.conns) {
        if (conn.executing || conn.closing) continue;
        const auto idle_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - conn.last_activity)
                .count();
        if (idle_ms >= 0 && static_cast<std::size_t>(idle_ms) >=
                                impl.config.client_stall_ms) {
          stalled.push_back(serial);
        }
      }
      for (const std::uint64_t serial : stalled) {
        auto it = impl.conns.find(serial);
        if (it == impl.conns.end()) continue;
        ::close(it->second.fd);
        impl.conns.erase(it);
        impl.touch_idle();
      }
    }

    std::size_t in_flight_now = 0;
    {
      std::lock_guard<std::mutex> lock(impl.state_mutex);
      in_flight_now = impl.in_flight;
    }

    // Idle shutdown: no clients, nothing in flight, timeout elapsed.
    if (!impl.draining && impl.config.idle_timeout_ms > 0 &&
        impl.conns.empty() && in_flight_now == 0) {
      const auto idle_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - impl.last_idle_activity)
              .count();
      if (idle_ms >= 0 && static_cast<std::size_t>(idle_ms) >=
                              impl.config.idle_timeout_ms) {
        impl.draining = true;
      }
    }

    if (impl.draining) {
      if (!listen_closed) {
        // Stop accepting immediately; new connects are refused while
        // in-flight work drains.
        if (impl.listen_fd >= 0) ::close(impl.listen_fd);
        impl.listen_fd = -1;
        ::unlink(impl.config.socket_path.c_str());
        impl.socket_bound = false;
        listen_closed = true;
      }
      if (impl.conns.empty() && in_flight_now == 0) break;
    }
  }

  // Stop the executor pool (the queue is empty at this point: the loop
  // only exits once in_flight reaches zero).
  {
    std::lock_guard<std::mutex> lock(impl.state_mutex);
    impl.stop_executors = true;
  }
  impl.tasks_cv.notify_all();
  for (std::thread& executor : impl.executors) executor.join();
  impl.executors.clear();

  ::sigaction(SIGTERM, &old_term, nullptr);
  ::sigaction(SIGINT, &old_int, nullptr);
  g_signal_wake_fd = -1;

  impl.close_all();
  return 0;
}

}  // namespace advm::core::serve
