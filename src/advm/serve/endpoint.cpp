#include "advm/serve/endpoint.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace advm::core::serve {

namespace {

/// Fills a sockaddr_un, rejecting paths that do not fit sun_path — a
/// truncated socket path would silently bind somewhere else.
Status make_address(const std::string& path, sockaddr_un* address) {
  *address = {};
  address->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(address->sun_path)) {
    return Status::error(
        "advm.serve-socket-path",
        "socket path '" + path + "' is empty or longer than " +
            std::to_string(sizeof(address->sun_path) - 1) + " bytes");
  }
  std::memcpy(address->sun_path, path.c_str(), path.size() + 1);
  return {};
}

int open_socket() {
  return ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

/// Non-blocking connect with a poll(2) deadline. 0 on success, the
/// failing errno otherwise (ETIMEDOUT when the deadline expired).
int connect_deadline(int fd, const sockaddr_un& address,
                     std::size_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                     sizeof(address));
  if (rc != 0 && errno == EINPROGRESS) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int wait_ms =
        timeout_ms == 0 ? -1 : static_cast<int>(timeout_ms);
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) {
      ::fcntl(fd, F_SETFL, flags);
      return ETIMEDOUT;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0) {
      const int saved = errno;
      ::fcntl(fd, F_SETFL, flags);
      return saved != 0 ? saved : EIO;
    }
    ::fcntl(fd, F_SETFL, flags);
    return soerr;
  }
  const int saved = rc == 0 ? 0 : errno;
  ::fcntl(fd, F_SETFL, flags);
  return saved;
}

}  // namespace

Status listen_endpoint(const std::string& path, int backlog, int* fd) {
  sockaddr_un address;
  if (Status status = make_address(path, &address); !status.ok()) {
    return status;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int sock = open_socket();
    if (sock < 0) {
      const int sock_errno = errno;
      return Status::error("advm.serve-socket-failed",
                           std::string("socket: ") +
                               std::strerror(sock_errno));
    }
    if (::bind(sock, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) == 0) {
      if (::listen(sock, backlog) != 0) {
        const int listen_errno = errno;
        ::close(sock);
        return Status::error("advm.serve-socket-failed",
                             std::string("listen: ") +
                                 std::strerror(listen_errno));
      }
      *fd = sock;
      return {};
    }
    const int bind_errno = errno;
    ::close(sock);
    if (bind_errno != EADDRINUSE || attempt != 0) {
      return Status::error(
          "advm.serve-socket-failed",
          "bind " + path + ": " + std::strerror(bind_errno));
    }
    // The address is taken. Probe it: a live daemon accepts the connect
    // and keeps the path; the corpse of a SIGKILLed one refuses (or
    // errors), which licenses unlink + rebind on the second attempt.
    const int probe = open_socket();
    if (probe >= 0) {
      const int probe_errno = connect_deadline(probe, address, 1'000);
      ::close(probe);
      if (probe_errno == 0) {
        return Status::error("advm.serve-socket-busy",
                             "a live daemon already serves " + path +
                                 " (attach to it, or --stop it first)");
      }
    }
    ::unlink(path.c_str());
  }
  return Status::error("advm.serve-socket-failed",
                       "bind " + path + ": address stayed busy");
}

Status connect_endpoint(const std::string& path, std::size_t timeout_ms,
                        int* fd) {
  sockaddr_un address;
  if (Status status = make_address(path, &address); !status.ok()) {
    return status;
  }
  const int sock = open_socket();
  if (sock < 0) {
    const int sock_errno = errno;
    return Status::error("advm.serve-unreachable",
                         std::string("socket: ") +
                             std::strerror(sock_errno));
  }
  const int connect_errno = connect_deadline(sock, address, timeout_ms);
  if (connect_errno != 0) {
    ::close(sock);
    return Status::error("advm.serve-unreachable",
                         "cannot attach to " + path + ": " +
                             std::strerror(connect_errno) +
                             " (is the daemon running?)");
  }
  *fd = sock;
  return {};
}

bool write_all_fd(int fd, std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

LineRead read_line_deadline(int fd, std::string* carry, std::string* line,
                            std::size_t timeout_ms, int* io_errno) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const std::size_t newline = carry->find('\n');
    if (newline != std::string::npos) {
      *line = carry->substr(0, newline);
      carry->erase(0, newline + 1);
      return LineRead::Line;
    }
    // Bound each wait with poll(2): 60s chunks re-check the deadline (and
    // keep an infinite wait interruptible at the same cadence).
    int wait_ms = 60'000;
    if (timeout_ms != 0) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0) return LineRead::Timeout;
      wait_ms = static_cast<int>(std::min<long long>(remaining, 60'000));
    }
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      const int poll_errno = errno;
      if (poll_errno == EINTR) continue;
      if (io_errno != nullptr) *io_errno = poll_errno;
      return LineRead::Error;
    }
    if (ready == 0) continue;  // re-check the deadline
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      const int read_errno = errno;
      if (read_errno == EINTR) continue;
      if (read_errno == EAGAIN || read_errno == EWOULDBLOCK) continue;
      if (io_errno != nullptr) *io_errno = read_errno;
      return LineRead::Error;
    }
    if (n == 0) return LineRead::Eof;
    carry->append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace advm::core::serve
