#include "advm/serve/client.h"

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

#include "advm/serve/endpoint.h"

namespace advm::core::serve {

namespace {

/// Deadline for the connect itself.
constexpr std::size_t kConnectTimeoutMs = 10'000;

/// Reads one response line, waiting as long as the daemon works, and maps
/// every non-Line outcome to a typed Status.
Status read_frame_line(int fd, std::string* carry, std::string* line,
                       const char* what) {
  int io_errno = 0;
  const LineRead read =
      read_line_deadline(fd, carry, line, /*timeout_ms=*/0, &io_errno);
  if (read == LineRead::Line) return {};
  if (read == LineRead::Eof) {
    return Status::error("advm.serve-protocol",
                         std::string("daemon closed the connection "
                                     "before sending the ") +
                             what);
  }
  return Status::error("advm.serve-protocol",
                       std::string("reading the ") + what + " failed (" +
                           std::strerror(io_errno) + ")");
}

}  // namespace

Status attach_roundtrip(const std::string& socket_path, const Frame& request,
                        Frame* response) {
  int fd = -1;
  if (Status status = connect_endpoint(socket_path, kConnectTimeoutMs, &fd);
      !status.ok()) {
    return status;
  }
  Status status;
  if (!write_all_fd(fd, encode_frame(request))) {
    const int write_errno = errno;
    status = Status::error("advm.serve-protocol",
                           std::string("request write failed (") +
                               std::strerror(write_errno) + ")");
  }
  std::string carry;
  std::string header;
  if (status.ok()) {
    status = read_frame_line(fd, &carry, &header, "response header");
  }
  Frame decoded;
  if (status.ok()) {
    std::string decode_error;
    const auto frame = decode_frame_header(header, &decode_error);
    if (!frame) {
      status = Status::error("advm.serve-protocol", decode_error);
    } else {
      decoded = *frame;
    }
  }
  if (status.ok()) {
    status = read_frame_line(fd, &carry, &decoded.payload, "response payload");
  }
  ::close(fd);
  if (status.ok()) *response = std::move(decoded);
  return status;
}

}  // namespace advm::core::serve
