#include "advm/serve/client.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "advm/serve/endpoint.h"

namespace advm::core::serve {

namespace {

/// Reads one line with the shared poll-deadline reader and maps every
/// non-Line outcome to a typed Status.
Status read_frame_line(int fd, std::string* carry, std::string* line,
                       std::size_t timeout_ms, const char* what) {
  int io_errno = 0;
  switch (read_line_deadline(fd, carry, line, timeout_ms, &io_errno)) {
    case LineRead::Line:
      return {};
    case LineRead::Eof:
      return Status::error("advm.serve-protocol",
                           std::string("daemon closed the connection "
                                       "before sending the ") +
                               what);
    case LineRead::Timeout:
      return Status::error("advm.serve-timeout",
                           std::string("no ") + what + " within " +
                               std::to_string(timeout_ms) + "ms");
    case LineRead::Error:
      return Status::error("advm.serve-protocol",
                           std::string("reading the ") + what +
                               " failed (" + std::strerror(io_errno) +
                               ")");
  }
  return Status::error("advm.serve-protocol", "unreachable");
}

}  // namespace

Status attach_roundtrip(const AttachOptions& options, const Frame& request,
                        Frame* response) {
  int fd = -1;
  if (Status status = connect_endpoint(options.socket_path,
                                       options.connect_timeout_ms, &fd);
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
    status = read_frame_line(fd, &carry, &header, options.read_timeout_ms,
                             "response header");
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
    status = read_frame_line(fd, &carry, &decoded.payload,
                             options.read_timeout_ms, "response payload");
  }
  ::close(fd);
  if (status.ok()) *response = std::move(decoded);
  return status;
}

}  // namespace advm::core::serve
