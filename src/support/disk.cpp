#include "support/disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

namespace advm::support {

namespace fs = std::filesystem;

namespace {

/// Closes a descriptor on every path out of a read or write.
struct Fd {
  explicit Fd(int descriptor) : fd(descriptor) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
};

/// Writes `content` to `fd` in full, retrying EINTR and short writes.
bool write_all(int fd, const std::string& content) {
  std::size_t done = 0;
  while (done < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + done, content.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Creates the directories of one export under `root`, each once per tree
/// and parents before children; `root` itself (with its ancestors) is made
/// only when a file needs it.
class DirMaker {
 public:
  explicit DirMaker(fs::path root) : root_(std::move(root)) {}

  /// Makes the directory holding `rel`, a path relative to `root`.
  void make_parent_of(const std::string& rel) {
    const std::size_t slash = rel.rfind('/');
    std::string dir = slash == std::string::npos ? "" : rel.substr(0, slash);
    if (!made_.insert(dir).second) return;
    if (dir.empty()) {
      fs::create_directories(root_);
    } else {
      make_parent_of(dir);
      fs::create_directory(root_ / dir);
    }
  }

 private:
  fs::path root_;
  std::unordered_set<std::string> made_;
};

}  // namespace

std::size_t export_to_disk(const VirtualFileSystem& vfs,
                           std::string_view vfs_dir,
                           const std::string& disk_dir) {
  std::string prefix = normalize_path(vfs_dir);
  if (prefix != "/") prefix += '/';

  DirMaker dirs(disk_dir);
  std::size_t written = 0;
  for (const std::string& path : vfs.list_tree(vfs_dir)) {
    const std::string rel = path.substr(prefix.size());
    dirs.make_parent_of(rel);
    const fs::path target = fs::path(disk_dir) / rel;
    const Fd out{
        ::open(target.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666)};
    if (out.fd < 0) {
      throw std::runtime_error("cannot write " + target.string());
    }
    if (!write_all(out.fd, vfs.read_required(path))) {
      throw std::runtime_error("short write to " + target.string());
    }
    ++written;
  }
  return written;
}

std::string read_file(const std::string& path) {
  const auto fail = [&] { throw std::runtime_error("cannot read " + path); };
  const Fd in{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (in.fd < 0) fail();
  struct stat st {};
  if (::fstat(in.fd, &st) != 0) fail();

  // One read of the stat size plus one byte normally returns the whole
  // file; the loop covers EINTR, short reads and a file that grew.
  std::string content(static_cast<std::size_t>(st.st_size) + 1, '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == content.size()) content.resize(2 * content.size());
    const ssize_t n = ::read(in.fd, content.data() + size,
                             content.size() - size);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail();
    }
    if (n == 0) break;
    size += static_cast<std::size_t>(n);
  }
  content.resize(size);
  return content;
}

std::size_t import_from_disk(VirtualFileSystem& vfs,
                             const std::string& disk_dir,
                             std::string_view vfs_dir) {
  const fs::path root(disk_dir);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("no such directory: " + disk_dir);
  }
  std::size_t read_count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        entry.path().lexically_relative(root).generic_string();
    vfs.write(join_path(vfs_dir, rel), read_file(entry.path().string()));
    ++read_count;
  }
  return read_count;
}

}  // namespace advm::support
