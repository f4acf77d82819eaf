// Materialisation between the in-memory VFS and the host filesystem.
//
// ADVM environments are built and transformed in a VirtualFileSystem for
// speed and snapshot semantics; real projects keep them on disk under
// revision control (paper §3). These helpers move whole trees across that
// boundary — the CLI's `init`/`run`/`port` commands are disk-first.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "support/vfs.h"

namespace advm::support {

/// Writes every file under `vfs_dir` into `disk_dir` (created as needed),
/// preserving relative paths. Each directory is created once per export,
/// however many files it holds, and each file is written with one call
/// (retried only on EINTR or a short write). Returns the number of files
/// written; throws std::runtime_error on I/O failure.
std::size_t export_to_disk(const VirtualFileSystem& vfs,
                           std::string_view vfs_dir,
                           const std::string& disk_dir);

/// Reads the whole host file at `path`: one read sized from fstat, then
/// one that confirms end of file; EINTR and short reads are retried, and a
/// file that grew since the stat is read to its end. Any open, stat or
/// read failure throws std::runtime_error("cannot read <path>"), so a
/// read never truncates silently.
[[nodiscard]] std::string read_file(const std::string& path);

/// Reads every regular file under `disk_dir` into the VFS below `vfs_dir`.
/// VFS paths are lexical: each is the file's path relative to `disk_dir`
/// as spelled by the walk, with no canonicalisation, so `dir`, `dir/`,
/// `./dir` and `dir/.` import identically and a symlinked file lands at
/// its in-tree path (its target's content), never at the target's path.
/// Each file is read by read_file. Returns the number of files read;
/// throws std::runtime_error if the directory does not exist or a file
/// cannot be read.
std::size_t import_from_disk(VirtualFileSystem& vfs,
                             const std::string& disk_dir,
                             std::string_view vfs_dir);

}  // namespace advm::support
