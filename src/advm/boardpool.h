// Board pool — reuses soc::Board instances across link+run tasks.
//
// Once assembly is cached (the assemble-once pipeline), constructing a
// Board per test run is a fixed cost of the link+run phase: every run
// re-allocates both memories, the NVM array and seven devices. The pool
// keeps reset boards on free lists; a task leases one, runs its test, and
// the lease returns the board — reset to power-on state — when it goes out
// of scope.
//
// Locality: free lists are sharded by the calling thread, so a board
// released by a worker is re-leased by the *same* worker (its memory stays
// in that core's cache) and the hot path never takes a shared lock. A
// thread that has no pooled board for a key constructs one rather than
// stealing from another shard — construction is the cold path by design.
//
// Memory: a board's ROM and RAM images come from std::calloc
// (sim::ZeroedBytes), so constructing one maps zero pages without writing
// them and each page faults in on a test's first touch. Returning a board
// clears only the RAM pages the test dirtied and the ROM range it
// programmed, never the whole image.
//
// Reuse is only sound if the board really is the board the spec describes.
// Keys are (DerivativeSpec address, platform), but a pooled board also
// records a fingerprint over every spec field the Board constructor
// consumed: if the address is reused by a *different* spec (a stack-local
// ported derivative, say), the fingerprint mismatches and the stale board
// is discarded instead of leased, and a returning board evicts every board
// pooled under its key with a different fingerprint. Outcome digests are
// therefore identical to per-run construction by construction — regression
// tests enforce it.
//
// Free lists are unbounded: every returned board stays pooled until it is
// leased again, evicted as stale or the pool is destroyed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/platform.h"
#include "soc/board.h"
#include "soc/derivative.h"

namespace advm::core {

struct BoardPoolStats {
  std::uint64_t constructed = 0;  ///< leases served by building a new board
  std::uint64_t reused = 0;       ///< leases served from a free list
  std::uint64_t discarded = 0;    ///< stale boards dropped (spec changed)
  /// Boards dropped because their (derivative × platform) key went stale
  /// (the spec at that address changed) while they sat on a free list.
  std::uint64_t stale_evicted = 0;
};

/// Fingerprint over every DerivativeSpec field a Board bakes in at
/// construction time (memory map, peripheral windows, field geometry,
/// versions, IRQ lines, core id).
[[nodiscard]] std::uint64_t board_fingerprint(const soc::DerivativeSpec& spec);

class BoardPool {
 public:
  BoardPool() = default;
  BoardPool(const BoardPool&) = delete;
  BoardPool& operator=(const BoardPool&) = delete;

  /// RAII lease: the board returns to the pool (reset) on destruction.
  class Lease {
   public:
    Lease(BoardPool* pool, std::uint64_t fingerprint,
          std::unique_ptr<soc::Board> board)
        : pool_(pool), fingerprint_(fingerprint), board_(std::move(board)) {}
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (board_) pool_->give_back(fingerprint_, std::move(board_));
    }

    [[nodiscard]] soc::Board& board() { return *board_; }

   private:
    BoardPool* pool_;
    std::uint64_t fingerprint_;
    std::unique_ptr<soc::Board> board_;
  };

  /// Leases a reset board for (spec, platform), constructing one only when
  /// the calling thread's shard has no compatible pooled board. `spec`
  /// must stay alive for the lease's lifetime (boards hold it by
  /// reference).
  [[nodiscard]] Lease acquire(const soc::DerivativeSpec& spec,
                              sim::PlatformKind platform);

  [[nodiscard]] BoardPoolStats stats() const;

 private:
  friend class Lease;

  struct Pooled {
    std::uint64_t fingerprint = 0;
    std::unique_ptr<soc::Board> board;
  };
  using Key = std::pair<const soc::DerivativeSpec*, sim::PlatformKind>;

  // One free-list shard per hash bucket of the calling thread's id. The
  // per-shard mutex is effectively uncontended (only thread-id hash
  // collisions share one); it keeps the pool safe for arbitrary callers
  // without putting a shared lock on the worker-pool hot path.
  struct Shard {
    std::mutex mutex;
    std::map<Key, std::vector<Pooled>> free;
  };
  static constexpr std::size_t kShards = 32;

  [[nodiscard]] Shard& shard_for_this_thread();

  void give_back(std::uint64_t fingerprint, std::unique_ptr<soc::Board> board);

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> constructed_{0};
  std::atomic<std::uint64_t> reused_{0};
  std::atomic<std::uint64_t> discarded_{0};
  std::atomic<std::uint64_t> stale_evicted_{0};
};

}  // namespace advm::core
