// Board pool — reuses soc::Board instances across link+run tasks.
//
// Once assembly is cached (the assemble-once pipeline), constructing a
// Board per test run is a fixed cost of the link+run phase: every run
// re-allocates both memories, the NVM array and seven devices. The pool
// keeps reset boards on free lists; a task leases one, runs its test, and
// the lease returns the board — reset to power-on state — when it goes out
// of scope.
//
// Identity: a board is keyed by the *value* of the DerivativeSpec it was
// built from (each Board owns a copy) and its platform — never by the
// address of the caller's spec or the thread that returned it. One mutex
// guards one free list per (spec value, platform), ordered field by field,
// so no digest stands in for the spec. A board is constructed only when
// every pooled board of that value is on lease. Outcome digests are
// therefore identical to per-run construction — regression tests enforce
// it.
//
// Memory: a board's ROM and RAM images come from std::calloc
// (sim::ZeroedBytes), so constructing one maps zero pages without writing
// them and each page faults in on a test's first touch. Returning a board
// clears only the RAM pages the test dirtied and the ROM range it
// programmed, never the whole image.
//
// Free lists are unbounded: every returned board stays pooled until it is
// leased again or the pool is destroyed.
#pragma once

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
};

class BoardPool {
 public:
  BoardPool() = default;
  BoardPool(const BoardPool&) = delete;
  BoardPool& operator=(const BoardPool&) = delete;

  /// RAII lease: the board returns to the pool (reset) on destruction.
  class Lease {
   public:
    Lease(BoardPool* pool, std::unique_ptr<soc::Board> board)
        : pool_(pool), board_(std::move(board)) {}
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (board_) pool_->give_back(std::move(board_));
    }

    [[nodiscard]] soc::Board& board() { return *board_; }

   private:
    BoardPool* pool_;
    std::unique_ptr<soc::Board> board_;
  };

  /// Leases a reset board whose spec equals `spec` on `platform`,
  /// constructing one only when no such board is pooled. The board keeps
  /// its own copy of `spec`.
  [[nodiscard]] Lease acquire(const soc::DerivativeSpec& spec,
                              sim::PlatformKind platform);

  [[nodiscard]] BoardPoolStats stats() const;

 private:
  friend class Lease;

  struct Key {
    soc::DerivativeSpec spec;
    sim::PlatformKind platform;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  void give_back(std::unique_ptr<soc::Board> board);

  mutable std::mutex mutex_;
  std::map<Key, std::vector<std::unique_ptr<soc::Board>>> free_;
  BoardPoolStats stats_;
};

}  // namespace advm::core
