#include "advm/boardpool.h"

namespace advm::core {

BoardPool::Lease BoardPool::acquire(const soc::DerivativeSpec& spec,
                                    sim::PlatformKind platform) {
  const Key key{spec, platform};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = free_.find(key);
    if (it != free_.end() && !it->second.empty()) {
      Lease lease(this, std::move(it->second.back()));
      it->second.pop_back();
      ++stats_.reused;
      return lease;
    }
    ++stats_.constructed;
  }
  return Lease(this, std::make_unique<soc::Board>(spec, platform));
}

void BoardPool::give_back(std::unique_ptr<soc::Board> board) {
  board->reset();  // outside the lock: device resets touch memory
  Key key{board->spec(), board->platform()};
  const std::lock_guard<std::mutex> lock(mutex_);
  free_[std::move(key)].push_back(std::move(board));
}

BoardPoolStats BoardPool::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace advm::core
