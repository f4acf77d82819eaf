#include "advm/boardpool.h"

#include <functional>
#include <thread>

#include "support/hash.h"

namespace advm::core {

std::uint64_t board_fingerprint(const soc::DerivativeSpec& spec) {
  support::Fnv1a h;
  h.update(spec.name);
  h.update(std::uint64_t{spec.core_id});
  h.update(std::uint64_t{spec.rom_base});
  h.update(std::uint64_t{spec.rom_size});
  h.update(std::uint64_t{spec.ram_base});
  h.update(std::uint64_t{spec.ram_size});
  h.update(std::uint64_t{spec.es_rom_base});
  h.update(std::uint64_t{spec.es_rom_size});
  h.update(std::uint64_t{spec.page_module_base});
  h.update(std::uint64_t{spec.uart_base});
  h.update(std::uint64_t{spec.nvm_ctrl_base});
  h.update(std::uint64_t{spec.timer_base});
  h.update(std::uint64_t{spec.intc_base});
  h.update(std::uint64_t{spec.simctrl_base});
  h.update(std::uint64_t{spec.nvm_mem_base});
  h.update(std::uint64_t{spec.page_field.pos});
  h.update(std::uint64_t{spec.page_field.width});
  h.update(std::uint64_t{spec.page_count});
  h.update(std::uint64_t{static_cast<std::uint32_t>(spec.uart_version)});
  h.update(std::uint64_t{spec.nvm_pages});
  h.update(std::uint64_t{spec.nvm_page_size});
  h.update(std::uint64_t{spec.nvm_cmd_program});
  h.update(std::uint64_t{spec.nvm_cmd_erase});
  h.update(std::uint64_t{spec.nvm_key1});
  h.update(std::uint64_t{spec.nvm_key2});
  h.update(spec.nvm_program_latency);
  h.update(spec.nvm_erase_latency);
  h.update(std::uint64_t{spec.timer_prescale});
  h.update(std::uint64_t{spec.irq_uart});
  h.update(std::uint64_t{spec.irq_timer});
  h.update(std::uint64_t{spec.irq_nvm});
  h.update(std::uint64_t{static_cast<std::uint8_t>(spec.naming)});
  h.update(std::uint64_t{static_cast<std::uint32_t>(spec.es_version)});
  return h.digest();
}

BoardPool::Shard& BoardPool::shard_for_this_thread() {
  const std::size_t bucket =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shards_[bucket];
}

BoardPool::Lease BoardPool::acquire(const soc::DerivativeSpec& spec,
                                    sim::PlatformKind platform) {
  const std::uint64_t fingerprint = board_fingerprint(spec);
  const Key key{&spec, platform};
  Shard& shard = shard_for_this_thread();
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.free.find(key);
    if (it != shard.free.end()) {
      auto& list = it->second;
      while (!list.empty()) {
        Pooled pooled = std::move(list.back());
        list.pop_back();
        if (pooled.fingerprint == fingerprint) {
          reused_.fetch_add(1, std::memory_order_relaxed);
          return Lease(this, fingerprint, std::move(pooled.board));
        }
        // The spec object at this address changed underneath the pool
        // (address reuse): the board was built for a different derivative
        // description and must not be leased.
        discarded_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  constructed_.fetch_add(1, std::memory_order_relaxed);
  return Lease(this, fingerprint,
               std::make_unique<soc::Board>(spec, platform));
}

void BoardPool::give_back(std::uint64_t fingerprint,
                          std::unique_ptr<soc::Board> board) {
  board->reset();  // outside the lock: device resets touch memory
  const Key key{&board->spec(), board->platform()};
  std::vector<Pooled> dropped;  // destroyed outside the lock
  {
    Shard& shard = shard_for_this_thread();
    const std::lock_guard<std::mutex> lock(shard.mutex);
    auto& list = shard.free[key];
    // Eager stale eviction: a returning board proves what the key's
    // fingerprint is *now*; anything pooled under the key with a different
    // fingerprint was built for a spec that no longer lives there and
    // would only be discovered (and discarded) lazily at acquire time.
    for (std::size_t i = 0; i < list.size();) {
      if (list[i].fingerprint != fingerprint) {
        stale_evicted_.fetch_add(1, std::memory_order_relaxed);
        dropped.push_back(std::move(list[i]));
        list[i] = std::move(list.back());
        list.pop_back();
      } else {
        ++i;
      }
    }
    list.push_back(Pooled{fingerprint, std::move(board)});
  }
}

BoardPoolStats BoardPool::stats() const {
  BoardPoolStats s;
  s.constructed = constructed_.load(std::memory_order_relaxed);
  s.reused = reused_.load(std::memory_order_relaxed);
  s.discarded = discarded_.load(std::memory_order_relaxed);
  s.stale_evicted = stale_evicted_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace advm::core
