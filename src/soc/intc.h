// Interrupt controller: masks and prioritises the IRQ fabric for the core.
//
// Register map (word offsets):
//   +0x0 PENDING  raw pending lines (write-1-clear)
//   +0x4 ENABLE   per-line enable mask
//   +0x8 CURRENT  read-only: lowest pending&enabled line, 0xFFFF'FFFF if none
#pragma once

#include <cstdint>
#include <optional>

#include "sim/bus.h"
#include "sim/machine.h"
#include "soc/irq.h"

namespace advm::soc {

class InterruptController final : public sim::MmioDevice,
                                  public sim::IrqSource {
 public:
  static constexpr std::uint32_t kPendingOffset = 0x0;
  static constexpr std::uint32_t kEnableOffset = 0x4;
  static constexpr std::uint32_t kCurrentOffset = 0x8;

  explicit InterruptController(IrqLines& irqs) : irqs_(irqs) {}

  [[nodiscard]] std::string_view name() const override { return "intc"; }
  [[nodiscard]] std::uint32_t size() const override { return 0xC; }

  void reset() override { enable_ = 0; }

  /// Reads have no side effects (PENDING is write-1-clear). The controller
  /// never ticks; its lines move only on a bus write or a peripheral raise,
  /// and the stuck-loop proof bounds raises with Bus::next_event_horizon.
  [[nodiscard]] bool read_is_pure(std::uint32_t) const override {
    return true;
  }
  [[nodiscard]] bool quiescent() const override { return true; }

  /// sim::IrqSource — the machine polls this between instructions.
  [[nodiscard]] std::optional<std::uint8_t> pending_irq() const override {
    return highest_priority();
  }

  /// Lowest pending&enabled line number wins.
  [[nodiscard]] std::optional<std::uint8_t> highest_priority() const {
    const std::uint16_t active = irqs_.pending() & enable_;
    if (active == 0) return std::nullopt;
    for (std::uint8_t line = 0; line < 16; ++line) {
      if (active & (1u << line)) return line;
    }
    return std::nullopt;
  }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override {
    switch (reg) {
      case kPendingOffset:
        value = irqs_.pending();
        return true;
      case kEnableOffset:
        value = enable_;
        return true;
      case kCurrentOffset: {
        auto line = highest_priority();
        value = line ? *line : 0xFFFF'FFFFu;
        return true;
      }
      default:
        return false;
    }
  }

  bool write_reg(std::uint32_t reg, std::uint32_t value) override {
    switch (reg) {
      case kPendingOffset:
        irqs_.clear_mask(static_cast<std::uint16_t>(value));
        return true;
      case kEnableOffset:
        enable_ = static_cast<std::uint16_t>(value);
        return true;
      case kCurrentOffset:
        return true;  // read-only
      default:
        return false;
    }
  }

 private:
  IrqLines& irqs_;
  std::uint16_t enable_ = 0;
};

}  // namespace advm::soc
