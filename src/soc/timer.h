// Compare-match timer with IRQ (trap/interrupt handler tests need a
// periodic source; paper Fig 4 lists "Trap/Interrupt Handlers" as a global
// library).
//
// Register map (word offsets):
//   +0x0 COUNT   up-counter, advances by cycles/prescale; writable
//   +0x4 COMPARE match value
//   +0x8 CTRL    bit0 ENABLE, bit1 IRQ_ENABLE, bit2 AUTO_CLEAR
//   +0xC STATUS  bit0 MATCH (w1c)
#pragma once

#include <cstdint>

#include "sim/bus.h"
#include "soc/irq.h"

namespace advm::soc {

class Timer final : public sim::MmioDevice {
 public:
  static constexpr std::uint32_t kCountOffset = 0x0;
  static constexpr std::uint32_t kCompareOffset = 0x4;
  static constexpr std::uint32_t kCtrlOffset = 0x8;
  static constexpr std::uint32_t kStatusOffset = 0xC;

  static constexpr std::uint32_t kCtrlEnable = 1u << 0;
  static constexpr std::uint32_t kCtrlIrqEnable = 1u << 1;
  static constexpr std::uint32_t kCtrlAutoClear = 1u << 2;

  Timer(std::uint32_t prescale, IrqLines& irqs, std::uint8_t irq_line)
      : prescale_(prescale ? prescale : 1), irqs_(irqs),
        irq_line_(irq_line) {}

  [[nodiscard]] std::string_view name() const override { return "timer"; }
  [[nodiscard]] std::uint32_t size() const override { return 0x10; }

  void tick(std::uint64_t cycles) override;
  [[nodiscard]] bool wants_tick() const override { return true; }

  /// Cycles until the next compare-match IRQ could fire; kNoEventHorizon
  /// when disabled or the IRQ is unarmed (a match then only flips the
  /// STATUS bit, which is observed through MMIO reads — those flush).
  [[nodiscard]] std::uint64_t next_event_horizon() const override;

  /// Register reads have no side effects (STATUS is write-1-clear).
  [[nodiscard]] bool read_is_pure(std::uint32_t) const override {
    return true;
  }
  /// A disabled timer's tick() is a no-op; an enabled one moves COUNT.
  [[nodiscard]] bool quiescent() const override {
    return (ctrl_ & kCtrlEnable) == 0;
  }

  void reset() override {
    count_ = 0;
    compare_ = 0;
    ctrl_ = 0;
    matched_ = false;
    residue_ = 0;
  }

  [[nodiscard]] std::uint32_t count() const { return count_; }
  [[nodiscard]] bool matched() const { return matched_; }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override;
  bool write_reg(std::uint32_t reg, std::uint32_t value) override;

 private:
  std::uint32_t prescale_;
  IrqLines& irqs_;
  std::uint8_t irq_line_;
  std::uint32_t count_ = 0;
  std::uint32_t compare_ = 0;
  std::uint32_t ctrl_ = 0;
  bool matched_ = false;
  std::uint64_t residue_ = 0;  ///< sub-prescale cycle remainder
};

}  // namespace advm::soc
