// NVM (flash) controller + memory array (paper Fig 5 names an "NVM Test
// Environment" — chip cards are defined by their non-volatile storage).
//
// The array is read through a separate memory window (word reads like ROM);
// programming goes through the controller's command interface with
// flash-true semantics: program can only clear bits (AND), erase sets a
// whole page to 0xFF, and both take time — the BUSY bit is real, driven by
// tick(). Derivatives change the command opcodes, unlock keys, page size
// and latencies; the ADVM hides all of that behind Base_Nvm_* functions.
//
// Controller register map (word offsets):
//   +0x00 CMD     write nvm_cmd_program / nvm_cmd_erase to launch
//   +0x04 ADDR    byte offset into the array (word-aligned for program)
//   +0x08 DATA    word to program
//   +0x0C STATUS  bit0 BUSY, bit1 LOCKED, bit2 CMD_ERROR (w1c),
//                 bit3 LOCK_ERROR (w1c)
//   +0x10 LOCK    write key1 then key2 to unlock; anything else re-locks
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bus.h"
#include "soc/derivative.h"
#include "soc/irq.h"

namespace advm::soc {

/// The controller. The array window is a separate device (NvmArray) so the
/// two can live at distant bus addresses, as on the real part.
class NvmController final : public sim::MmioDevice {
 public:
  static constexpr std::uint32_t kCmdOffset = 0x00;
  static constexpr std::uint32_t kAddrOffset = 0x04;
  static constexpr std::uint32_t kDataOffset = 0x08;
  static constexpr std::uint32_t kStatusOffset = 0x0C;
  static constexpr std::uint32_t kLockOffset = 0x10;

  static constexpr std::uint32_t kStatusBusy = 1u << 0;
  static constexpr std::uint32_t kStatusLocked = 1u << 1;
  static constexpr std::uint32_t kStatusCmdError = 1u << 2;
  static constexpr std::uint32_t kStatusLockError = 1u << 3;

  /// `spec` must outlive the controller; a Board passes its own copy.
  NvmController(const DerivativeSpec& spec, IrqLines& irqs);

  [[nodiscard]] std::string_view name() const override { return "nvmctrl"; }
  [[nodiscard]] std::uint32_t size() const override { return 0x14; }

  void tick(std::uint64_t cycles) override;
  [[nodiscard]] bool wants_tick() const override { return true; }
  /// A busy program/erase raises the completion IRQ exactly busy_cycles_
  /// from now; idle, tick() can never raise anything.
  [[nodiscard]] std::uint64_t next_event_horizon() const override {
    return busy_cycles_ != 0 ? busy_cycles_ : sim::kNoEventHorizon;
  }
  /// Register reads have no side effects (error bits are write-1-clear).
  [[nodiscard]] bool read_is_pure(std::uint32_t) const override {
    return true;
  }
  /// Idle, tick() changes nothing; busy, it counts down to completion.
  [[nodiscard]] bool quiescent() const override { return !busy(); }
  void reset() override;

  [[nodiscard]] bool busy() const { return busy_cycles_ > 0; }
  [[nodiscard]] bool locked() const { return lock_state_ != LockState::Open; }
  [[nodiscard]] std::uint32_t word_at(std::uint32_t byte_offset) const;
  [[nodiscard]] std::uint64_t programs_done() const { return programs_done_; }
  [[nodiscard]] std::uint64_t erases_done() const { return erases_done_; }

  /// Backdoor for the array window device.
  [[nodiscard]] const std::vector<std::uint8_t>& array() const {
    return array_;
  }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override;
  bool write_reg(std::uint32_t reg, std::uint32_t value) override;

 private:
  enum class LockState { Locked, HalfOpen, Open };
  enum class PendingOp { None, Program, Erase };

  void launch(std::uint32_t cmd);
  void complete();

  const DerivativeSpec& spec_;
  IrqLines& irqs_;
  std::vector<std::uint8_t> array_;
  LockState lock_state_ = LockState::Locked;
  std::uint32_t addr_ = 0;
  std::uint32_t data_ = 0;
  std::uint32_t status_errors_ = 0;
  std::uint64_t busy_cycles_ = 0;
  PendingOp pending_ = PendingOp::None;
  std::uint64_t programs_done_ = 0;
  std::uint64_t erases_done_ = 0;
};

/// Read-only bus window over the controller's array.
class NvmArray final : public sim::BusDevice {
 public:
  explicit NvmArray(const NvmController& ctrl) : ctrl_(ctrl) {}

  [[nodiscard]] std::string_view name() const override { return "nvmarray"; }
  [[nodiscard]] std::uint32_t size() const override {
    return static_cast<std::uint32_t>(ctrl_.array().size());
  }
  bool read8(std::uint32_t offset, std::uint8_t& value) override {
    if (offset >= ctrl_.array().size()) return false;
    value = ctrl_.array()[offset];
    return true;
  }
  bool write8(std::uint32_t, std::uint8_t) override {
    return false;  // writes only via the controller
  }

 private:
  const NvmController& ctrl_;
};

}  // namespace advm::soc
