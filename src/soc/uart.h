// UART with two silicon versions (paper Fig 5 names a "UART Test
// Environment"; derivative churn moves its status bits).
//
// v1 register map (word offsets):
//   +0x0 DATA    write: transmit byte; read: pop receive byte
//   +0x4 STATUS  bit0 TX_READY, bit1 RX_AVAIL
//   +0x8 CTRL    bits[15:0] baud divisor, bit16 LOOPBACK, bit17 RX_IRQ_EN
//
// v2 (FIFO variant, derivatives C/D): same offsets, but STATUS moves the
// flags — bits[3:0] RX_FIFO_LEVEL, bit4 TX_READY, bit5 RX_AVAIL. Test code
// that hardwires v1 bit positions breaks on v2; the ADVM absorbs the move
// with UART_TX_READY_BIT / UART_RX_AVAIL_BIT defines in Globals.inc.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/bus.h"
#include "soc/irq.h"

namespace advm::soc {

class Uart final : public sim::MmioDevice {
 public:
  static constexpr std::uint32_t kDataOffset = 0x0;
  static constexpr std::uint32_t kStatusOffset = 0x4;
  static constexpr std::uint32_t kCtrlOffset = 0x8;

  static constexpr std::uint32_t kCtrlLoopback = 1u << 16;
  static constexpr std::uint32_t kCtrlRxIrqEnable = 1u << 17;

  Uart(int version, IrqLines& irqs, std::uint8_t irq_line);

  [[nodiscard]] std::string_view name() const override { return "uart"; }
  [[nodiscard]] std::uint32_t size() const override { return 0xC; }

  void tick(std::uint64_t cycles) override;
  // Ticking only drains the TX shift register; IRQs are raised from register
  // writes / rx injection, never from tick, so the default infinite
  // next_event_horizon() is correct — even while tick() still flips
  // STATUS.TX_READY, which is why quiescent() exists.
  [[nodiscard]] bool wants_tick() const override { return true; }
  /// STATUS and CTRL reads change nothing; a DATA read pops the RX FIFO.
  [[nodiscard]] bool read_is_pure(std::uint32_t offset) const override {
    return offset == kStatusOffset || offset == kCtrlOffset;
  }
  /// An idle transmitter: tick() has nothing left to count down.
  [[nodiscard]] bool quiescent() const override { return tx_busy_ == 0; }
  void reset() override;

  /// Everything the UART ever transmitted (testbench-side capture).
  [[nodiscard]] const std::string& transmitted() const { return tx_log_; }

  /// Testbench-side injection into the receive path.
  void inject_rx(std::string_view bytes);

  [[nodiscard]] int version() const { return version_; }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override;
  bool write_reg(std::uint32_t reg, std::uint32_t value) override;

 private:
  [[nodiscard]] std::uint32_t status_word() const;
  void maybe_raise_irq();

  int version_;
  IrqLines& irqs_;
  std::uint8_t irq_line_;
  std::uint32_t ctrl_ = 0;
  /// Busy cycles remaining on the transmit shift register; TX_READY is low
  /// while non-zero, so tests must poll STATUS — through the define, not a
  /// hardwired bit.
  std::uint64_t tx_busy_ = 0;
  std::deque<std::uint8_t> rx_fifo_;
  std::string tx_log_;
};

}  // namespace advm::soc
