// Board: a complete SC88 SoC instance on one execution platform.
//
// Assembles bus + memories + peripherals for a derivative, loads a linked
// test image, runs it, and reports the verdict the test wrote to the
// sim-control port. One Board = one (derivative, platform) pair — the unit
// the ADVM regression runner schedules.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "asm/linker.h"
#include "sim/bus.h"
#include "sim/machine.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "soc/intc.h"
#include "soc/irq.h"
#include "soc/nvm.h"
#include "soc/page_module.h"
#include "soc/simctrl.h"
#include "soc/timer.h"
#include "soc/uart.h"

namespace advm::soc {

/// Result of one test execution on one platform.
struct RunOutcome {
  sim::RunResult machine;
  Verdict verdict = Verdict::None;
  std::string console;
  /// Wall-clock this run would take on the real platform, from the modeled
  /// rates (experiment E4's throughput column).
  double modeled_seconds = 0.0;
  /// X-propagation findings (gate-level platform only).
  std::uint64_t x_register_reads = 0;
  std::uint64_t x_ram_reads = 0;

  /// A test passes iff it reported PASS and halted cleanly.
  [[nodiscard]] bool passed() const {
    return verdict == Verdict::Pass &&
           machine.reason == sim::StopReason::Halted;
  }
};

class Board {
 public:
  /// Copies `spec`: the board owns the description it was built from, so
  /// it outlives the caller's object and its identity is the spec's value.
  Board(const DerivativeSpec& spec, sim::PlatformKind platform);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  /// Loads a linked image. Returns false (with `error` filled) if a segment
  /// falls outside mapped memory — which is itself a porting bug worth
  /// reporting.
  [[nodiscard]] bool load(const assembler::Image& image, std::string* error);

  /// Runs to completion or `max_instructions`.
  [[nodiscard]] RunOutcome run(std::uint64_t max_instructions = 2'000'000);

  /// Returns the whole board to its power-on state: every device, both
  /// memories (contents and X-tracking), the IRQ fabric and the core. A
  /// reset board followed by load()+run() behaves byte-for-byte like a
  /// freshly constructed one — the invariant board pooling relies on.
  void reset();

  /// Attaches an instruction/memory trace. Returns false on platforms
  /// without that visibility (accelerator, silicon) — the paper's platform
  /// differences, enforced.
  [[nodiscard]] bool attach_trace(sim::TraceSink* sink);

  /// Debug-port register read; returns false on platforms without register
  /// access.
  [[nodiscard]] bool debug_read_d(int index, std::uint32_t& value) const;

  // Testbench-side device access (the environment around the chip — always
  // available, like a tester board).
  [[nodiscard]] SimControl& simctrl() { return *simctrl_; }
  [[nodiscard]] Uart& uart() { return *uart_; }
  [[nodiscard]] PageModule& page_module() { return *page_module_; }
  [[nodiscard]] NvmController& nvm() { return *nvm_; }
  [[nodiscard]] Timer& timer() { return *timer_; }
  [[nodiscard]] sim::Machine& machine() { return *machine_; }

  [[nodiscard]] const DerivativeSpec& spec() const { return spec_; }
  [[nodiscard]] sim::PlatformKind platform() const { return platform_; }
  [[nodiscard]] const sim::PlatformCaps& caps() const {
    return sim::platform_caps(platform_);
  }

 private:
  DerivativeSpec spec_;
  sim::PlatformKind platform_;
  IrqLines irqs_;
  sim::Bus bus_;
  std::unique_ptr<sim::TimingModel> timing_;
  std::unique_ptr<sim::Machine> machine_;

  // Raw views into bus-owned devices.
  sim::Ram* ram_ = nullptr;
  SimControl* simctrl_ = nullptr;
  Uart* uart_ = nullptr;
  PageModule* page_module_ = nullptr;
  NvmController* nvm_ = nullptr;
  Timer* timer_ = nullptr;
  InterruptController* intc_ = nullptr;

  std::uint32_t entry_ = 0;
};

}  // namespace advm::soc
