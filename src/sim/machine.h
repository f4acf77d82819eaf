// The SC88 machine core: fetch / decode / execute, traps and interrupts.
//
// One core implementation serves all six execution platforms — the paper's
// whole premise is that the *same test binary* runs everywhere — while the
// platform layer varies timing model, visibility and checking around it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "isa/instruction.h"
#include "isa/registers.h"
#include "sim/bus.h"
#include "sim/dcache.h"
#include "sim/timing.h"
#include "sim/trace.h"

namespace advm::sim {

/// Publisher of the highest-priority pending IRQ line (0-15); nullopt =
/// nothing pending. An interface instead of a std::function so the
/// between-instruction poll on the hot loop is one virtual call, not a
/// type-erased closure invocation.
class IrqSource {
 public:
  virtual ~IrqSource() = default;
  [[nodiscard]] virtual std::optional<std::uint8_t> pending_irq() const = 0;
};

/// Trap/interrupt vector assignments. The table lives at VTBASE; entry i is
/// the 32-bit handler address at VTBASE + 4*i. A zero entry means "no
/// handler installed" and stops simulation with StopReason::UnhandledTrap.
struct TrapVectors {
  static constexpr std::uint8_t kReset = 0;
  static constexpr std::uint8_t kIllegalInstruction = 1;
  static constexpr std::uint8_t kBusError = 2;
  static constexpr std::uint8_t kDivideByZero = 3;
  static constexpr std::uint8_t kOverflow = 4;
  static constexpr std::uint8_t kSoftwareBase = 8;   ///< TRAP n → 8 + n
  static constexpr std::uint8_t kInterruptBase = 16; ///< IRQ n → 16 + n
  static constexpr std::uint32_t kTableEntries = 32;
};

enum class StopReason {
  Running,        ///< step() only: nothing stopped execution
  Halted,         ///< HALT executed — normal end of a directed test
  Breakpoint,     ///< BREAK executed on a debug-capable platform
  CycleLimit,     ///< instruction budget exhausted (runaway test)
  UnhandledTrap,  ///< trap taken with empty vector entry
  DoubleFault,    ///< fault during trap entry (e.g. bad stack)
};

[[nodiscard]] const char* to_string(StopReason r);

struct RunResult {
  StopReason reason = StopReason::Running;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  /// For UnhandledTrap/DoubleFault: the vector that could not be serviced.
  std::optional<std::uint8_t> fault_vector;
  /// PC where execution stopped.
  std::uint32_t stop_pc = 0;
  /// Stuck-loop fast-forward (decoded arm only; outside every digest):
  /// retired instructions skipped analytically after the loop at
  /// `stuck_pc` was proven a fixed point, and the first device register
  /// that loop read ("uart+0x4"; empty when it read none).
  std::uint64_t fast_forwarded = 0;
  std::uint32_t stuck_pc = 0;
  std::string stuck_poll;
};

struct MachineConfig {
  /// Gate-level platforms flag use of never-written registers
  /// (X-propagation checking).
  bool x_check_registers = false;
  /// Debug-capable platforms stop at BREAK; others execute it as NOP.
  bool break_stops = false;
};

class Machine {
 public:
  Machine(Bus& bus, const TimingModel& timing, MachineConfig config = {});

  /// Puts the core into its power-on state and primes PC/SP/VTBASE.
  void reset(std::uint32_t entry, std::uint32_t stack_top,
             std::uint32_t vtbase);

  /// Runs until HALT, a fault, or `max_instructions` retired.
  RunResult run(std::uint64_t max_instructions);

  /// Executes one instruction (including any trap it raises).
  /// Returns Running while execution can continue.
  StopReason step();

  // Architectural state access (debug port / assertions in tests).
  [[nodiscard]] std::uint32_t d(int i) const {
    return d_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::uint32_t a(int i) const {
    return a_[static_cast<std::size_t>(i)];
  }
  void set_d(int i, std::uint32_t v);
  void set_a(int i, std::uint32_t v);
  [[nodiscard]] std::uint32_t pc() const { return pc_; }
  [[nodiscard]] std::uint32_t psw() const { return psw_; }
  [[nodiscard]] std::uint32_t vtbase() const { return vtbase_; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }

  /// Digest of the architectural register state — used by experiment E4 to
  /// prove platform equivalence.
  [[nodiscard]] std::uint64_t state_digest() const;

  /// Count of x-check violations (reads of never-written registers).
  [[nodiscard]] std::uint64_t x_warnings() const { return x_warnings_; }

  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Value returned by `MFCR rc, COREID` — derivatives report distinct ids.
  void set_core_id(std::uint32_t id) { core_id_ = id; }

  /// The interrupt controller publishes pending IRQs through this hook.
  /// The pointer is borrowed; the source must outlive the machine's runs.
  void set_irq_source(const IrqSource* source) { irq_source_ = source; }

  /// Decoded-execution toggle (on by default). Off = the plain
  /// fetch/decode/execute interpreter with per-instruction device ticking —
  /// the reference arm for differential tests and benches.
  void set_decode_cache_enabled(bool enabled) {
    decode_cache_enabled_ = enabled;
  }
  [[nodiscard]] bool decode_cache_enabled() const {
    return decode_cache_enabled_;
  }

  /// Decode-cache instrumentation (tests assert invalidation behaviour).
  [[nodiscard]] const DecodedCache& decode_cache() const { return dcache_; }

 private:
  enum class ExecStatus { Ok, Trap, Halt, Break };

  ExecStatus execute(const isa::Instruction& instr, bool& taken_branch,
                     std::uint8_t& trap_vector);
  /// Single source of opcode semantics, dispatched by dense handler index
  /// (computed goto on GNU compilers, dense switch otherwise). execute()
  /// and the decoded fast loop both land here.
  ExecStatus execute_handler(std::uint8_t handler,
                             const isa::Instruction& instr,
                             bool& taken_branch, std::uint8_t& trap_vector);

  /// Decoded fast loop: executes from cached slots and batches device
  /// ticks / IRQ polls up to the bus's next-event horizon, and skips proven
  /// stuck loops to the budget. Outcomes are bit-identical to the
  /// per-instruction step() loop.
  RunResult run_decoded(std::uint64_t max_instructions);

  /// Called at the target of a taken backward branch (a batch boundary,
  /// ticks flushed, IRQs polled) with the instruction budget left.
  /// Snapshots this arrival, or — armed — retires whole iterations
  /// analytically if the loop since the snapshot is a proven fixed point
  /// (returning how many instructions it skipped), and backs off otherwise.
  std::uint64_t at_loop_head(std::uint64_t budget);
  /// "uart+0x4": the proven loop's first register read, or empty.
  [[nodiscard]] std::string loop_poll_name() const;

  /// Decoded slot for the instruction at `pc`, or nullptr when the PC is
  /// not inside a direct-bytes window (MMIO-resident code, straddling
  /// fetch) — callers fall back to the byte-composed fetch + decode.
  const DecodedCache::Slot* fetch_slot(std::uint32_t pc);

  /// Routed word access with a cached window for memory-backed devices;
  /// MMIO accesses flush deferred ticks first and end the current batch.
  bool bus_read32(std::uint32_t addr, std::uint32_t& value);
  bool bus_write32(std::uint32_t addr, std::uint32_t value);
  void flush_ticks();

  std::uint32_t read_reg(const isa::RegSpec& r);
  void write_reg(const isa::RegSpec& r, std::uint32_t value);

  /// Resolves the flexible source operand value; false → bus error.
  bool source_value(const isa::Instruction& instr, std::uint32_t& value,
                    std::uint8_t& trap_vector);

  bool mem_read32(std::uint32_t addr, std::uint32_t& value);
  bool mem_write32(std::uint32_t addr, std::uint32_t value);
  bool push32(std::uint32_t value);
  bool pop32(std::uint32_t& value);

  void set_flags_zn(std::uint32_t result);
  void set_flag(std::uint32_t bit, bool on);
  [[nodiscard]] bool flag(std::uint32_t bit) const {
    return (psw_ & bit) != 0;
  }
  [[nodiscard]] bool condition_met(isa::Cond cond) const;

  /// Enters the handler for `vector`. Returns the stop reason: Running if
  /// the handler was entered, UnhandledTrap/DoubleFault otherwise.
  StopReason take_trap(std::uint8_t vector, std::uint32_t return_pc);

  Bus& bus_;
  const TimingModel& timing_;
  MachineConfig config_;

  std::array<std::uint32_t, isa::kNumDataRegs> d_{};
  std::array<std::uint32_t, isa::kNumAddrRegs> a_{};
  std::uint32_t pc_ = 0;
  std::uint32_t psw_ = 0;
  std::uint32_t vtbase_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t instructions_ = 0;

  // X-check bookkeeping.
  std::array<bool, isa::kNumDataRegs> d_written_{};
  std::array<bool, isa::kNumAddrRegs> a_written_{};
  std::uint64_t x_warnings_ = 0;

  std::uint32_t core_id_ = 0;
  std::optional<std::uint8_t> pending_fault_vector_;

  TraceSink* trace_ = nullptr;
  const IrqSource* irq_source_ = nullptr;

  // Decoded-execution state.
  DecodedCache dcache_;
  BusWindow fetch_win_;  ///< cached window containing the last fetch
  BusWindow data_win_;   ///< cached window of the last memory-backed access
  bool decode_cache_enabled_ = true;
  /// Instruction cycles accumulated since the last bus_.tick_all — only
  /// ever non-zero inside run_decoded, which flushes at every batch
  /// boundary and before any MMIO access.
  std::uint64_t pending_tick_cycles_ = 0;
  /// Set by bus_read32/bus_write32 when an access left the memory fast
  /// path — the decoded loop ends its batch after that instruction so
  /// device interactions see per-instruction-equivalent time.
  bool mmio_access_ = false;

  // Stuck-loop proof state (see at_loop_head). The snapshot holds all
  // architectural state one loop iteration could change.
  struct LoopHead {
    std::uint32_t pc = 0;
    std::array<std::uint32_t, isa::kNumDataRegs> d{};
    std::array<std::uint32_t, isa::kNumAddrRegs> a{};
    std::array<bool, isa::kNumDataRegs> d_written{};
    std::array<bool, isa::kNumAddrRegs> a_written{};
    std::uint32_t psw = 0;
    std::uint64_t x_warnings = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
  };
  LoopHead loop_head_;
  bool loop_armed_ = false;  ///< loop_head_ holds a snapshot
  /// Loop heads to pass before the next snapshot, and its doubling cap.
  static constexpr std::uint32_t kMaxLoopBackoff = 63;
  std::uint32_t loop_backoff_ = 0;
  std::uint32_t loop_skip_ = 0;
  /// Set when the code run since the snapshot could behave differently on
  /// a repeat: a bus write, a trap or IRQ entry, ENABLE/MTCR, a CYCLELO
  /// read, a byte-composed fetch, or a device read that is not pure and
  /// quiescent.
  bool loop_dirty_ = false;
  const BusDevice* loop_poll_device_ = nullptr;  ///< first register read
  std::uint32_t loop_poll_offset_ = 0;
};

}  // namespace advm::sim
