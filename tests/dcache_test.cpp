// Differential tests for the decoded-instruction cache and batched-tick
// dispatch: the decoded fast loop must be bit-identical to the plain
// fetch/decode/execute interpreter — digests, cycles, instruction counts,
// x-warnings and traces — across compute, branch, memory and IRQ-driven
// kernels, and self-modifying code must be re-decoded before the next fetch.
// The stuck-loop suite holds the fast-forward to the same standard: it
// must fire on a never-ready poll and stay silent on every loop that only
// looks stuck.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "asm/assembler.h"
#include "asm/linker.h"
#include "isa/opcodes.h"
#include "sim/bus.h"
#include "sim/machine.h"
#include "sim/timing.h"
#include "sim/trace.h"
#include "soc/derivative.h"
#include "soc/intc.h"
#include "soc/irq.h"
#include "soc/nvm.h"
#include "soc/timer.h"
#include "soc/uart.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm::sim;
using advm::soc::InterruptController;
using advm::soc::IrqLines;
using advm::soc::NvmController;
using advm::soc::Timer;
using advm::soc::Uart;
using advm::support::DiagnosticEngine;
using advm::support::VirtualFileSystem;

// The four bench kernels (mirrored by bench/bench_sim_core.cpp), sized down
// so the differential suite stays fast.

constexpr std::string_view kComputeKernel =
    "_main:\n"
    " MOV d0, 500\n"
    " MOV d1, 0x1234\n"
    " MOV d2, 0\n"
    ".loop:\n"
    " ADD d2, d2, d1\n"
    " XOR d1, d1, d2\n"
    " SHL d3, d1, 3\n"
    " SHR d4, d2, 2\n"
    " ADD d2, d2, d3\n"
    " SUB d2, d2, d4\n"
    " MUL d5, d1, 3\n"
    " ADD d2, d2, d5\n"
    " SUB d0, d0, 1\n"
    " JNZ .loop\n"
    " HALT\n";

constexpr std::string_view kBranchKernel =
    "_main:\n"
    " MOV d0, 400\n"
    " MOV d1, 0\n"
    " MOV d2, 0\n"
    ".loop:\n"
    " AND d3, d0, 1\n"
    " CMP d3, 0\n"
    " JEQ .even\n"
    " ADD d1, d1, 3\n"
    " JMP .next\n"
    ".even:\n"
    " ADD d2, d2, 5\n"
    ".next:\n"
    " SUB d0, d0, 1\n"
    " JNZ .loop\n"
    " HALT\n";

constexpr std::string_view kMemoryKernel =
    "_main:\n"
    " MOV d0, 64\n"
    " LEA a0, 0x4000\n"
    " MOV d1, 0x11\n"
    ".fill:\n"
    " STORE [a0], d1\n"
    " ADD a0, a0, 4\n"
    " ADD d1, d1, 7\n"
    " SUB d0, d0, 1\n"
    " JNZ .fill\n"
    " MOV d0, 64\n"
    " LEA a0, 0x4000\n"
    " MOV d2, 0\n"
    ".sum:\n"
    " LOAD d3, [a0]\n"
    " ADD d2, d2, d3\n"
    " ADD a0, a0, 4\n"
    " SUB d0, d0, 1\n"
    " JNZ .sum\n"
    " HALT\n";

// Timer at 0x20000, INTC at 0x30000 (see IrqRig below); line 3 -> vector 19.
constexpr std::string_view kIrqKernel =
    "_main:\n"
    " LOAD d0, handler\n"
    " STORE [0x8000 + 4 * 19], d0\n"
    " MOV d0, 60\n"
    " STORE [0x20004], d0\n"
    " MOV d0, 7\n"
    " STORE [0x20008], d0\n"
    " MOV d0, 8\n"
    " STORE [0x30004], d0\n"
    " MOV d5, 0\n"
    " MOV d6, 0\n"
    " ENABLE\n"
    ".wait:\n"
    " ADD d6, d6, 1\n"
    " CMP d5, 8\n"
    " JLT .wait\n"
    " HALT\n"
    "handler:\n"
    " ADD d5, d5, 1\n"
    " MOV d0, 8\n"
    " STORE [0x30000], d0\n"
    " MOV d0, 1\n"
    " STORE [0x2000C], d0\n"
    " RETI\n";

/// Everything the decoded loop promises to keep bit-identical.
struct Outcome {
  RunResult result;
  std::uint64_t digest = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t x_warnings = 0;
};

/// A fresh flat-RAM board per arm: bus, machine and kernel loader. The
/// rigs below add their peripherals and timing model.
class RigBase {
 public:
  static constexpr std::uint32_t kRamSize = 0x10000;
  static constexpr std::uint32_t kVtBase = 0x8000;
  static constexpr std::uint32_t kStackTop = 0x10000;

  void load(std::string_view source) {
    VirtualFileSystem vfs;
    DiagnosticEngine diags;
    advm::assembler::Assembler assembler(vfs, diags, {});
    auto obj = assembler.assemble_source("/kernel.asm", source);
    ASSERT_TRUE(obj.has_value()) << diags.to_string();
    std::vector<advm::assembler::ObjectFile> objects{obj->object};
    advm::assembler::LinkOptions lo;
    lo.code_base = 0x1000;
    lo.data_base = 0x4000;
    auto image = advm::assembler::link(objects, lo, diags);
    ASSERT_TRUE(image.has_value()) << diags.to_string();
    for (const auto& seg : image->segments) {
      ASSERT_TRUE(bus_.load_bytes(seg.base, seg.bytes));
    }
    machine_->reset(image->entry, kStackTop, kVtBase);
  }

  Outcome run(std::uint64_t max = 100000) {
    Outcome o;
    o.result = machine_->run(max);
    o.digest = machine_->state_digest();
    o.cycles = machine_->cycles();
    o.instructions = machine_->instructions();
    o.x_warnings = machine_->x_warnings();
    return o;
  }

  Machine& machine() { return *machine_; }

 protected:
  RigBase() { bus_.map(0x0, std::make_unique<Ram>("ram", kRamSize)); }

  void make_machine(std::unique_ptr<TimingModel> timing,
                    MachineConfig config) {
    timing_ = std::move(timing);
    machine_ = std::make_unique<Machine>(bus_, *timing_, config);
  }

  IrqLines irqs_;
  Bus bus_;

 private:
  std::unique_ptr<TimingModel> timing_;
  std::unique_ptr<Machine> machine_;
};

/// Plain RAM — plus, optionally, a timer + interrupt controller so the IRQ
/// kernel exercises the batched-tick horizon.
class Rig : public RigBase {
 public:
  static constexpr std::uint32_t kTimerBase = 0x20000;
  static constexpr std::uint32_t kIntcBase = 0x30000;

  explicit Rig(bool with_irq_fabric, MachineConfig config = {}) {
    make_machine(std::make_unique<FunctionalTiming>(), config);
    if (with_irq_fabric) {
      bus_.map(kTimerBase,
               std::make_unique<Timer>(/*prescale=*/4, irqs_, /*line=*/3));
      auto intc = std::make_unique<InterruptController>(irqs_);
      machine().set_irq_source(intc.get());
      bus_.map(kIntcBase, std::move(intc));
    }
  }
};

void expect_identical(const Outcome& decoded, const Outcome& interp) {
  EXPECT_EQ(decoded.result.reason, interp.result.reason);
  EXPECT_EQ(decoded.result.instructions, interp.result.instructions);
  EXPECT_EQ(decoded.result.cycles, interp.result.cycles);
  EXPECT_EQ(decoded.result.stop_pc, interp.result.stop_pc);
  EXPECT_EQ(decoded.result.fault_vector, interp.result.fault_vector);
  EXPECT_EQ(decoded.digest, interp.digest);
  EXPECT_EQ(decoded.cycles, interp.cycles);
  EXPECT_EQ(decoded.instructions, interp.instructions);
  EXPECT_EQ(decoded.x_warnings, interp.x_warnings);
}

class DifferentialKernel : public ::testing::Test {
 protected:
  void run_both(std::string_view source, bool with_irq_fabric,
                MachineConfig config = {}) {
    Rig decoded(with_irq_fabric, config);
    decoded.machine().set_decode_cache_enabled(true);
    decoded.load(source);
    if (::testing::Test::HasFatalFailure()) return;
    Rig interp(with_irq_fabric, config);
    interp.machine().set_decode_cache_enabled(false);
    interp.load(source);
    if (::testing::Test::HasFatalFailure()) return;
    Outcome d = decoded.run();
    Outcome i = interp.run();
    EXPECT_EQ(d.result.reason, StopReason::Halted);
    expect_identical(d, i);
  }
};

TEST_F(DifferentialKernel, Compute) { run_both(kComputeKernel, false); }
TEST_F(DifferentialKernel, Branch) { run_both(kBranchKernel, false); }
TEST_F(DifferentialKernel, Memory) { run_both(kMemoryKernel, false); }
TEST_F(DifferentialKernel, IrqDriven) { run_both(kIrqKernel, true); }

TEST_F(DifferentialKernel, XWarningsMatchUnderXChecking) {
  MachineConfig config;
  config.x_check_registers = true;
  // d4/d5/d9 never written: three x-warnings on both arms.
  constexpr std::string_view source =
      "_main:\n"
      " ADD d1, d4, d5\n"
      " MOV d2, d9\n"
      " HALT\n";
  Rig decoded(false, config);
  decoded.machine().set_decode_cache_enabled(true);
  decoded.load(source);
  Rig interp(false, config);
  interp.machine().set_decode_cache_enabled(false);
  interp.load(source);
  Outcome d = decoded.run();
  Outcome i = interp.run();
  EXPECT_EQ(d.x_warnings, 3u);
  expect_identical(d, i);
}

TEST_F(DifferentialKernel, TracesByteIdenticalWithSinkAttached) {
  // A trace sink forces per-instruction ticking on both arms; every event
  // stream field must match, not just the end state.
  for (std::string_view source :
       {kComputeKernel, kBranchKernel, kMemoryKernel}) {
    Rig decoded(false);
    decoded.machine().set_decode_cache_enabled(true);
    RecordingTrace dt;
    decoded.machine().set_trace(&dt);
    decoded.load(source);
    Rig interp(false);
    interp.machine().set_decode_cache_enabled(false);
    RecordingTrace it;
    interp.machine().set_trace(&it);
    interp.load(source);
    Outcome d = decoded.run();
    Outcome i = interp.run();
    expect_identical(d, i);
    ASSERT_EQ(dt.instrs.size(), it.instrs.size());
    for (std::size_t k = 0; k < dt.instrs.size(); ++k) {
      EXPECT_EQ(dt.instrs[k].cycle, it.instrs[k].cycle);
      EXPECT_EQ(dt.instrs[k].pc, it.instrs[k].pc);
      EXPECT_EQ(dt.instrs[k].instr, it.instrs[k].instr);
    }
    ASSERT_EQ(dt.mems.size(), it.mems.size());
    for (std::size_t k = 0; k < dt.mems.size(); ++k) {
      EXPECT_EQ(dt.mems[k].cycle, it.mems[k].cycle);
      EXPECT_EQ(dt.mems[k].addr, it.mems[k].addr);
      EXPECT_EQ(dt.mems[k].value, it.mems[k].value);
      EXPECT_EQ(dt.mems[k].is_write, it.mems[k].is_write);
    }
    ASSERT_EQ(dt.traps.size(), it.traps.size());
    for (std::size_t k = 0; k < dt.traps.size(); ++k) {
      EXPECT_EQ(dt.traps[k].cycle, it.traps[k].cycle);
      EXPECT_EQ(dt.traps[k].vector, it.traps[k].vector);
    }
  }
}

TEST_F(DifferentialKernel, UnhandledTrapOutcomeMatches) {
  constexpr std::string_view source =
      "_main:\n"
      " MOV d0, 7\n"
      " DIV d1, d0, 0\n"
      " HALT\n";
  Rig decoded(false);
  decoded.machine().set_decode_cache_enabled(true);
  decoded.load(source);
  Rig interp(false);
  interp.machine().set_decode_cache_enabled(false);
  interp.load(source);
  Outcome d = decoded.run();
  Outcome i = interp.run();
  EXPECT_EQ(d.result.reason, StopReason::UnhandledTrap);
  ASSERT_TRUE(d.result.fault_vector.has_value());
  EXPECT_EQ(*d.result.fault_vector, TrapVectors::kDivideByZero);
  expect_identical(d, i);
}

TEST_F(DifferentialKernel, CycleLimitOutcomeMatches) {
  constexpr std::string_view source = "_main:\n.spin: JMP .spin\n";
  Rig decoded(false);
  decoded.machine().set_decode_cache_enabled(true);
  decoded.load(source);
  Rig interp(false);
  interp.machine().set_decode_cache_enabled(false);
  interp.load(source);
  Outcome d = decoded.run(777);
  Outcome i = interp.run(777);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_EQ(d.result.instructions, 777u);
  EXPECT_GT(d.result.fast_forwarded, 0u) << "a bare spin is a fixed point";
  EXPECT_EQ(i.result.fast_forwarded, 0u) << "the interpreter never skips";
  expect_identical(d, i);
}

// ---------------------------------------- stuck-loop fast-forward soundness --

/// A board-like rig for the stuck-loop proof: RAM plus one of each polled
/// peripheral — v2 UART at 0x20000, timer at 0x21000 (IRQ 3), NVM
/// controller at 0x22000, INTC at 0x23000 — and an optional custom IRQ
/// source. Each kernel below runs on both arms; only the decoded arm may
/// fast-forward.
class SocRig : public RigBase {
 public:
  SocRig(bool decoded, const advm::soc::DerivativeSpec& nvm_spec,
         MachineConfig config, bool pipeline_timing,
         const IrqSource* irq_source) {
    if (pipeline_timing) {
      make_machine(std::make_unique<PipelineTiming>(), config);
    } else {
      make_machine(std::make_unique<FunctionalTiming>(), config);
    }
    bus_.map(0x20000, std::make_unique<Uart>(/*version=*/2, irqs_, 2));
    bus_.map(0x21000, std::make_unique<Timer>(/*prescale=*/1, irqs_, 3));
    bus_.map(0x22000, std::make_unique<NvmController>(nvm_spec, irqs_));
    auto intc = std::make_unique<InterruptController>(irqs_);
    machine().set_irq_source(irq_source != nullptr ? irq_source
                                                   : intc.get());
    bus_.map(0x23000, std::move(intc));
    machine().set_decode_cache_enabled(decoded);
  }
};

class StuckLoop : public ::testing::Test {
 protected:
  /// Runs `source` on both arms (functional and pipeline timing) and
  /// returns the decoded arm's outcome under functional timing after
  /// checking every arm pair agrees exactly.
  Outcome run_both(std::string_view source, std::uint64_t max,
                   MachineConfig config = {},
                   const IrqSource* irq_source = nullptr) {
    Outcome functional;
    for (const bool pipeline : {false, true}) {
      SocRig decoded(true, nvm_spec_, config, pipeline, irq_source);
      decoded.load(source);
      SocRig interp(false, nvm_spec_, config, pipeline, irq_source);
      interp.load(source);
      if (::testing::Test::HasFatalFailure()) return {};
      const Outcome d = decoded.run(max);
      const Outcome i = interp.run(max);
      SCOPED_TRACE(pipeline ? "pipeline timing" : "functional timing");
      expect_identical(d, i);
      EXPECT_EQ(i.result.fast_forwarded, 0u) << "the interpreter never skips";
      if (!pipeline) functional = d;
    }
    return functional;
  }

  advm::soc::DerivativeSpec nvm_spec_ = [] {
    advm::soc::DerivativeSpec spec;
    spec.nvm_program_latency = 400;  // dozens of identical poll iterations
    return spec;
  }();
};

TEST_F(StuckLoop, FiresOnV2UartPolledAtTheV1TxBit) {
  // cube-hung's shape: an un-ported wait loop tests bit 0 of a v2 STATUS
  // word whose TX_READY moved to bit 4. The idle transmitter is quiescent,
  // STATUS reads are pure, nothing is written: a proven fixed point.
  const Outcome d = run_both(
      "_main:\n"
      ".wait_tx:\n"
      " LOAD d2, [0x20004]\n"
      " EXTRACT d2, d2, 0, 1\n"
      " CMP d2, 1\n"
      " JNE .wait_tx\n"
      " STORE [0x20000], d4\n"
      " HALT\n",
      2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_GT(d.result.fast_forwarded, 1'900'000u);
  EXPECT_EQ(d.result.stuck_pc, 0x1000u);
  EXPECT_EQ(d.result.stuck_poll, "uart+0x4");
}

TEST_F(StuckLoop, SilentOnABusyTransmitterPollThatCompletes) {
  // Divisor 100 keeps tx_busy_ at 808 cycles: STATUS reads are pure and no
  // IRQ is ever due (next_event_horizon() is infinite), yet STATUS changes
  // under tick(). Only the quiescence condition keeps this from being
  // "proven" stuck.
  const Outcome d = run_both(
      "_main:\n"
      " MOV d0, 100\n"
      " STORE [0x20008], d0\n"
      " MOV d4, 0x41\n"
      " STORE [0x20000], d4\n"
      ".wait_tx:\n"
      " LOAD d2, [0x20004]\n"
      " EXTRACT d2, d2, 4, 1\n"
      " CMP d2, 1\n"
      " JNE .wait_tx\n"
      " HALT\n",
      2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::Halted);
  EXPECT_GT(d.instructions, 400u) << "the poll must actually spin";
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnAnNvmBusyWaitThatCompletes) {
  const advm::soc::DerivativeSpec& s = nvm_spec_;
  const std::string source =
      "_main:\n"
      " MOV d0, " + std::to_string(s.nvm_key1) + "\n"
      " STORE [0x22010], d0\n"
      " MOV d0, " + std::to_string(s.nvm_key2) + "\n"
      " STORE [0x22010], d0\n"
      " MOV d0, 8\n"
      " STORE [0x22004], d0\n"
      " MOV d0, 0x12345678\n"
      " STORE [0x22008], d0\n"
      " MOV d0, " + std::to_string(s.nvm_cmd_program) + "\n"
      " STORE [0x22000], d0\n"
      ".busy:\n"
      " LOAD d1, [0x2200C]\n"
      " AND d1, d1, 1\n"
      " JNZ .busy\n"
      " HALT\n";
  const Outcome d = run_both(source, 2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::Halted);
  EXPECT_GT(d.instructions, 100u) << "the busy-wait must actually spin";
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnAnEnabledTimerWhoseCountIsPolled) {
  // COUNT >> 16 stays 0 for 65536 cycles, so the registers repeat exactly
  // across thousands of iterations while the enabled timer counts.
  const Outcome d = run_both(
      "_main:\n"
      " MOV d0, 1\n"
      " STORE [0x21008], d0\n"
      ".poll:\n"
      " LOAD d1, [0x21000]\n"
      " SHR d1, d1, 16\n"
      " CMP d1, 1\n"
      " JNE .poll\n"
      " HALT\n",
      2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::Halted);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnALoopThatReadsASideEffectingRegister) {
  // An RX poll on DATA: a read pops the FIFO, so it is never pure, even
  // while the empty FIFO keeps returning 0.
  const Outcome d = run_both(
      "_main:\n"
      ".rx:\n"
      " LOAD d2, [0x20000]\n"
      " CMP d2, 0x41\n"
      " JNE .rx\n"
      " HALT\n",
      50'000);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnALoopThatReadsCycleLo) {
  const Outcome d = run_both(
      "_main:\n"
      ".spin:\n"
      " MFCR d1, CYCLELO\n"
      " SHR d1, d1, 12\n"
      " CMP d1, 1\n"
      " JNE .spin\n"
      " HALT\n",
      2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::Halted);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnALoopWithAStoreInItsBody) {
  const Outcome d = run_both(
      "_main:\n"
      " MOV d1, 7\n"
      ".spin:\n"
      " STORE [0x4000], d1\n"
      " JMP .spin\n",
      50'000);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnAnXCheckLoopReadingANeverWrittenRegister) {
  MachineConfig config;
  config.x_check_registers = true;
  const Outcome d = run_both(
      "_main:\n"
      ".spin:\n"
      " MOV d1, d9\n"
      " JMP .spin\n",
      50'000, config);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_EQ(d.x_warnings, 25'000u);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentWhenAnIrqFallsDueInsideTheBudget) {
  // The never-ready poll again, but an armed timer raises IRQ 3 after 5000
  // cycles and its handler halts: the skip would jump past the IRQ, so the
  // event horizon must veto it.
  const Outcome d = run_both(
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [0x8000 + 4 * 19], d0\n"
      " MOV d0, 5000\n"
      " STORE [0x21004], d0\n"
      " MOV d0, 3\n"
      " STORE [0x21008], d0\n"
      " MOV d0, 8\n"
      " STORE [0x23004], d0\n"
      " ENABLE\n"
      ".wait_tx:\n"
      " LOAD d2, [0x20004]\n"
      " EXTRACT d2, d2, 0, 1\n"
      " CMP d2, 1\n"
      " JNE .wait_tx\n"
      " HALT\n"
      "handler:\n"
      " MOV d7, 1\n"
      " HALT\n",
      2'000'000);
  EXPECT_EQ(d.result.reason, StopReason::Halted);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

TEST_F(StuckLoop, SilentOnAnUnclearedInterruptLivelock) {
  // property_test's UnclearedInterruptLivelockHitsCycleLimit: the spin
  // looks like a fixed point, but every iteration enters the handler.
  struct AlwaysLine0 final : IrqSource {
    [[nodiscard]] std::optional<std::uint8_t> pending_irq() const override {
      return std::uint8_t{0};
    }
  };
  static const AlwaysLine0 always_pending;
  const Outcome d = run_both(
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [0x7000 + 4 * 16], d0\n"
      " MOV d1, 0x7000\n"
      " MTCR VTBASE, d1\n"
      " ENABLE\n"
      ".spin: JMP .spin\n"
      "handler:\n"
      " RETI\n",
      5000, {}, &always_pending);
  EXPECT_EQ(d.result.reason, StopReason::CycleLimit);
  EXPECT_EQ(d.result.fast_forwarded, 0u);
}

// ------------------------------------------------- self-modifying code ----

TEST(SelfModifyingCode, StoreIntoCodeInvalidatesDecodedPage) {
  // Patches the imm32 of "MOV d6, 100" (bytes 8-11 of the instruction at
  // `stamp`) between two calls; the generation bump from Ram::write32 must
  // force a re-decode before the second call fetches the slot.
  constexpr std::string_view source =
      "_main:\n"
      " CALL stamp\n"
      " MOV d7, d6\n"
      " MOV d1, 200\n"
      " STORE [stamp + 8], d1\n"
      " CALL stamp\n"
      " HALT\n"
      "stamp:\n"
      " MOV d6, 100\n"
      " RETURN\n";
  Rig rig(false);
  rig.machine().set_decode_cache_enabled(true);
  rig.load(source);
  Outcome o = rig.run();
  EXPECT_EQ(o.result.reason, StopReason::Halted);
  EXPECT_EQ(rig.machine().d(7), 100u) << "first call must see the old imm";
  EXPECT_EQ(rig.machine().d(6), 200u) << "second call must see the patch";
  EXPECT_GT(rig.machine().decode_cache().invalidations(), 0u);

  // And the interpreter arm agrees on the architectural outcome.
  Rig interp(false);
  interp.machine().set_decode_cache_enabled(false);
  interp.load(source);
  Outcome i = interp.run();
  expect_identical(o, i);
}

TEST(SelfModifyingCode, HotLoopDecodesEachSlotOnce) {
  Rig rig(false);
  rig.machine().set_decode_cache_enabled(true);
  rig.load(kComputeKernel);
  Outcome o = rig.run();
  EXPECT_EQ(o.result.reason, StopReason::Halted);
  EXPECT_GT(o.instructions, 4000u);
  // 14 static instructions; each decoded once despite thousands of fetches.
  EXPECT_LE(rig.machine().decode_cache().decodes(), 16u);
}

// ----------------------------------------------------- bus + device unit ---

TEST(BusWindows, SpanningRead32FaultClearsOutParam) {
  Bus bus;
  bus.map(0x1000, std::make_unique<Ram>("tiny", 2));
  std::uint32_t v = 0xDEADBEEF;
  EXPECT_FALSE(bus.read32(0x1000, v));  // bytes 2-3 unmapped mid-assembly
  EXPECT_EQ(v, 0u) << "a failed spanning read must not leak partial bytes";
}

TEST(BusWindows, TickAllOnlyVisitsTickingDevices) {
  IrqLines irqs;
  Bus bus;
  bus.map(0x0, std::make_unique<Ram>("ram", 0x100));
  bus.map(0x1000, std::make_unique<Rom>("rom", 0x100));
  EXPECT_EQ(bus.ticking_count(), 0u);
  bus.map(0x2000, std::make_unique<Timer>(1, irqs, 0));
  EXPECT_EQ(bus.ticking_count(), 1u);
}

TEST(BusWindows, DirectBytesExposureMatchesSideEffectFreedom) {
  Ram plain("plain", 16);
  Ram tracked("tracked", 16, /*track_init=*/true);
  Rom rom("rom", 16);
  EXPECT_NE(plain.direct_bytes(), nullptr);
  EXPECT_EQ(tracked.direct_bytes(), nullptr)
      << "uninit-read counting is a read side effect";
  EXPECT_NE(rom.direct_bytes(), nullptr);
}

TEST(BusWindows, GenerationBumpsOnEveryContentChange) {
  Ram ram("ram", 16);
  const auto g0 = ram.generation();
  ASSERT_TRUE(ram.write8(0, 1));
  EXPECT_GT(ram.generation(), g0);
  const auto g1 = ram.generation();
  ASSERT_TRUE(ram.write32(4, 0x01020304));
  EXPECT_GT(ram.generation(), g1);
  const auto g2 = ram.generation();
  ram.reset();
  EXPECT_GT(ram.generation(), g2);

  Rom rom("rom", 16);
  const std::uint8_t image[] = {1, 2, 3};
  const auto r0 = rom.generation();
  rom.program(0, image);
  EXPECT_GT(rom.generation(), r0);
  const auto r1 = rom.generation();
  rom.program(14, image);  // straddles the end of the window
  EXPECT_GT(rom.generation(), r1);
  const auto r2 = rom.generation();
  rom.program(16, image);  // wholly outside: nothing written, still a bump
  EXPECT_GT(rom.generation(), r2);
}

TEST(EventHorizon, TimerReportsCyclesToNextPossibleIrq) {
  IrqLines irqs;
  Timer t(/*prescale=*/4, irqs, 3);
  EXPECT_EQ(t.next_event_horizon(), kNoEventHorizon) << "disabled timer";

  auto write = [&t](std::uint32_t reg, std::uint32_t value) {
    ASSERT_TRUE(t.write32(reg, value));
  };
  write(Timer::kCompareOffset, 5);
  write(Timer::kCtrlOffset, Timer::kCtrlEnable);
  EXPECT_EQ(t.next_event_horizon(), kNoEventHorizon)
      << "match without IRQ_ENABLE only flips STATUS";
  write(Timer::kCtrlOffset, Timer::kCtrlEnable | Timer::kCtrlIrqEnable);
  EXPECT_EQ(t.next_event_horizon(), 20u);  // 5 steps * prescale 4
  t.tick(3);
  EXPECT_EQ(t.next_event_horizon(), 17u);  // 3 cycles of residue
  t.tick(1);                               // count -> 1, residue 0
  EXPECT_EQ(t.next_event_horizon(), 16u);
  // The horizon is never later than the raise itself.
  t.tick(16);
  EXPECT_TRUE(irqs.pending() & (1u << 3));
}

TEST(EventHorizon, BusTakesMinimumAcrossTickingDevices) {
  IrqLines irqs;
  Bus bus;
  bus.map(0x0, std::make_unique<Ram>("ram", 0x100));
  EXPECT_EQ(bus.next_event_horizon(), kNoEventHorizon);
  auto timer = std::make_unique<Timer>(1, irqs, 0);
  Timer* t = timer.get();
  bus.map(0x1000, std::move(timer));
  ASSERT_TRUE(t->write32(Timer::kCompareOffset, 9));
  ASSERT_TRUE(t->write32(Timer::kCtrlOffset,
                         Timer::kCtrlEnable | Timer::kCtrlIrqEnable));
  EXPECT_EQ(bus.next_event_horizon(), 9u);
}

TEST(HandlerTable, DenseIndexMatchesOpcodeTableOrder) {
  const auto& table = advm::isa::opcode_table();
  ASSERT_EQ(table.size(), advm::isa::kNumOpcodes);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(advm::isa::opcode_handler_index(table[i].op), i)
        << advm::isa::to_string(table[i].op);
    EXPECT_EQ(advm::isa::handler_index_for_byte(
                  static_cast<std::uint8_t>(table[i].op)),
              i);
  }
  EXPECT_EQ(advm::isa::handler_index_for_byte(0xEE),
            advm::isa::kIllegalHandler);
}

}  // namespace
