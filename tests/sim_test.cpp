// Tests for the simulator core: bus routing, RAM/ROM semantics, machine
// execution of every instruction class, flags, traps, interrupts, timing
// models and platform capability data.
#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "asm/linker.h"
#include "sim/bus.h"
#include "sim/machine.h"
#include "sim/platform.h"
#include "sim/timing.h"
#include "sim/trace.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm::sim;
using advm::support::DiagnosticEngine;
using advm::support::VirtualFileSystem;

// ------------------------------------------------------------------ bus ----

TEST(Bus, MapRejectsOverlap) {
  Bus bus;
  EXPECT_TRUE(bus.map(0x1000, std::make_unique<Ram>("a", 0x100)));
  EXPECT_FALSE(bus.map(0x10FF, std::make_unique<Ram>("b", 0x100)));
  EXPECT_TRUE(bus.map(0x1100, std::make_unique<Ram>("c", 0x100)));
  EXPECT_EQ(bus.device_count(), 2u);
}

TEST(Bus, MapRejectsZeroSizeAndAddressWrap) {
  Bus bus;
  EXPECT_FALSE(bus.map(0x1000, std::make_unique<Ram>("z", 0)));
  EXPECT_FALSE(bus.map(0xFFFF'FFF0, std::make_unique<Ram>("w", 0x100)));
}

TEST(Bus, Read32LittleEndian) {
  Bus bus;
  bus.map(0x0, std::make_unique<Ram>("r", 16));
  ASSERT_TRUE(bus.write8(0, 0x78));
  ASSERT_TRUE(bus.write8(1, 0x56));
  ASSERT_TRUE(bus.write8(2, 0x34));
  ASSERT_TRUE(bus.write8(3, 0x12));
  std::uint32_t v = 0;
  ASSERT_TRUE(bus.read32(0, v));
  EXPECT_EQ(v, 0x1234'5678u);
}

TEST(Bus, UnmappedAccessFails) {
  Bus bus;
  bus.map(0x1000, std::make_unique<Ram>("r", 16));
  std::uint8_t b = 0;
  EXPECT_FALSE(bus.read8(0x0, b));
  EXPECT_FALSE(bus.write8(0x2000, 1));
  std::uint32_t w = 0;
  EXPECT_FALSE(bus.read32(0x100E, w));  // straddles the end of the window
}

TEST(Bus, RomRejectsBusWritesButAllowsProgramBackdoor) {
  Bus bus;
  auto rom = std::make_unique<Rom>("rom", 16);
  Rom* rom_ptr = rom.get();
  bus.map(0x0, std::move(rom));
  EXPECT_FALSE(bus.write8(0, 0xAA));
  const std::uint8_t image[] = {0xAA};
  rom_ptr->program(0, image);
  std::uint8_t b = 0;
  ASSERT_TRUE(bus.read8(0, b));
  EXPECT_EQ(b, 0xAA);
}

TEST(Bus, LoadBytesCrossesWindowsAndUsesRomBackdoor) {
  Bus bus;
  bus.map(0x0, std::make_unique<Rom>("rom", 4));
  bus.map(0x4, std::make_unique<Ram>("ram", 4));
  EXPECT_TRUE(bus.load_bytes(0x2, {1, 2, 3, 4}));
  std::uint8_t b = 0;
  ASSERT_TRUE(bus.read8(0x3, b));
  EXPECT_EQ(b, 2);
  ASSERT_TRUE(bus.read8(0x4, b));
  EXPECT_EQ(b, 3);
  EXPECT_FALSE(bus.load_bytes(0x6, {9, 9, 9}));  // runs off the end
}

TEST(Rom, ProgramAcrossWindowEndWritesOnlyTheBytesThatFit) {
  Rom rom("rom", 8);
  const std::uint8_t image[] = {1, 2, 3, 4, 5};
  rom.program(5, image);
  const std::uint8_t expected[8] = {0, 0, 0, 0, 0, 1, 2, 3};
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rom.direct_bytes()[i], expected[i]) << "byte " << i;
  }
  rom.program(8, image);    // starts at the end: nothing fits
  rom.program(100, image);  // starts past the end
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(rom.direct_bytes()[i], expected[i]) << "byte " << i;
  }
}

TEST(Rom, ResetZeroesExactlyTheProgrammedRange) {
  // The watermark spans every program() since the last reset, clipped to
  // the window: a sanitizer build catches a reset that strays past it.
  Rom rom("rom", 16);
  const std::uint8_t image[] = {0x11, 0x22, 0x33, 0x44};
  rom.program(2, image);
  rom.program(14, image);  // clipped to bytes 14..15
  rom.reset();
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rom.direct_bytes()[i], 0) << "byte " << i;
  }
  // A reset starts a fresh watermark.
  rom.program(9, image);
  rom.reset();
  for (std::uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(rom.direct_bytes()[i], 0) << "byte " << i;
  }
  rom.program(0, image);
  EXPECT_EQ(rom.direct_bytes()[3], 0x44);
}

TEST(Ram, TracksUninitializedReads) {
  Ram ram("r", 8, /*track_init=*/true);
  std::uint8_t v = 0;
  ASSERT_TRUE(ram.read8(0, v));
  EXPECT_EQ(ram.uninitialized_reads(), 1u);
  ASSERT_TRUE(ram.write8(0, 5));
  ASSERT_TRUE(ram.read8(0, v));
  EXPECT_EQ(ram.uninitialized_reads(), 1u);  // now initialised
}

// Memories are calloc-backed and fault their pages in on first touch, so
// these probe every 4KB page of an SC88-D-sized image, not just its ends.
constexpr std::uint32_t kPage = 0x1000;
constexpr std::uint32_t kBigRamSize = 0x0008'0000;  // SC88-D's RAM
constexpr std::uint32_t kBigRomSize = 0x0004'0000;

/// Byte 0, the first byte of every 4KB page and the last byte of `size`.
std::vector<std::uint32_t> page_probes(std::uint32_t size) {
  std::vector<std::uint32_t> probes;
  for (std::uint32_t offset = 0; offset < size; offset += kPage) {
    probes.push_back(offset);
  }
  probes.push_back(size - 1);
  return probes;
}

TEST(Ram, FreshMemoryReadsZeroOnEveryPage) {
  for (const bool track_init : {false, true}) {
    Ram ram("ram", kBigRamSize, track_init);
    ASSERT_EQ(ram.size(), kBigRamSize);
    for (const std::uint32_t offset : page_probes(kBigRamSize)) {
      std::uint8_t b = 0xFF;
      ASSERT_TRUE(ram.read8(offset, b));
      EXPECT_EQ(b, 0) << "offset " << offset << " track " << track_init;
      std::uint32_t w = 0xFFFF'FFFF;
      ASSERT_TRUE(ram.read32(offset & ~3u, w));
      EXPECT_EQ(w, 0u) << "offset " << offset << " track " << track_init;
    }
    std::uint8_t b = 0;
    EXPECT_FALSE(ram.read8(kBigRamSize, b));
  }
}

TEST(Rom, FreshMemoryReadsZeroOnEveryPage) {
  Rom rom("rom", kBigRomSize);
  ASSERT_EQ(rom.size(), kBigRomSize);
  for (const std::uint32_t offset : page_probes(kBigRomSize)) {
    std::uint8_t b = 0xFF;
    ASSERT_TRUE(rom.read8(offset, b));
    EXPECT_EQ(b, 0) << "offset " << offset;
    EXPECT_EQ(rom.direct_bytes()[offset], 0) << "offset " << offset;
  }
  std::uint8_t b = 0;
  EXPECT_FALSE(rom.read8(kBigRomSize, b));
}

TEST(Ram, ResetZeroesEveryTouchedPageAndClearsInitTracking) {
  Ram ram("ram", kBigRamSize, /*track_init=*/true);
  const std::vector<std::uint32_t> probes = page_probes(kBigRamSize);
  for (const std::uint32_t offset : probes) {
    ASSERT_TRUE(ram.write8(offset, 0xA5));
  }
  // Words at the start, straddling a page boundary, and at the very end.
  ASSERT_TRUE(ram.write32(0x10, 0xDEAD'BEEF));
  ASSERT_TRUE(ram.write32(3 * kPage - 2, 0xDEAD'BEEF));
  ASSERT_TRUE(ram.write32(kBigRamSize - 4, 0xDEAD'BEEF));
  std::uint8_t b = 0;
  ASSERT_TRUE(ram.read8(3 * kPage + 1, b));
  EXPECT_EQ(b, 0xDE);
  EXPECT_EQ(ram.uninitialized_reads(), 0u);

  ram.reset();
  EXPECT_EQ(ram.uninitialized_reads(), 0u);
  for (const std::uint32_t offset : probes) {
    ASSERT_TRUE(ram.read8(offset, b));
    EXPECT_EQ(b, 0) << "offset " << offset;
  }
  std::uint32_t w = 0xFFFF'FFFF;
  for (const std::uint32_t offset :
       {0x10u, 3 * kPage - 2, kBigRamSize - 4}) {
    ASSERT_TRUE(ram.read32(offset, w));
    EXPECT_EQ(w, 0u) << "offset " << offset;
  }
  // Every byte read above was written before the reset; each one now
  // counts as never written: one per probe byte, four per word.
  EXPECT_EQ(ram.uninitialized_reads(), probes.size() + 3 * 4);
}

TEST(Rom, ResetZeroesEveryProgrammedPage) {
  Rom rom("rom", kBigRomSize);
  const std::uint8_t image[] = {0x11, 0x22, 0x33, 0x44};
  const std::vector<std::uint32_t> probes = page_probes(kBigRomSize);
  for (const std::uint32_t offset : probes) rom.program(offset, image);
  EXPECT_EQ(rom.direct_bytes()[kBigRomSize - 1], 0x11);
  rom.reset();
  for (const std::uint32_t offset : probes) {
    for (std::uint32_t i = 0; i < 4 && offset + i < kBigRomSize; ++i) {
      EXPECT_EQ(rom.direct_bytes()[offset + i], 0) << "offset " << offset;
    }
  }
}

// --------------------------------------------------------------- machine ---

/// Assembles, links and loads a bare-metal program into a flat RAM board.
class MachineTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRamBase = 0x0;
  static constexpr std::uint32_t kRamSize = 0x10000;
  static constexpr std::uint32_t kVtBase = 0x8000;
  static constexpr std::uint32_t kStackTop = 0x10000;

  MachineTest() {
    bus_.map(kRamBase, std::make_unique<Ram>("ram", kRamSize));
    machine_ = std::make_unique<Machine>(bus_, timing_);
  }

  /// Assembles `source`, links at code base 0x1000, loads, resets.
  void load(std::string_view source) {
    advm::assembler::Assembler assembler(vfs_, diags_, {});
    auto obj = assembler.assemble_source("/test.asm", source);
    ASSERT_TRUE(obj.has_value()) << diags_.to_string();
    std::vector<advm::assembler::ObjectFile> objects{obj->object};
    advm::assembler::LinkOptions lo;
    lo.code_base = 0x1000;
    lo.data_base = 0x4000;
    auto image = advm::assembler::link(objects, lo, diags_);
    ASSERT_TRUE(image.has_value()) << diags_.to_string();
    for (const auto& seg : image->segments) {
      ASSERT_TRUE(bus_.load_bytes(seg.base, seg.bytes));
    }
    machine_->reset(image->entry, kStackTop, kVtBase);
  }

  RunResult run(std::uint64_t max = 100000) { return machine_->run(max); }

  VirtualFileSystem vfs_;
  DiagnosticEngine diags_;
  Bus bus_;
  FunctionalTiming timing_;
  std::unique_ptr<Machine> machine_;
};

TEST_F(MachineTest, HaltStopsExecution) {
  load("_main: HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(r.instructions, 1u);
}

TEST_F(MachineTest, MovAndArithmetic) {
  load(
      "_main:\n"
      " MOV d0, 10\n"
      " MOV d1, 32\n"
      " ADD d2, d0, d1\n"
      " SUB d3, d1, d0\n"
      " MUL d4, d0, 5\n"
      " DIV d5, d1, 4\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(2), 42u);
  EXPECT_EQ(machine_->d(3), 22u);
  EXPECT_EQ(machine_->d(4), 50u);
  EXPECT_EQ(machine_->d(5), 8u);
}

TEST_F(MachineTest, LogicAndShifts) {
  load(
      "_main:\n"
      " MOV d0, 0xF0F0\n"
      " AND d1, d0, 0xFF00\n"
      " OR d2, d0, 0x000F\n"
      " XOR d3, d0, 0xFFFF\n"
      " NOT d4, d0\n"
      " SHL d5, d0, 4\n"
      " SHR d6, d0, 4\n"
      " MOV d7, 0x80000000\n"
      " SAR d8, d7, 31\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 0xF000u);
  EXPECT_EQ(machine_->d(2), 0xF0FFu);
  EXPECT_EQ(machine_->d(3), 0x0F0Fu);
  EXPECT_EQ(machine_->d(4), 0xFFFF0F0Fu);
  EXPECT_EQ(machine_->d(5), 0xF0F00u);
  EXPECT_EQ(machine_->d(6), 0xF0Fu);
  EXPECT_EQ(machine_->d(8), 0xFFFFFFFFu);
}

TEST_F(MachineTest, InsertExtractMatchPaperSemantics) {
  // Fig 6: INSERT d14, d14, page, pos, width — build a control word.
  load(
      "_main:\n"
      " MOV d14, 0xFFFFFF00\n"
      " INSERT d14, d14, 8, 0, 5\n"
      " EXTRACT d3, d14, 0, 5\n"
      " EXTRACT d4, d14, 8, 3\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  // Field [4:0] cleared then set to 8: 0xFFFFFF00 -> 0xFFFFFF08
  EXPECT_EQ(machine_->d(14), 0xFFFFFF08u);
  EXPECT_EQ(machine_->d(3), 8u);
  EXPECT_EQ(machine_->d(4), 0x7u);  // bits [10:8] sit in the 0xFF region
}

TEST_F(MachineTest, LoadStoreAddressingModes) {
  load(
      "_main:\n"
      " MOV d0, 0xCAFE\n"
      " STORE [0x4000], d0\n"
      " LOAD d1, [0x4000]\n"
      " LEA a2, 0x4000\n"
      " LOAD d2, [a2]\n"
      " LOAD d3, [a2 + 0]\n"
      " MOV d4, 0xBEEF\n"
      " STORE [a2 + 4], d4\n"
      " LOAD d5, [0x4004]\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 0xCAFEu);
  EXPECT_EQ(machine_->d(2), 0xCAFEu);
  EXPECT_EQ(machine_->d(3), 0xCAFEu);
  EXPECT_EQ(machine_->d(5), 0xBEEFu);
}

TEST_F(MachineTest, PushPopStackDiscipline) {
  load(
      "_main:\n"
      " MOV d0, 11\n"
      " MOV d1, 22\n"
      " PUSH d0\n"
      " PUSH d1\n"
      " POP d2\n"
      " POP d3\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(2), 22u);
  EXPECT_EQ(machine_->d(3), 11u);
  EXPECT_EQ(machine_->a(10), kStackTop);  // balanced
}

TEST_F(MachineTest, CallReturnNesting) {
  load(
      "_main:\n"
      " CALL outer\n"
      " MOV d0, 99\n"
      " HALT\n"
      "outer:\n"
      " CALL inner\n"
      " ADD d1, d1, 1\n"
      " RETURN\n"
      "inner:\n"
      " MOV d1, 10\n"
      " RETURN\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(0), 99u);
  EXPECT_EQ(machine_->d(1), 11u);
}

TEST_F(MachineTest, ConditionalBranchesAfterCmp) {
  load(
      "_main:\n"
      " MOV d0, 5\n"
      " CMP d0, 5\n"
      " JEQ .eq_taken\n"
      " MOV d1, 0xDEAD\n"
      " HALT\n"
      ".eq_taken:\n"
      " CMP d0, 6\n"
      " JLT .lt_taken\n"
      " MOV d1, 0xDEAD\n"
      " HALT\n"
      ".lt_taken:\n"
      " CMP d0, 4\n"
      " JGE .ge_taken\n"
      " MOV d1, 0xDEAD\n"
      " HALT\n"
      ".ge_taken:\n"
      " MOV d1, 0x600D\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 0x600Du);
}

TEST_F(MachineTest, SignedComparisonAcrossZero) {
  load(
      "_main:\n"
      " MOV d0, 0\n"
      " SUB d0, d0, 5\n"   // d0 = -5
      " CMP d0, 3\n"
      " JLT .good\n"
      " MOV d1, 1\n HALT\n"
      ".good: MOV d1, 2\n HALT\n");
  EXPECT_EQ(run().reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 2u) << "-5 < 3 must hold signed";
}

TEST_F(MachineTest, LoopCountsDown) {
  load(
      "_main:\n"
      " MOV d0, 10\n"
      " MOV d1, 0\n"
      ".loop:\n"
      " ADD d1, d1, d0\n"
      " SUB d0, d0, 1\n"
      " JNZ .loop\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 55u);
}

TEST_F(MachineTest, DivideByZeroTrapsUnhandled) {
  load(
      "_main:\n"
      " MOV d0, 7\n"
      " DIV d1, d0, 0\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::UnhandledTrap);
  ASSERT_TRUE(r.fault_vector.has_value());
  EXPECT_EQ(*r.fault_vector, TrapVectors::kDivideByZero);
}

TEST_F(MachineTest, BusErrorTrapsUnhandled) {
  load(
      "_main:\n"
      " LOAD d0, [0xF0000000]\n"
      " HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, TrapVectors::kBusError);
}

TEST_F(MachineTest, SoftwareTrapWithInstalledHandler) {
  load(
      "VT .EQU 0x8000\n"
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [VT + 4 * 10], d0\n"  // TRAP 2 → vector 8+2 = 10
      " TRAP 2\n"
      " HALT\n"
      "handler:\n"
      " MOV d5, 0x7A4\n"
      " RETI\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(5), 0x7A4u);
}

TEST_F(MachineTest, TrapHandlerReturnsAfterTrapInstruction) {
  load(
      "VT .EQU 0x8000\n"
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [VT + 4 * 8], d0\n"
      " MOV d1, 1\n"
      " TRAP 0\n"
      " ADD d1, d1, 10\n"  // must execute exactly once after RETI
      " HALT\n"
      "handler:\n"
      " ADD d1, d1, 100\n"
      " RETI\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(1), 111u);
}

TEST_F(MachineTest, IllegalCoreRegWriteTraps) {
  load("_main: MTCR COREID, d0\n HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, TrapVectors::kIllegalInstruction);
}

TEST_F(MachineTest, MfcrReadsCoreState) {
  machine_->set_core_id(0x88A0'0001);
  load(
      "_main:\n"
      " MFCR d0, COREID\n"
      " MFCR d1, VTBASE\n"
      " HALT\n");
  machine_->set_core_id(0x88A0'0001);  // reset() cleared regs, not core id
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);
  EXPECT_EQ(machine_->d(0), 0x88A0'0001u);
  EXPECT_EQ(machine_->d(1), kVtBase);
}

TEST_F(MachineTest, CycleLimitStopsRunawayTest) {
  load("_main: JMP _main\n");
  auto r = run(1000);
  EXPECT_EQ(r.reason, StopReason::CycleLimit);
  EXPECT_EQ(r.instructions, 1000u);
}

TEST_F(MachineTest, StateDigestDiffersWhenStateDiffers) {
  load("_main: MOV d0, 1\n HALT\n");
  run();
  auto digest1 = machine_->state_digest();
  load("_main: MOV d0, 2\n HALT\n");
  run();
  EXPECT_NE(digest1, machine_->state_digest());
}

TEST_F(MachineTest, TraceRecordsInstructionsAndMemory) {
  RecordingTrace trace;
  machine_->set_trace(&trace);
  load(
      "_main:\n"
      " MOV d0, 3\n"
      " STORE [0x4000], d0\n"
      " HALT\n");
  run();
  ASSERT_EQ(trace.instrs.size(), 3u);
  EXPECT_EQ(trace.instrs[0].pc, 0x1000u);
  ASSERT_EQ(trace.mems.size(), 1u);
  EXPECT_TRUE(trace.mems[0].is_write);
  EXPECT_EQ(trace.mems[0].addr, 0x4000u);
  EXPECT_EQ(trace.mems[0].value, 3u);
}

TEST_F(MachineTest, BreakStopsOnlyWhenConfigured) {
  load("_main: BREAK\n HALT\n");
  auto r = run();
  EXPECT_EQ(r.reason, StopReason::Halted);  // default config: BREAK = NOP

  MachineConfig config;
  config.break_stops = true;
  Machine debug_machine(bus_, timing_, config);
  debug_machine.reset(0x1000, kStackTop, kVtBase);
  auto r2 = debug_machine.run(100);
  EXPECT_EQ(r2.reason, StopReason::Breakpoint);
}

TEST_F(MachineTest, XCheckCountsUninitializedRegisterReads) {
  MachineConfig config;
  config.x_check_registers = true;
  Machine gate_machine(bus_, timing_, config);
  load("_main: ADD d1, d0, d2\n MOV d3, 1\n ADD d4, d3, 1\n HALT\n");
  gate_machine.reset(0x1000, kStackTop, kVtBase);
  auto r = gate_machine.run(100);
  EXPECT_EQ(r.reason, StopReason::Halted);
  // d0 and d2 were never written before use.
  EXPECT_EQ(gate_machine.x_warnings(), 2u);
}

// ---------------------------------------------------------------- timing ---

TEST(Timing, PipelineChargesMoreThanFunctional) {
  FunctionalTiming functional;
  PipelineTiming pipeline;
  advm::isa::Instruction mul;
  mul.op = advm::isa::Opcode::Mul;
  EXPECT_EQ(functional.instruction_cost(mul, false), 1u);
  EXPECT_GT(pipeline.instruction_cost(mul, false), 1u);

  advm::isa::Instruction jmp;
  jmp.op = advm::isa::Opcode::Jmp;
  EXPECT_GT(pipeline.instruction_cost(jmp, true),
            pipeline.instruction_cost(jmp, false));
}

// -------------------------------------------------------------- platforms --

TEST(Platform, SixPlatformsWithDistinctNames) {
  std::set<std::string_view> names;
  for (auto kind : kAllPlatforms) names.insert(to_string(kind));
  EXPECT_EQ(names.size(), 6u);
}

TEST(Platform, VisibilityOrderingMatchesPaper) {
  // HDL platforms see everything; accelerator and product silicon do not.
  EXPECT_TRUE(platform_caps(PlatformKind::GoldenModel).instruction_trace);
  EXPECT_TRUE(platform_caps(PlatformKind::RtlSim).instruction_trace);
  EXPECT_TRUE(platform_caps(PlatformKind::GateSim).x_checking);
  EXPECT_FALSE(platform_caps(PlatformKind::Accelerator).instruction_trace);
  EXPECT_FALSE(platform_caps(PlatformKind::ProductSilicon).register_access);
  EXPECT_TRUE(platform_caps(PlatformKind::Bondout).register_access);
}

TEST(Platform, ThroughputOrderingMatchesPaper) {
  // silicon ≫ accelerator ≫ RTL ≫ gate; golden model fast.
  auto ips = [](PlatformKind k) { return platform_caps(k).modeled_ips; };
  EXPECT_GT(ips(PlatformKind::ProductSilicon), ips(PlatformKind::Accelerator));
  EXPECT_GT(ips(PlatformKind::Accelerator), ips(PlatformKind::RtlSim));
  EXPECT_GT(ips(PlatformKind::RtlSim), ips(PlatformKind::GateSim));
  EXPECT_GT(ips(PlatformKind::GoldenModel), ips(PlatformKind::RtlSim));
}

}  // namespace
