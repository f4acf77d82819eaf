// Property-based suites and failure injection across the substrate.
//
//  * disassembler round-trip: encode → disassemble → reassemble → identical
//    bytes, swept across the operand space;
//  * ALU flag semantics checked against a 64-bit reference model over a
//    value lattice;
//  * INSERT/EXTRACT algebra: extract-after-insert recovers the field,
//    untouched bits survive, across the full legal (pos,width) lattice;
//  * failure injection: stack underflow/overflow, wild jumps, ROM writes,
//    double faults, interrupt livelock, include-depth bombs — every crash
//    path must end in a *defined* stop reason, never UB.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "advm/environment.h"
#include "advm/regression.h"
#include "asm/assembler.h"
#include "asm/linker.h"
#include "isa/instruction.h"
#include "sim/bus.h"
#include "sim/machine.h"
#include "soc/derivative.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm;
using advm::isa::AddrMode;
using advm::isa::Cond;
using advm::isa::Instruction;
using advm::isa::Opcode;
using advm::isa::RegSpec;
using advm::support::DiagnosticEngine;
using advm::support::VirtualFileSystem;

// ----------------------------------------- disassembler round-trip sweep ---

/// Builds a spread of legal instructions per opcode: several operand
/// assignments each, enough to cover every addressing mode and field shape.
std::vector<Instruction> instruction_space() {
  std::vector<Instruction> out;
  auto add = [&](Instruction i) { out.push_back(i); };

  for (auto op : {Opcode::Nop, Opcode::Halt, Opcode::Return, Opcode::Reti,
                  Opcode::Disable, Opcode::Enable}) {
    Instruction i;
    i.op = op;
    add(i);
  }
  // MOV / LOAD: immediate, register, memory forms.
  for (auto op : {Opcode::Mov, Opcode::Load}) {
    Instruction i;
    i.op = op;
    i.rc = RegSpec::data(3);
    i.mode = AddrMode::Immediate;
    i.imm = 0xDEAD'BEEF;
    add(i);
    i.mode = AddrMode::Register;
    i.rb = RegSpec::data(9);
    i.imm = 0;
    add(i);
    if (op == Opcode::Load) {
      i.mode = AddrMode::Absolute;
      i.rb.reset();
      i.imm = 0xE000'0000;
      add(i);
      i.mode = AddrMode::RegIndirect;
      i.rb = RegSpec::address(4);
      i.imm = 0;
      add(i);
      i.mode = AddrMode::RegIndirectOff;
      i.imm = 0x40;
      add(i);
    }
  }
  // STORE memory forms.
  {
    Instruction i;
    i.op = Opcode::Store;
    i.ra = RegSpec::data(7);
    i.mode = AddrMode::Absolute;
    i.imm = 0x1234;
    add(i);
    i.mode = AddrMode::RegIndirect;
    i.rb = RegSpec::address(10);
    i.imm = 0;
    add(i);
    i.mode = AddrMode::RegIndirectOff;
    i.imm = 8;
    add(i);
  }
  // Three-operand ALU, both source modes.
  for (auto op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                  Opcode::And, Opcode::Or, Opcode::Xor, Opcode::Shl,
                  Opcode::Shr, Opcode::Sar}) {
    Instruction i;
    i.op = op;
    i.rc = RegSpec::data(1);
    i.ra = RegSpec::data(2);
    i.mode = AddrMode::Immediate;
    i.imm = 17;
    add(i);
    i.mode = AddrMode::Register;
    i.rb = RegSpec::data(5);
    i.imm = 0;
    add(i);
  }
  // CMP, NOT, PUSH, POP.
  {
    Instruction i;
    i.op = Opcode::Cmp;
    i.ra = RegSpec::data(0);
    i.mode = AddrMode::Immediate;
    i.imm = 99;
    add(i);
    Instruction n;
    n.op = Opcode::Not;
    n.rc = RegSpec::data(1);
    n.ra = RegSpec::data(2);
    add(n);
    Instruction p;
    p.op = Opcode::Push;
    p.ra = RegSpec::data(4);
    add(p);
    Instruction q;
    q.op = Opcode::Pop;
    q.rc = RegSpec::data(4);
    add(q);
  }
  // INSERT/EXTRACT over a few geometries.
  for (int pos : {0, 1, 5, 27}) {
    Instruction i;
    i.op = Opcode::Insert;
    i.rc = RegSpec::data(14);
    i.ra = RegSpec::data(14);
    i.mode = AddrMode::Immediate;
    i.imm = 8;
    i.pos = static_cast<std::uint8_t>(pos);
    i.width = 5;
    add(i);
    Instruction e;
    e.op = Opcode::Extract;
    e.rc = RegSpec::data(2);
    e.ra = RegSpec::data(14);
    e.pos = static_cast<std::uint8_t>(pos);
    e.width = 5;
    add(e);
  }
  // Branch family: every condition; direct and indirect.
  for (auto cond : {Cond::Always, Cond::Z, Cond::Nz, Cond::C, Cond::Nc,
                    Cond::N, Cond::Nn, Cond::Lt, Cond::Ge}) {
    Instruction i;
    i.op = Opcode::Jmp;
    i.cond = cond;
    i.imm = 0x2000;
    add(i);
  }
  {
    Instruction i;
    i.op = Opcode::Call;
    i.imm = 0x3000;
    add(i);
    i.imm = 0;
    i.rb = RegSpec::address(12);
    add(i);
    Instruction t;
    t.op = Opcode::Trap;
    t.pos = 5;
    add(t);
    Instruction m;
    m.op = Opcode::Mfcr;
    m.rc = RegSpec::data(0);
    m.pos = 0;  // PSW
    add(m);
    Instruction w;
    w.op = Opcode::Mtcr;
    w.ra = RegSpec::data(0);
    w.pos = 1;  // VTBASE
    add(w);
  }
  return out;
}

class DisassemblerRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DisassemblerRoundTrip, ReassemblingDisassemblyReproducesBytes) {
  const Instruction original = instruction_space()[GetParam()];
  auto bytes = isa::encode(original);
  ASSERT_TRUE(bytes.has_value());

  const std::string text = isa::disassemble(original);

  VirtualFileSystem vfs;
  DiagnosticEngine diags;
  assembler::Assembler asm_driver(vfs, diags, {});
  auto result =
      asm_driver.assemble_source("/rt.asm", "_main: " + text + "\n");
  ASSERT_TRUE(result.has_value()) << text << "\n" << diags.to_string();
  ASSERT_EQ(result->object.sections[0].bytes.size(), isa::kInstrBytes)
      << text;

  isa::EncodedInstr reassembled{};
  std::copy_n(result->object.sections[0].bytes.begin(), isa::kInstrBytes,
              reassembled.begin());
  EXPECT_EQ(reassembled, *bytes) << "disassembly was: " << text;
}

INSTANTIATE_TEST_SUITE_P(
    InstructionSpace, DisassemblerRoundTrip,
    ::testing::Range<std::size_t>(0, instruction_space().size()));

// ------------------------------------------------ ALU flag semantics sweep --

struct AluCase {
  std::uint32_t lhs;
  std::uint32_t rhs;
};

class AluFlagsProperty : public ::testing::TestWithParam<AluCase> {
 protected:
  /// Runs `op d2, d0, d1` on a fresh machine with the given inputs and
  /// returns (result, psw).
  std::pair<std::uint32_t, std::uint32_t> run(Opcode op, std::uint32_t lhs,
                                              std::uint32_t rhs) {
    sim::Bus bus;
    bus.map(0, std::make_unique<sim::Ram>("ram", 0x1000));
    sim::FunctionalTiming timing;
    sim::Machine machine(bus, timing);
    machine.reset(0x100, 0x1000, 0x800);

    Instruction i;
    i.op = op;
    i.rc = RegSpec::data(2);
    i.ra = RegSpec::data(0);
    i.mode = AddrMode::Register;
    i.rb = RegSpec::data(1);
    auto word = isa::encode(i);
    std::vector<std::uint8_t> code(word->begin(), word->end());
    auto halt = isa::encode(Instruction{});  // NOP placeholder
    Instruction h;
    h.op = Opcode::Halt;
    halt = isa::encode(h);
    code.insert(code.end(), halt->begin(), halt->end());
    EXPECT_TRUE(bus.load_bytes(0x100, code));

    machine.set_d(0, lhs);
    machine.set_d(1, rhs);
    auto r = machine.run(4);
    EXPECT_EQ(r.reason, sim::StopReason::Halted);
    return {machine.d(2), machine.psw()};
  }
};

TEST_P(AluFlagsProperty, AddMatchesWideReference) {
  const auto [lhs, rhs] = GetParam();
  auto [result, psw] = run(Opcode::Add, lhs, rhs);
  const std::uint64_t wide = static_cast<std::uint64_t>(lhs) + rhs;
  EXPECT_EQ(result, static_cast<std::uint32_t>(wide));
  EXPECT_EQ((psw & isa::Psw::kCarry) != 0, (wide >> 32) != 0);
  EXPECT_EQ((psw & isa::Psw::kZero) != 0,
            static_cast<std::uint32_t>(wide) == 0);
  const bool lhs_neg = (lhs >> 31) != 0;
  const bool rhs_neg = (rhs >> 31) != 0;
  const bool res_neg = (static_cast<std::uint32_t>(wide) >> 31) != 0;
  EXPECT_EQ((psw & isa::Psw::kOverflow) != 0,
            lhs_neg == rhs_neg && res_neg != lhs_neg);
}

TEST_P(AluFlagsProperty, SubMatchesWideReference) {
  const auto [lhs, rhs] = GetParam();
  auto [result, psw] = run(Opcode::Sub, lhs, rhs);
  EXPECT_EQ(result, lhs - rhs);
  EXPECT_EQ((psw & isa::Psw::kCarry) != 0, lhs < rhs);  // borrow
  EXPECT_EQ((psw & isa::Psw::kNegative) != 0, ((lhs - rhs) >> 31) != 0);
}

TEST_P(AluFlagsProperty, CmpSetsSameFlagsAsSub) {
  const auto [lhs, rhs] = GetParam();
  auto [sub_result, sub_psw] = run(Opcode::Sub, lhs, rhs);
  auto [cmp_result, cmp_psw] = run(Opcode::Cmp, lhs, rhs);
  (void)sub_result;
  EXPECT_EQ(cmp_psw, sub_psw);
  EXPECT_EQ(cmp_result, 0u);  // CMP must not write d2
}

INSTANTIATE_TEST_SUITE_P(
    ValueLattice, AluFlagsProperty,
    ::testing::Values(AluCase{0, 0}, AluCase{1, 1}, AluCase{5, 3},
                      AluCase{3, 5}, AluCase{0xFFFF'FFFF, 1},
                      AluCase{0x7FFF'FFFF, 1}, AluCase{0x8000'0000, 1},
                      AluCase{0x8000'0000, 0x8000'0000},
                      AluCase{0x7FFF'FFFF, 0x7FFF'FFFF},
                      AluCase{0xDEAD'BEEF, 0x1234'5678}));

// ---------------------------------------------- INSERT/EXTRACT properties --

class InsertExtractProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(InsertExtractProperty, ExtractAfterInsertRecoversField) {
  const auto [pos, width] = GetParam();

  sim::Bus bus;
  bus.map(0, std::make_unique<sim::Ram>("ram", 0x1000));
  sim::FunctionalTiming timing;
  sim::Machine machine(bus, timing);

  const std::uint32_t base = 0xCAFE'BABE;
  const std::uint32_t value = 0x5555'5555;
  const std::uint32_t mask =
      width >= 32 ? 0xFFFF'FFFFu : ((1u << width) - 1u);

  Instruction ins;
  ins.op = Opcode::Insert;
  ins.rc = RegSpec::data(1);
  ins.ra = RegSpec::data(0);
  ins.mode = AddrMode::Immediate;
  ins.imm = value;
  ins.pos = static_cast<std::uint8_t>(pos);
  ins.width = static_cast<std::uint8_t>(width);
  Instruction ext;
  ext.op = Opcode::Extract;
  ext.rc = RegSpec::data(2);
  ext.ra = RegSpec::data(1);
  ext.pos = ins.pos;
  ext.width = ins.width;
  Instruction halt;
  halt.op = Opcode::Halt;

  std::vector<std::uint8_t> code;
  for (const Instruction& i : {ins, ext, halt}) {
    auto word = isa::encode(i);
    ASSERT_TRUE(word.has_value());
    code.insert(code.end(), word->begin(), word->end());
  }
  ASSERT_TRUE(bus.load_bytes(0x100, code));
  machine.reset(0x100, 0x1000, 0x800);
  machine.set_d(0, base);
  ASSERT_EQ(machine.run(5).reason, sim::StopReason::Halted);

  // Property 1: extract recovers the inserted field.
  EXPECT_EQ(machine.d(2), value & mask);
  // Property 2: bits outside the field are untouched.
  const std::uint32_t field_mask = mask << pos;
  EXPECT_EQ(machine.d(1) & ~field_mask, base & ~field_mask);
  // Property 3: the machine result equals the C++ reference model.
  EXPECT_EQ(machine.d(1),
            (base & ~field_mask) | ((value & mask) << pos));
}

/// The lattice's legal fields: every (position, width) pair with
/// position + width at most 32, so every case it lists runs.
std::vector<std::tuple<int, int>> legal_geometries() {
  std::vector<std::tuple<int, int>> out;
  for (int pos : {0, 1, 4, 7, 15, 27, 31}) {
    for (int width : {1, 2, 5, 6, 8, 16, 32}) {
      if (pos + width <= 32) out.emplace_back(pos, width);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(GeometryLattice, InsertExtractProperty,
                         ::testing::ValuesIn(legal_geometries()));

// ------------------------------------------------------ failure injection --

class FailureInjection : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRamBase = 0x1000;
  static constexpr std::uint32_t kRamSize = 0x8000;

  FailureInjection() {
    bus_.map(kRamBase, std::make_unique<sim::Ram>("ram", kRamSize));
    bus_.map(0xF000'0000, std::make_unique<sim::Rom>("rom", 0x100));
    machine_ = std::make_unique<sim::Machine>(bus_, timing_);
  }

  sim::RunResult run_source(std::string_view source,
                            std::uint64_t max_instr = 200000) {
    DiagnosticEngine diags;
    assembler::Assembler asm_driver(vfs_, diags, {});
    auto obj = asm_driver.assemble_source("/f.asm", source);
    EXPECT_TRUE(obj.has_value()) << diags.to_string();
    std::vector<assembler::ObjectFile> objects{obj->object};
    assembler::LinkOptions lo;
    lo.code_base = kRamBase;
    lo.data_base = kRamBase + 0x4000;
    auto image = assembler::link(objects, lo, diags);
    EXPECT_TRUE(image.has_value()) << diags.to_string();
    for (const auto& seg : image->segments) {
      EXPECT_TRUE(bus_.load_bytes(seg.base, seg.bytes));
    }
    machine_->reset(image->entry, kRamBase + kRamSize,
                    kRamBase + 0x6000);
    return machine_->run(max_instr);
  }

  VirtualFileSystem vfs_;
  sim::Bus bus_;
  sim::FunctionalTiming timing_;
  std::unique_ptr<sim::Machine> machine_;
};

TEST_F(FailureInjection, StackUnderflowIsBusError) {
  // RETURN with an empty stack pops from beyond the RAM window.
  auto r = run_source("_main: RETURN\n");
  EXPECT_EQ(r.reason, sim::StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, sim::TrapVectors::kBusError);
}

TEST_F(FailureInjection, InfiniteRecursionEndsInDefinedFault) {
  // On this flat-RAM board the descending stack ploughs through the vector
  // table and the code itself before leaving the window, so the exact fault
  // sequence is chaotic — but it must end in a *defined* fault stop, never
  // run off or "succeed".
  auto r = run_source("_main: CALL _main\n");
  EXPECT_TRUE(r.reason == sim::StopReason::UnhandledTrap ||
              r.reason == sim::StopReason::DoubleFault)
      << sim::to_string(r.reason);
  EXPECT_TRUE(r.fault_vector.has_value());
}

TEST_F(FailureInjection, RecursionWithRomCodeIsCleanStackOverflow) {
  // With the program counter safe in ROM and the vector table *above* the
  // stack top, the overflow is deterministic: the push below the RAM window
  // bus-errors, and with no handler installed the trap is reported as
  // unhandled (the vector entry is read before the frame push, so this does
  // not escalate to a double fault).
  DiagnosticEngine diags;
  assembler::Assembler asm_driver(vfs_, diags, {});
  auto obj = asm_driver.assemble_source(
      "/r.asm", ".ORG 0xF0000000\n_main: CALL _main\n");
  ASSERT_TRUE(obj.has_value()) << diags.to_string();
  std::vector<assembler::ObjectFile> objects{obj->object};
  auto image = assembler::link(objects, {}, diags);
  ASSERT_TRUE(image.has_value()) << diags.to_string();
  for (const auto& seg : image->segments) {
    ASSERT_TRUE(bus_.load_bytes(seg.base, seg.bytes));
  }
  // Stack starts mid-RAM; vector table sits above it, out of harm's way.
  machine_->reset(image->entry, kRamBase + 0x4000, kRamBase + 0x6000);
  auto r = machine_->run(200000);
  EXPECT_EQ(r.reason, sim::StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, sim::TrapVectors::kBusError);
}

TEST_F(FailureInjection, WildJumpFetchesUnmappedMemory) {
  auto r = run_source("_main: JMP 0xDEAD0000\n");
  EXPECT_EQ(r.reason, sim::StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, sim::TrapVectors::kBusError);
}

TEST_F(FailureInjection, RomWriteIsBusError) {
  auto r = run_source(
      "_main:\n MOV d0, 1\n STORE [0xF0000000], d0\n HALT\n");
  EXPECT_EQ(r.reason, sim::StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, sim::TrapVectors::kBusError);
}

TEST_F(FailureInjection, GarbageExecutionIsIllegalInstruction) {
  // Jump into the data section: zeroed RAM decodes as NOP (opcode 0) — so
  // write a poison word there first and execute it.
  auto r = run_source(
      "_main:\n"
      " MOV d0, 0xEEEEEEEE\n"
      " STORE [0x5000 + 0], d0\n"
      " JMP 0x5000\n");
  EXPECT_EQ(r.reason, sim::StopReason::UnhandledTrap);
  EXPECT_EQ(*r.fault_vector, sim::TrapVectors::kIllegalInstruction);
}

TEST_F(FailureInjection, BadVectorTableDoubleFaults) {
  // Point VTBASE into unmapped space, then trap.
  auto r = run_source(
      "_main:\n"
      " MOV d0, 0xDEAD0000\n"
      " MTCR VTBASE, d0\n"
      " TRAP 1\n");
  EXPECT_EQ(r.reason, sim::StopReason::DoubleFault);
}

TEST_F(FailureInjection, TrapWithBadStackDoubleFaults) {
  // Valid vector table, but SP points at unmapped memory when the trap
  // tries to push the return context.
  auto r = run_source(
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [0x7000 + 4 * 8], d0\n"
      " MOV d1, 0x7000\n"
      " MTCR VTBASE, d1\n"
      " LEA a10, 0xDEAD0000\n"
      " TRAP 0\n"
      "handler:\n"
      " RETI\n");
  EXPECT_EQ(r.reason, sim::StopReason::DoubleFault);
}

TEST_F(FailureInjection, UnclearedInterruptLivelockHitsCycleLimit) {
  // A level-sensitive IRQ whose handler never clears the line re-enters
  // forever after each RETI; the instruction budget must stop it.
  sim::Bus bus;
  bus.map(kRamBase, std::make_unique<sim::Ram>("ram", kRamSize));
  sim::Machine machine(bus, timing_);
  struct AlwaysLine0 final : sim::IrqSource {
    [[nodiscard]] std::optional<std::uint8_t> pending_irq() const override {
      return std::uint8_t{0};
    }
  };
  static const AlwaysLine0 always_pending;
  machine.set_irq_source(&always_pending);

  DiagnosticEngine diags;
  assembler::Assembler asm_driver(vfs_, diags, {});
  auto obj = asm_driver.assemble_source(
      "/l.asm",
      "_main:\n"
      " LOAD d0, handler\n"
      " STORE [0x7000 + 4 * 16], d0\n"
      " MOV d1, 0x7000\n"
      " MTCR VTBASE, d1\n"
      " ENABLE\n"
      ".spin: JMP .spin\n"
      "handler:\n"
      " RETI\n");
  ASSERT_TRUE(obj.has_value()) << diags.to_string();
  std::vector<assembler::ObjectFile> objects{obj->object};
  assembler::LinkOptions lo;
  lo.code_base = kRamBase;
  auto image = assembler::link(objects, lo, diags);
  ASSERT_TRUE(image.has_value());
  for (const auto& seg : image->segments) {
    ASSERT_TRUE(bus.load_bytes(seg.base, seg.bytes));
  }
  machine.reset(image->entry, kRamBase + kRamSize, kRamBase + 0x6000);
  auto r = machine.run(5000);
  EXPECT_EQ(r.reason, sim::StopReason::CycleLimit);
}

TEST_F(FailureInjection, IncludeDepthBombRejected) {
  for (int i = 0; i < 50; ++i) {
    vfs_.write("/inc" + std::to_string(i) + ".inc",
               ".INCLUDE inc" + std::to_string(i + 1) + ".inc\n");
  }
  DiagnosticEngine diags;
  assembler::AssemblerOptions options;
  options.include_dirs = {"/"};
  assembler::Assembler asm_driver(vfs_, diags, options);
  auto r = asm_driver.assemble_source("/bomb.asm", ".INCLUDE inc0.inc\n");
  EXPECT_FALSE(r.has_value());
  EXPECT_TRUE(diags.has_code("asm.include-depth"));
}

// -------------------------------------------- regression runner edge cases --

TEST(RunnerEdgeCases, EmptySystemRootYieldsEmptyReport) {
  VirtualFileSystem vfs;
  core::RegressionRunner runner(vfs);
  auto report = runner.run_system("/nothing", soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);
  EXPECT_TRUE(report.records.empty());
  EXPECT_FALSE(report.all_passed());  // an empty regression is not a pass
}

TEST(RunnerEdgeCases, CellWithoutTestSourceIsSkipped) {
  VirtualFileSystem vfs;
  core::SystemConfig config;
  config.environments = {{"PAGE_MODULE", core::ModuleKind::Register, 2, true}};
  auto layout = core::build_system(vfs, config, soc::derivative_a());
  // A stray directory without test.asm (e.g. results dir) must be ignored.
  vfs.write(layout.root + "/PAGE_MODULE/RESULTS/notes.txt", "scratch");
  core::RegressionRunner runner(vfs);
  auto report = runner.run_system(layout.root, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);
  EXPECT_EQ(report.records.size(), 2u);
  EXPECT_TRUE(report.all_passed());
}

TEST(RunnerEdgeCases, CorruptBaseFunctionsFailsEveryCellWithDetail) {
  VirtualFileSystem vfs;
  core::SystemConfig config;
  config.environments = {{"PAGE_MODULE", core::ModuleKind::Register, 3, true}};
  auto layout = core::build_system(vfs, config, soc::derivative_a());
  vfs.write(layout.root + "/PAGE_MODULE/Abstraction_Layer/base_functions.asm",
            "GARBAGE MNEMONIC SOUP\n");
  core::RegressionRunner runner(vfs);
  auto report = runner.run_system(layout.root, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel);
  EXPECT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.build_failures(), 3u);
  for (const auto& r : report.records) {
    EXPECT_NE(r.detail.find("base_functions.asm"), std::string::npos);
  }
}

TEST(RunnerEdgeCases, RunawayTestIsStoppedAndFailsCleanly) {
  VirtualFileSystem vfs;
  core::SystemConfig config;
  config.environments = {{"PAGE_MODULE", core::ModuleKind::Register, 1, true}};
  auto layout = core::build_system(vfs, config, soc::derivative_a());
  vfs.write(layout.root + "/PAGE_MODULE/TEST_REGISTER_000/test.asm",
            ".INCLUDE Globals.inc\n_main: JMP _main\n");
  core::RegressionRunner runner(vfs);
  auto report = runner.run_system(layout.root, soc::derivative_a(),
                                  sim::PlatformKind::GoldenModel, 10000);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].stop, sim::StopReason::CycleLimit);
  EXPECT_FALSE(report.records[0].passed());
}

}  // namespace
