// Tests for the SoC layer: derivative specs, peripherals, global-layer
// source generation, and end-to-end board runs across all six platforms.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "asm/assembler.h"
#include "asm/linker.h"
#include "soc/board.h"
#include "soc/derivative.h"
#include "soc/global_layer.h"
#include "soc/intc.h"
#include "soc/nvm.h"
#include "soc/page_module.h"
#include "soc/simctrl.h"
#include "soc/timer.h"
#include "soc/uart.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

namespace {

using namespace advm::soc;
using advm::sim::PlatformKind;
using advm::sim::StopReason;
using advm::support::DiagnosticEngine;
using advm::support::VirtualFileSystem;

/// Word-transaction register access, as the SC88's LOAD/STORE issue it.
std::uint32_t dev_read32(advm::sim::BusDevice& dev, std::uint32_t offset) {
  std::uint32_t v = 0;
  EXPECT_TRUE(dev.read32(offset, v));
  return v;
}

void dev_write32(advm::sim::BusDevice& dev, std::uint32_t offset,
                 std::uint32_t value) {
  EXPECT_TRUE(dev.write32(offset, value));
}

// ------------------------------------------------------------ derivatives --

TEST(Derivatives, FourDistinctSpecs) {
  EXPECT_EQ(all_derivatives().size(), 4u);
  EXPECT_EQ(derivative_a().name, "SC88-A");
  EXPECT_EQ(find_derivative("SC88-C"), &derivative_c());
  EXPECT_EQ(find_derivative("SC88-X"), nullptr);
}

TEST(Derivatives, ChangeClassesMatchPaperScenarios) {
  // B: field shifted by one (paper §4 change 1).
  EXPECT_EQ(derivative_a().page_field, (FieldGeometry{0, 5}));
  EXPECT_EQ(derivative_b().page_field, (FieldGeometry{1, 5}));
  // C: field widened by one bit for more pages (paper §4 change 2).
  EXPECT_EQ(derivative_c().page_field, (FieldGeometry{0, 6}));
  EXPECT_GT(derivative_c().page_count, derivative_a().page_count);
  // C: ES input registers swapped (paper Fig 7).
  EXPECT_EQ(derivative_a().es_version, 1);
  EXPECT_EQ(derivative_c().es_version, 2);
  // D: register renames (paper §2 "register name has been changed").
  EXPECT_EQ(derivative_a().naming, RegisterNaming::Compact);
  EXPECT_EQ(derivative_d().naming, RegisterNaming::Underscored);
  // D: moved peripherals.
  EXPECT_NE(derivative_d().page_module_base, derivative_a().page_module_base);
}

// ------------------------------------------------------------ page module --

TEST(PageModule, SelectWriteReadBack) {
  PageModule pm(FieldGeometry{0, 5}, 8);
  dev_write32(pm, PageModule::kCtrlOffset, 3);
  EXPECT_EQ(pm.selected_page(), 3u);
  dev_write32(pm, PageModule::kDataOffset, 0xAB);
  EXPECT_EQ(dev_read32(pm, PageModule::kDataOffset), 0xABu);
  EXPECT_EQ(pm.page_data(3), 0xABu);
}

TEST(PageModule, PagesAreIsolated) {
  PageModule pm(FieldGeometry{0, 5}, 8);
  dev_write32(pm, PageModule::kCtrlOffset, 1);
  dev_write32(pm, PageModule::kDataOffset, 0x11);
  dev_write32(pm, PageModule::kCtrlOffset, 2);
  dev_write32(pm, PageModule::kDataOffset, 0x22);
  dev_write32(pm, PageModule::kCtrlOffset, 1);
  EXPECT_EQ(dev_read32(pm, PageModule::kDataOffset), 0x11u);
}

TEST(PageModule, FieldGeometryGovernsDecoding) {
  // Derivative B: field at pos 1. The same numeric CTRL value selects a
  // *different* page — the precise bug hardwired tests hit on a new
  // derivative.
  PageModule a(FieldGeometry{0, 5}, 32);
  PageModule b(FieldGeometry{1, 5}, 32);
  dev_write32(a, PageModule::kCtrlOffset, 8);
  dev_write32(b, PageModule::kCtrlOffset, 8);
  EXPECT_EQ(a.selected_page(), 8u);
  EXPECT_EQ(b.selected_page(), 4u);
  dev_write32(b, PageModule::kCtrlOffset, 8u << 1);
  EXPECT_EQ(b.selected_page(), 8u);
}

TEST(PageModule, OutOfRangePageFlagsErrorAndKeepsSelection) {
  PageModule pm(FieldGeometry{0, 5}, 8);
  dev_write32(pm, PageModule::kCtrlOffset, 2);
  dev_write32(pm, PageModule::kCtrlOffset, 20);  // >= page_count
  EXPECT_TRUE(pm.page_error());
  EXPECT_EQ(pm.selected_page(), 2u);
  // STATUS: ready | page_error | page<<8; write-1-clear the error.
  std::uint32_t status = dev_read32(pm, PageModule::kStatusOffset);
  EXPECT_TRUE(status & PageModule::kStatusPageError);
  dev_write32(pm, PageModule::kStatusOffset, PageModule::kStatusPageError);
  EXPECT_FALSE(pm.page_error());
}

TEST(PageModule, CountRegisterReadOnly) {
  PageModule pm(FieldGeometry{0, 5}, 24);
  EXPECT_EQ(dev_read32(pm, PageModule::kCountOffset), 24u);
  dev_write32(pm, PageModule::kCountOffset, 99);
  EXPECT_EQ(dev_read32(pm, PageModule::kCountOffset), 24u);
}

// ------------------------------------------------------------------- uart --

TEST(Uart, TransmitLogsBytes) {
  IrqLines irqs;
  Uart uart(1, irqs, 2);
  dev_write32(uart, Uart::kDataOffset, 'H');
  uart.tick(1000);
  dev_write32(uart, Uart::kDataOffset, 'i');
  EXPECT_EQ(uart.transmitted(), "Hi");
}

TEST(Uart, StatusBitsMoveBetweenVersions) {
  IrqLines irqs;
  Uart v1(1, irqs, 2);
  Uart v2(2, irqs, 2);
  // Idle + empty: v1 has TX_READY at bit0; v2 at bit4.
  EXPECT_EQ(dev_read32(v1, Uart::kStatusOffset), 0x1u);
  EXPECT_EQ(dev_read32(v2, Uart::kStatusOffset), 0x10u);
  v1.inject_rx("x");
  v2.inject_rx("x");
  EXPECT_EQ(dev_read32(v1, Uart::kStatusOffset), 0x3u);
  // v2: rx_avail bit5 | tx_ready bit4 | fifo level 1.
  EXPECT_EQ(dev_read32(v2, Uart::kStatusOffset), 0x31u);
}

TEST(Uart, TxBusyWhileShifting) {
  IrqLines irqs;
  Uart uart(1, irqs, 2);
  dev_write32(uart, Uart::kDataOffset, 'a');
  EXPECT_EQ(dev_read32(uart, Uart::kStatusOffset) & 1u, 0u);  // busy
  uart.tick(8);
  EXPECT_EQ(dev_read32(uart, Uart::kStatusOffset) & 1u, 1u);  // ready again
}

TEST(Uart, LoopbackFeedsReceiver) {
  IrqLines irqs;
  Uart uart(1, irqs, 2);
  dev_write32(uart, Uart::kCtrlOffset, Uart::kCtrlLoopback);
  dev_write32(uart, Uart::kDataOffset, 'Z');
  EXPECT_EQ(dev_read32(uart, Uart::kDataOffset), static_cast<std::uint32_t>('Z'));
}

TEST(Uart, RxIrqRaisedWhenEnabled) {
  IrqLines irqs;
  Uart uart(1, irqs, 5);
  uart.inject_rx("q");
  EXPECT_EQ(irqs.pending(), 0u);  // irq not enabled yet
  dev_write32(uart, Uart::kCtrlOffset, Uart::kCtrlRxIrqEnable);
  EXPECT_EQ(irqs.pending(), 1u << 5);
}

// -------------------------------------------------------------------- nvm --

class NvmTest : public ::testing::Test {
 protected:
  NvmTest() : nvm_(derivative_a(), irqs_) {}

  void unlock() {
    dev_write32(nvm_, NvmController::kLockOffset, derivative_a().nvm_key1);
    dev_write32(nvm_, NvmController::kLockOffset, derivative_a().nvm_key2);
  }

  void program(std::uint32_t addr, std::uint32_t data) {
    dev_write32(nvm_, NvmController::kAddrOffset, addr);
    dev_write32(nvm_, NvmController::kDataOffset, data);
    dev_write32(nvm_, NvmController::kCmdOffset,
                derivative_a().nvm_cmd_program);
    nvm_.tick(derivative_a().nvm_program_latency);
  }

  IrqLines irqs_;
  NvmController nvm_;
};

TEST_F(NvmTest, ProgramWhileLockedSetsLockError) {
  dev_write32(nvm_, NvmController::kAddrOffset, 0);
  dev_write32(nvm_, NvmController::kDataOffset, 0x1234);
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  EXPECT_TRUE(dev_read32(nvm_, NvmController::kStatusOffset) &
              NvmController::kStatusLockError);
  EXPECT_EQ(nvm_.word_at(0), 0xFFFF'FFFFu);  // untouched
}

TEST_F(NvmTest, UnlockSequenceThenProgram) {
  unlock();
  EXPECT_FALSE(nvm_.locked());
  program(0x10, 0xCAFE'F00D);
  EXPECT_EQ(nvm_.word_at(0x10), 0xCAFE'F00Du);
  EXPECT_EQ(nvm_.programs_done(), 1u);
}

TEST_F(NvmTest, WrongKeyRelocks) {
  dev_write32(nvm_, NvmController::kLockOffset, derivative_a().nvm_key1);
  dev_write32(nvm_, NvmController::kLockOffset, 0xDEAD);  // wrong key2
  EXPECT_TRUE(nvm_.locked());
}

TEST_F(NvmTest, ProgramOnlyClearsBits) {
  unlock();
  program(0, 0x0F0F'0F0F);
  program(0, 0x00FF'00FF);
  // Flash AND semantics: second program cannot set bits back.
  EXPECT_EQ(nvm_.word_at(0), 0x0F0F'0F0Fu & 0x00FF'00FFu);
}

TEST_F(NvmTest, EraseRestoresPageToFF) {
  unlock();
  program(0x20, 0);
  dev_write32(nvm_, NvmController::kAddrOffset, 0x20);
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_erase);
  nvm_.tick(derivative_a().nvm_erase_latency);
  EXPECT_EQ(nvm_.word_at(0x20), 0xFFFF'FFFFu);
  EXPECT_EQ(nvm_.erases_done(), 1u);
}

TEST_F(NvmTest, BusyUntilLatencyElapses) {
  unlock();
  dev_write32(nvm_, NvmController::kAddrOffset, 0);
  dev_write32(nvm_, NvmController::kDataOffset, 0);
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  EXPECT_TRUE(nvm_.busy());
  nvm_.tick(derivative_a().nvm_program_latency - 1);
  EXPECT_TRUE(nvm_.busy());
  EXPECT_EQ(nvm_.word_at(0), 0xFFFF'FFFFu);  // not yet committed
  nvm_.tick(1);
  EXPECT_FALSE(nvm_.busy());
  EXPECT_EQ(nvm_.word_at(0), 0u);
}

TEST_F(NvmTest, CommandWhileBusyIsError) {
  unlock();
  dev_write32(nvm_, NvmController::kAddrOffset, 0);
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  EXPECT_TRUE(dev_read32(nvm_, NvmController::kStatusOffset) &
              NvmController::kStatusCmdError);
}

TEST_F(NvmTest, DerivativeCommandOpcodesDiffer) {
  // Derivative C revs the command opcodes; A's program opcode must be
  // rejected by a C controller.
  IrqLines irqs;
  NvmController nvm_c(derivative_c(), irqs);
  dev_write32(nvm_c, NvmController::kLockOffset, derivative_c().nvm_key1);
  dev_write32(nvm_c, NvmController::kLockOffset, derivative_c().nvm_key2);
  dev_write32(nvm_c, NvmController::kAddrOffset, 0);
  dev_write32(nvm_c, NvmController::kCmdOffset,
              derivative_a().nvm_cmd_program);  // stale opcode
  EXPECT_TRUE(dev_read32(nvm_c, NvmController::kStatusOffset) &
              NvmController::kStatusCmdError);
}

TEST_F(NvmTest, MisalignedOrOutOfRangeProgramRejected) {
  unlock();
  dev_write32(nvm_, NvmController::kAddrOffset, 2);  // misaligned
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  EXPECT_TRUE(dev_read32(nvm_, NvmController::kStatusOffset) &
              NvmController::kStatusCmdError);
  dev_write32(nvm_, NvmController::kStatusOffset,
              NvmController::kStatusCmdError);  // clear
  dev_write32(nvm_, NvmController::kAddrOffset,
              derivative_a().nvm_total_bytes());
  dev_write32(nvm_, NvmController::kCmdOffset, derivative_a().nvm_cmd_program);
  EXPECT_TRUE(dev_read32(nvm_, NvmController::kStatusOffset) &
              NvmController::kStatusCmdError);
}

// ------------------------------------------------------------------ timer --

TEST(Timer, CountsWithPrescaleAndMatches) {
  IrqLines irqs;
  Timer t(4, irqs, 3);
  dev_write32(t, Timer::kCompareOffset, 5);
  dev_write32(t, Timer::kCtrlOffset, Timer::kCtrlEnable | Timer::kCtrlIrqEnable);
  t.tick(19);  // 19/4 = 4 steps
  EXPECT_EQ(t.count(), 4u);
  EXPECT_FALSE(t.matched());
  t.tick(5);  // residue 3 + 5 = 8 → 2 more steps
  EXPECT_TRUE(t.matched());
  EXPECT_EQ(irqs.pending(), 1u << 3);
}

TEST(Timer, DisabledTimerHolds) {
  IrqLines irqs;
  Timer t(1, irqs, 3);
  t.tick(100);
  EXPECT_EQ(t.count(), 0u);
}

TEST(Timer, AutoClearWrapsAtCompare) {
  IrqLines irqs;
  Timer t(1, irqs, 3);
  dev_write32(t, Timer::kCompareOffset, 10);
  dev_write32(t, Timer::kCtrlOffset,
              Timer::kCtrlEnable | Timer::kCtrlAutoClear);
  t.tick(25);
  EXPECT_EQ(t.count(), 5u);  // wrapped twice
}

TEST(Timer, StatusWriteOneClears) {
  IrqLines irqs;
  Timer t(1, irqs, 3);
  dev_write32(t, Timer::kCompareOffset, 1);
  dev_write32(t, Timer::kCtrlOffset, Timer::kCtrlEnable);
  t.tick(1);
  EXPECT_TRUE(t.matched());
  dev_write32(t, Timer::kStatusOffset, 1);
  EXPECT_FALSE(t.matched());
}

// ------------------------------------------------------------------- intc --

TEST(Intc, PriorityAndMasking) {
  IrqLines irqs;
  InterruptController intc(irqs);
  irqs.raise(5);
  irqs.raise(2);
  EXPECT_FALSE(intc.highest_priority().has_value());  // nothing enabled
  dev_write32(intc, InterruptController::kEnableOffset, (1u << 5) | (1u << 2));
  EXPECT_EQ(intc.highest_priority(), 2);  // lowest line wins
  dev_write32(intc, InterruptController::kPendingOffset, 1u << 2);  // w1c
  EXPECT_EQ(intc.highest_priority(), 5);
}

// ---------------------------------------------------------------- simctrl --

TEST(SimCtrl, FirstVerdictWins) {
  SimControl sc(0);
  dev_write32(sc, SimControl::kResultOffset, SimControl::kFailMagic);
  dev_write32(sc, SimControl::kResultOffset, SimControl::kPassMagic);
  EXPECT_EQ(sc.verdict(), Verdict::Fail);
}

TEST(SimCtrl, ConsoleCollectsBytes) {
  SimControl sc(0);
  for (char c : std::string("ok")) {
    dev_write32(sc, SimControl::kConsoleOffset,
                static_cast<std::uint32_t>(c));
  }
  EXPECT_EQ(sc.console(), "ok");
}

// ----------------------------------------------------------- global layer --

TEST(GlobalLayer, RegisterDefsFollowNamingStyle) {
  std::string a = register_defs_source(derivative_a());
  EXPECT_NE(a.find("PMCTRL .EQU 0xe0000000"), std::string::npos);
  EXPECT_NE(a.find("UARTSTAT"), std::string::npos);

  std::string d = register_defs_source(derivative_d());
  EXPECT_EQ(d.find("PMCTRL"), std::string::npos);
  EXPECT_NE(d.find("PM_CONTROL .EQU 0xe0010000"), std::string::npos);
}

TEST(GlobalLayer, EmbeddedSoftwareVersionsDifferAsInFig7) {
  std::string v1 = embedded_software_source(derivative_a());
  EXPECT_NE(v1.find("ES_Init_Register:"), std::string::npos);
  EXPECT_NE(v1.find("STORE [a4], d4"), std::string::npos);

  std::string v2 = embedded_software_source(derivative_c());
  EXPECT_NE(v2.find("ES_Init_Register:"), std::string::npos);
  EXPECT_NE(v2.find("STORE [a5], d5"), std::string::npos);  // swapped inputs

  std::string v3 = embedded_software_source(derivative_d());
  EXPECT_EQ(v3.find("ES_Init_Register:"), std::string::npos);
  EXPECT_NE(v3.find("ES_InitReg:"), std::string::npos);  // renamed
}

// -------------------------------------------------------- board end-to-end --

class BoardTest : public ::testing::Test {
 protected:
  /// Assembles `test_source` against derivative A's global layer and links.
  std::optional<advm::assembler::Image> build(std::string_view test_source,
                                              const DerivativeSpec& spec) {
    VirtualFileSystem vfs;
    vfs.write("/global/register_defs.inc", register_defs_source(spec));
    vfs.write("/global/Embedded_Software.asm",
              embedded_software_source(spec));
    advm::assembler::AssemblerOptions opts;
    opts.include_dirs = {"/global"};
    advm::assembler::Assembler assembler(vfs, diags_, opts);
    auto test = assembler.assemble_source("/test.asm", test_source);
    auto es = assembler.assemble_file("/global/Embedded_Software.asm");
    if (!test || !es) {
      ADD_FAILURE() << diags_.to_string();
      return std::nullopt;
    }
    std::vector<advm::assembler::ObjectFile> objects{test->object, es->object};
    advm::assembler::LinkOptions lo;
    lo.code_base = spec.code_base();
    lo.data_base = spec.data_base();
    return advm::assembler::link(objects, lo, diags_);
  }

  DiagnosticEngine diags_;
};

// A directed test that exercises the paper's Fig 6 flow end to end: select
// a page via INSERT into the control register, write data, read it back.
const char* kPageTest = R"(
.INCLUDE register_defs.inc
TEST_PAGE .EQU 6
_main:
 LOAD d14, [PMCTRL]
 INSERT d14, d14, TEST_PAGE, 0, 5
 STORE [PMCTRL], d14
 MOV d0, 0x5A5A
 STORE [PMDATA], d0
 LOAD d1, [PMDATA]
 CMP d1, 0x5A5A
 JNE .fail
 LOAD d2, 0x600D600D
 STORE [SIMRES], d2
 HALT
.fail:
 LOAD d2, 0x0BAD0BAD
 STORE [SIMRES], d2
 HALT
)";

TEST_F(BoardTest, PageTestPassesOnAllSixPlatforms) {
  auto image = build(kPageTest, derivative_a());
  ASSERT_TRUE(image.has_value()) << diags_.to_string();

  std::vector<std::uint64_t> digests;
  for (auto kind : advm::sim::kAllPlatforms) {
    Board board(derivative_a(), kind);
    std::string error;
    ASSERT_TRUE(board.load(*image, &error)) << error;
    auto outcome = board.run();
    EXPECT_TRUE(outcome.passed())
        << advm::sim::to_string(kind) << ": verdict "
        << to_string(outcome.verdict) << ", stop "
        << advm::sim::to_string(outcome.machine.reason);
    EXPECT_EQ(board.page_module().selected_page(), 6u);
    digests.push_back(board.machine().state_digest());
  }
  // Identical architectural state everywhere — the paper's core premise.
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]);
  }
}

TEST_F(BoardTest, CycleCountsDifferButResultsMatch) {
  auto image = build(kPageTest, derivative_a());
  ASSERT_TRUE(image.has_value());

  Board golden(derivative_a(), PlatformKind::GoldenModel);
  Board rtl(derivative_a(), PlatformKind::RtlSim);
  std::string error;
  ASSERT_TRUE(golden.load(*image, &error));
  ASSERT_TRUE(rtl.load(*image, &error));
  auto g = golden.run();
  auto r = rtl.run();
  EXPECT_TRUE(g.passed());
  EXPECT_TRUE(r.passed());
  EXPECT_EQ(g.machine.instructions, r.machine.instructions);
  EXPECT_GT(r.machine.cycles, g.machine.cycles);  // pipeline model charges more
}

TEST_F(BoardTest, ModeledWallClockOrdersPlatforms) {
  auto image = build(kPageTest, derivative_a());
  ASSERT_TRUE(image.has_value());
  double gate_time = 0;
  double silicon_time = 0;
  for (auto kind : {PlatformKind::GateSim, PlatformKind::ProductSilicon}) {
    Board board(derivative_a(), kind);
    std::string error;
    ASSERT_TRUE(board.load(*image, &error));
    auto outcome = board.run();
    if (kind == PlatformKind::GateSim) gate_time = outcome.modeled_seconds;
    if (kind == PlatformKind::ProductSilicon)
      silicon_time = outcome.modeled_seconds;
  }
  EXPECT_GT(gate_time, silicon_time * 1000);
}

TEST_F(BoardTest, TraceOnlyOnVisibilityPlatforms) {
  auto image = build(kPageTest, derivative_a());
  ASSERT_TRUE(image.has_value());
  advm::sim::RecordingTrace trace;

  Board rtl(derivative_a(), PlatformKind::RtlSim);
  EXPECT_TRUE(rtl.attach_trace(&trace));

  Board accel(derivative_a(), PlatformKind::Accelerator);
  EXPECT_FALSE(accel.attach_trace(&trace));

  Board product(derivative_a(), PlatformKind::ProductSilicon);
  std::uint32_t v = 0;
  EXPECT_FALSE(product.debug_read_d(0, v));
  Board bondout(derivative_a(), PlatformKind::Bondout);
  EXPECT_TRUE(bondout.debug_read_d(0, v));
}

TEST_F(BoardTest, EmbeddedSoftwareCallWorks) {
  // Calls ES_Uart_Send_Byte through the ROM and checks the UART log —
  // proving the global layer links and executes.
  const char* source = R"(
.INCLUDE register_defs.inc
_main:
 MOV d4, 'K'
 LOAD a12, ES_Uart_Send_Byte
 CALL a12
 LOAD d2, 0x600D600D
 STORE [SIMRES], d2
 HALT
)";
  auto image = build(source, derivative_a());
  ASSERT_TRUE(image.has_value()) << diags_.to_string();
  Board board(derivative_a(), PlatformKind::GoldenModel);
  std::string error;
  ASSERT_TRUE(board.load(*image, &error)) << error;
  auto outcome = board.run();
  EXPECT_TRUE(outcome.passed());
  EXPECT_EQ(board.uart().transmitted(), "K");
}

TEST_F(BoardTest, ConsoleOutputCaptured) {
  const char* source = R"(
.INCLUDE register_defs.inc
_main:
 MOV d0, 'h'
 STORE [SIMCON], d0
 MOV d0, 'i'
 STORE [SIMCON], d0
 LOAD d2, 0x600D600D
 STORE [SIMRES], d2
 HALT
)";
  auto image = build(source, derivative_a());
  ASSERT_TRUE(image.has_value());
  Board board(derivative_a(), PlatformKind::GoldenModel);
  std::string error;
  ASSERT_TRUE(board.load(*image, &error));
  auto outcome = board.run();
  EXPECT_EQ(outcome.console, "hi");
}

TEST_F(BoardTest, TestWithoutVerdictIsNotAPass) {
  const char* source = ".INCLUDE register_defs.inc\n_main: HALT\n";
  auto image = build(source, derivative_a());
  ASSERT_TRUE(image.has_value());
  Board board(derivative_a(), PlatformKind::GoldenModel);
  std::string error;
  ASSERT_TRUE(board.load(*image, &error));
  auto outcome = board.run();
  EXPECT_EQ(outcome.verdict, Verdict::None);
  EXPECT_FALSE(outcome.passed());
}

TEST_F(BoardTest, GateSimFlagsUninitializedRegisterUse) {
  const char* source = R"(
.INCLUDE register_defs.inc
_main:
 ADD d1, d2, d3          ; d2/d3 never written
 LOAD d2, 0x600D600D
 STORE [SIMRES], d2
 HALT
)";
  auto image = build(source, derivative_a());
  ASSERT_TRUE(image.has_value());
  Board gate(derivative_a(), PlatformKind::GateSim);
  std::string error;
  ASSERT_TRUE(gate.load(*image, &error));
  auto outcome = gate.run();
  EXPECT_GE(outcome.x_register_reads, 2u);

  Board golden(derivative_a(), PlatformKind::GoldenModel);
  ASSERT_TRUE(golden.load(*image, &error));
  EXPECT_EQ(golden.run().x_register_reads, 0u);
}

/// Minor page faults this process has taken so far.
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(Board, ConstructionFaultsInAlmostNoMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators poison or shadow fresh memory";
#else
  // SC88-D on hdl-gate maps 0.8 MB of ROM and RAM plus the X-tracking
  // bitmap. Memories are calloc-backed, so a board faults a page in only
  // when a test touches it; zero-filling them eagerly costs ~200 faults.
  const DerivativeSpec& spec = derivative_d();
  const long before = minor_faults();
  Board board(spec, PlatformKind::GateSim);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 64) << "building a board faulted in " << faults
                        << " pages";
#endif
}

TEST_F(BoardTest, ImageOutsideMemoryMapRejected) {
  advm::assembler::Image image;
  advm::assembler::Segment segment;
  segment.base = 0xDEAD'0000;
  segment.bytes = {1, 2, 3};
  image.segments.push_back(std::move(segment));
  image.entry = 0xDEAD'0000;
  Board board(derivative_a(), PlatformKind::GoldenModel);
  std::string error;
  EXPECT_FALSE(board.load(image, &error));
  EXPECT_NE(error.find("SC88-A"), std::string::npos);
}

TEST_F(BoardTest, InterruptDrivenTimerTest) {
  // Installs an IRQ handler, enables the timer, waits for the interrupt.
  const char* source = R"(
.INCLUDE register_defs.inc
VT .EQU 0x00100000        ; derivative A RAM base = vector table
_main:
 LOAD d0, timer_handler
 STORE [VT + 4 * 19], d0  ; IRQ line 3 -> vector 16+3
 MOV d0, 50
 STORE [TIMCMP], d0
 MOV d0, 3                ; enable | irq_enable
 STORE [TIMCTRL], d0
 MOV d0, 8                ; enable line 3 in the INTC
 STORE [ICENAB], d0
 MOV d5, 0
 ENABLE
.wait:
 CMP d5, 0
 JEQ .wait
 LOAD d2, 0x600D600D
 STORE [SIMRES], d2
 HALT
timer_handler:
 MOV d5, 1
 MOV d0, 8
 STORE [ICPEND], d0       ; clear the line
 RETI
)";
  auto image = build(source, derivative_a());
  ASSERT_TRUE(image.has_value()) << diags_.to_string();
  Board board(derivative_a(), PlatformKind::GoldenModel);
  std::string error;
  ASSERT_TRUE(board.load(*image, &error));
  auto outcome = board.run(100000);
  EXPECT_TRUE(outcome.passed())
      << to_string(outcome.verdict) << " "
      << advm::sim::to_string(outcome.machine.reason);
}

}  // namespace
