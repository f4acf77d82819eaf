// Sim-core floor — what does one simulated instruction cost?
//
// Every experiment table in this repo is built on top of the golden-model
// interpreter; its per-instruction cost is the floor under tests/s
// everywhere. This harness measures that floor on five kernel shapes
// (compute, branch, memory, IRQ-driven, stuck UART poll) across the two
// execution arms:
//
//   interp   — plain fetch/decode/execute with per-instruction device ticks
//              (set_decode_cache_enabled(false); the reference arm)
//   decoded  — decoded-instruction cache + dense handler dispatch + batched
//              device ticks up to the bus's next-event horizon + stuck-loop
//              fast-forward
//
// Both arms must agree bit-for-bit (stop reason, state digest, cycles,
// retired instructions) and stop the way the kernel declares — the exit
// code gates it — and the decoded arm must hold a >= 3x instr/s advantage
// on the compute kernel. The stuck-poll kernel never halts: it spins to its
// budget, and its "fast-forwarded" column is the count tools/ci.sh gates.
// Its decoded instr/s would count skipped instructions, so it prints n/a.
// Code lives in ROM and data in RAM, as on the derivative boards, so data
// stores do not shoot down decoded code pages.
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asm/assembler.h"
#include "asm/linker.h"
#include "bench_util.h"
#include "sim/bus.h"
#include "sim/machine.h"
#include "sim/timing.h"
#include "soc/intc.h"
#include "soc/irq.h"
#include "soc/timer.h"
#include "soc/uart.h"
#include "support/diagnostics.h"
#include "support/vfs.h"

using namespace advm;
using advm::bench::Stopwatch;
using advm::bench::Table;

namespace {

// Memory map: ROM code at 0x1000, RAM at 0x10000 (data base = RAM base,
// vector table at 0x18000, stack top at RAM end), timer / INTC high.
constexpr std::uint32_t kCodeBase = 0x1000;
constexpr std::uint32_t kRomSize = 0x4000;
constexpr std::uint32_t kRamBase = 0x10000;
constexpr std::uint32_t kRamSize = 0x10000;
constexpr std::uint32_t kVtBase = 0x18000;
constexpr std::uint32_t kStackTop = kRamBase + kRamSize;
constexpr std::uint32_t kTimerBase = 0x30000;
constexpr std::uint32_t kIntcBase = 0x40000;
constexpr std::uint32_t kUartBase = 0x50000;

/// Peripherals a kernel needs besides ROM and RAM.
enum class Devices { kNone, kIrqFabric, kUartV2 };

struct Kernel {
  const char* name;
  std::string_view source;
  Devices devices;
  sim::StopReason expected_stop;
  std::uint64_t max_instructions;
};

constexpr std::string_view kComputeKernel =
    "_main:\n"
    " MOV d0, 2000000\n"
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
    " MOV d0, 1500000\n"
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
    " MOV d9, 2000\n"
    ".outer:\n"
    " MOV d0, 512\n"
    " LEA a0, 0x10000\n"
    " MOV d1, 0x11\n"
    ".fill:\n"
    " STORE [a0], d1\n"
    " ADD a0, a0, 4\n"
    " ADD d1, d1, 7\n"
    " SUB d0, d0, 1\n"
    " JNZ .fill\n"
    " MOV d0, 512\n"
    " LEA a0, 0x10000\n"
    " MOV d2, 0\n"
    ".sum:\n"
    " LOAD d3, [a0]\n"
    " ADD d2, d2, d3\n"
    " ADD a0, a0, 4\n"
    " SUB d0, d0, 1\n"
    " JNZ .sum\n"
    " SUB d9, d9, 1\n"
    " JNZ .outer\n"
    " HALT\n";

// Timer IRQ (line 3, vector 19) every compare*prescale = 60*4 cycles; the
// handler acks the INTC line and the timer STATUS bit, the foreground spins.
constexpr std::string_view kIrqKernel =
    "_main:\n"
    " LOAD d0, handler\n"
    " STORE [0x18000 + 4 * 19], d0\n"
    " MOV d0, 60\n"
    " STORE [0x30004], d0\n"
    " MOV d0, 7\n"
    " STORE [0x30008], d0\n"
    " MOV d0, 8\n"
    " STORE [0x40004], d0\n"
    " MOV d5, 0\n"
    " MOV d6, 0\n"
    " ENABLE\n"
    ".wait:\n"
    " ADD d6, d6, 1\n"
    " CMP d5, 4000\n"
    " JLT .wait\n"
    " HALT\n"
    "handler:\n"
    " ADD d5, d5, 1\n"
    " MOV d0, 8\n"
    " STORE [0x40000], d0\n"
    " MOV d0, 1\n"
    " STORE [0x3000C], d0\n"
    " RETI\n";

// The cube-hung shape: an un-ported wait loop tests bit 0 of a v2 UART's
// STATUS, whose TX_READY moved to bit 4, and spins to the 2M budget the
// regression runner uses.
constexpr std::string_view kStuckPollKernel =
    "_main:\n"
    ".wait_tx:\n"
    " LOAD d2, [0x50004]\n"
    " EXTRACT d2, d2, 0, 1\n"
    " CMP d2, 1\n"
    " JNE .wait_tx\n"
    " HALT\n";

struct ArmResult {
  double seconds = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t digest = 0;
  std::uint64_t fast_forwarded = 0;
  sim::StopReason reason = sim::StopReason::Running;
};

std::optional<assembler::Image> build(std::string_view source) {
  support::VirtualFileSystem vfs;
  support::DiagnosticEngine diags;
  assembler::Assembler asm_driver(vfs, diags, {});
  auto obj = asm_driver.assemble_source("/kernel.asm", source);
  if (!obj) {
    std::cerr << diags.to_string();
    return std::nullopt;
  }
  std::vector<assembler::ObjectFile> objects{obj->object};
  assembler::LinkOptions lo;
  lo.code_base = kCodeBase;
  lo.data_base = kRamBase;
  auto image = assembler::link(objects, lo, diags);
  if (!image) std::cerr << diags.to_string();
  return image;
}

std::optional<ArmResult> run_arm(const assembler::Image& image,
                                 const Kernel& kernel, bool decoded) {
  soc::IrqLines irqs;
  sim::Bus bus;
  sim::FunctionalTiming timing;
  bus.map(kCodeBase, std::make_unique<sim::Rom>("code", kRomSize));
  bus.map(kRamBase, std::make_unique<sim::Ram>("ram", kRamSize));
  soc::InterruptController* intc = nullptr;
  if (kernel.devices == Devices::kUartV2) {
    bus.map(kUartBase, std::make_unique<soc::Uart>(/*version=*/2, irqs,
                                                   /*irq_line=*/2));
  }
  if (kernel.devices == Devices::kIrqFabric) {
    bus.map(kTimerBase,
            std::make_unique<soc::Timer>(/*prescale=*/4, irqs, /*line=*/3));
    auto ic = std::make_unique<soc::InterruptController>(irqs);
    intc = ic.get();
    bus.map(kIntcBase, std::move(ic));
  }
  sim::Machine machine(bus, timing);
  if (intc != nullptr) machine.set_irq_source(intc);
  machine.set_decode_cache_enabled(decoded);
  for (const auto& seg : image.segments) {
    if (!bus.load_bytes(seg.base, seg.bytes)) {
      std::cerr << "segment load failed\n";
      return std::nullopt;
    }
  }
  machine.reset(image.entry, kStackTop, kVtBase);

  Stopwatch sw;
  auto r = machine.run(kernel.max_instructions);
  ArmResult out;
  out.seconds = sw.seconds();
  out.instructions = r.instructions;
  out.cycles = machine.cycles();
  out.digest = machine.state_digest();
  out.fast_forwarded = r.fast_forwarded;
  out.reason = r.reason;
  return out;
}

}  // namespace

int main() {
  bench::banner("sim core floor",
                "decoded-cache + batched-tick dispatch vs the plain "
                "interpreter; both arms must agree bit-for-bit");

  constexpr std::uint64_t kHaltBudget = 200'000'000;
  const Kernel kernels[] = {
      {"compute", kComputeKernel, Devices::kNone, sim::StopReason::Halted,
       kHaltBudget},
      {"branch", kBranchKernel, Devices::kNone, sim::StopReason::Halted,
       kHaltBudget},
      {"memory", kMemoryKernel, Devices::kNone, sim::StopReason::Halted,
       kHaltBudget},
      {"irq", kIrqKernel, Devices::kIrqFabric, sim::StopReason::Halted,
       kHaltBudget},
      {"stuck-poll", kStuckPollKernel, Devices::kUartV2,
       sim::StopReason::CycleLimit, 2'000'000},
  };

  Table table({"kernel", "stop", "instructions", "interp s", "decoded s",
               "interp instr/s", "decoded instr/s", "speedup",
               "fast-forwarded"});
  double compute_speedup = 0;
  bool ok = true;

  for (const Kernel& k : kernels) {
    auto image = build(k.source);
    if (!image) return 1;
    auto interp = run_arm(*image, k, /*decoded=*/false);
    auto decoded = run_arm(*image, k, /*decoded=*/true);
    if (!interp || !decoded) return 1;
    if (interp->reason != k.expected_stop) {
      std::cerr << k.name << " stopped with " << sim::to_string(interp->reason)
                << ", expected " << sim::to_string(k.expected_stop) << "\n";
      ok = false;
    }
    if (interp->reason != decoded->reason ||
        interp->digest != decoded->digest ||
        interp->cycles != decoded->cycles ||
        interp->instructions != decoded->instructions) {
      std::cerr << "ARM MISMATCH on " << k.name << ": stop "
                << sim::to_string(interp->reason) << " vs "
                << sim::to_string(decoded->reason) << ", digest "
                << interp->digest << " vs " << decoded->digest << ", cycles "
                << interp->cycles << " vs " << decoded->cycles
                << ", instructions " << interp->instructions << " vs "
                << decoded->instructions << "\n";
      ok = false;
    }
    const double interp_rate =
        static_cast<double>(interp->instructions) / interp->seconds;
    const double decoded_rate =
        static_cast<double>(decoded->instructions) / decoded->seconds;
    const double speedup = decoded_rate / interp_rate;
    if (std::string_view(k.name) == "compute") compute_speedup = speedup;
    if (decoded->fast_forwarded != 0) {
      table.add_row(k.name, sim::to_string(interp->reason),
                    interp->instructions, interp->seconds, decoded->seconds,
                    interp_rate, "n/a", speedup, decoded->fast_forwarded);
    } else {
      table.add_row(k.name, sim::to_string(interp->reason),
                    interp->instructions, interp->seconds, decoded->seconds,
                    interp_rate, decoded_rate, speedup,
                    decoded->fast_forwarded);
    }
  }

  table.print();
  bench::emit_json("sim_core", "decoded vs interp", table);

  if (!ok) {
    std::cerr << "\nFAIL: an arm diverged or stopped unexpectedly\n";
    return 1;
  }
  if (compute_speedup < 3.0) {
    std::cerr << "\nFAIL: compute-kernel speedup " << compute_speedup
              << " < 3.0\n";
    return 1;
  }
  std::cout << "\ncompute-kernel speedup " << compute_speedup
            << "x (gate: >= 3x)\n";
  return 0;
}
