#include "sim/machine.h"

#include <algorithm>
#include <cstdio>

#include "support/hash.h"

namespace advm::sim {

using isa::AddrMode;
using isa::Cond;
using isa::Instruction;
using isa::Opcode;
using isa::Psw;
using isa::RegSpec;

const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::Running:
      return "running";
    case StopReason::Halted:
      return "halted";
    case StopReason::Breakpoint:
      return "breakpoint";
    case StopReason::CycleLimit:
      return "cycle-limit";
    case StopReason::UnhandledTrap:
      return "unhandled-trap";
    case StopReason::DoubleFault:
      return "double-fault";
  }
  return "?";
}

Machine::Machine(Bus& bus, const TimingModel& timing, MachineConfig config)
    : bus_(bus), timing_(timing), config_(config) {}

void Machine::reset(std::uint32_t entry, std::uint32_t stack_top,
                    std::uint32_t vtbase) {
  d_.fill(0);
  a_.fill(0);
  d_written_.fill(false);
  a_written_.fill(false);
  x_warnings_ = 0;
  pc_ = entry;
  psw_ = 0;
  vtbase_ = vtbase;
  cycles_ = 0;
  instructions_ = 0;
  pending_tick_cycles_ = 0;
  a_[isa::kStackPointerIndex] = stack_top;
  a_written_[isa::kStackPointerIndex] = true;  // SP is architecturally primed
}

void Machine::set_d(int i, std::uint32_t v) {
  d_[static_cast<std::size_t>(i)] = v;
  d_written_[static_cast<std::size_t>(i)] = true;
}

void Machine::set_a(int i, std::uint32_t v) {
  a_[static_cast<std::size_t>(i)] = v;
  a_written_[static_cast<std::size_t>(i)] = true;
}

std::uint64_t Machine::state_digest() const {
  support::Fnv1a h;
  for (std::uint32_t v : d_) h.update(std::uint64_t{v});
  for (std::uint32_t v : a_) h.update(std::uint64_t{v});
  h.update(std::uint64_t{psw_ & ~Psw::kInterruptEnable});
  return h.digest();
}

RunResult Machine::run(std::uint64_t max_instructions) {
  // The decoded fast loop owns the untraced case; an attached trace sink
  // needs per-instruction device ticking (trace records carry cycle
  // stamps), so traced runs keep the step() loop — which still fetches
  // through the decode cache, so traced runs exercise the same decoded
  // slots and invalidation the fast loop relies on.
  if (decode_cache_enabled_ && trace_ == nullptr) {
    return run_decoded(max_instructions);
  }
  RunResult result;
  while (result.instructions < max_instructions) {
    StopReason reason = step();
    ++result.instructions;
    if (reason != StopReason::Running) {
      result.reason = reason;
      result.cycles = cycles_;
      result.stop_pc = pc_;
      if (reason == StopReason::UnhandledTrap ||
          reason == StopReason::DoubleFault) {
        result.fault_vector = pending_fault_vector_;
      }
      return result;
    }
  }
  result.reason = StopReason::CycleLimit;
  result.cycles = cycles_;
  result.stop_pc = pc_;
  return result;
}

const DecodedCache::Slot* Machine::fetch_slot(std::uint32_t pc) {
  if (!fetch_win_.contains(pc, isa::kInstrBytes) ||
      fetch_win_.bytes == nullptr) {
    BusWindow window;
    if (!bus_.resolve_window(pc, window) || window.bytes == nullptr ||
        !window.contains(pc, isa::kInstrBytes)) {
      return nullptr;
    }
    fetch_win_ = window;
  }
  return dcache_.lookup(fetch_win_, pc - fetch_win_.base);
}

StopReason Machine::step() {
  // Interrupt window between instructions.
  if (flag(Psw::kInterruptEnable) && irq_source_) {
    if (auto irq = irq_source_->pending_irq()) {
      const auto vector =
          static_cast<std::uint8_t>(TrapVectors::kInterruptBase + *irq);
      if (trace_) trace_->on_trap(cycles_, vector);
      StopReason r = take_trap(vector, pc_);
      if (r != StopReason::Running) return r;
    }
  }

  const std::uint32_t fetch_pc = pc_;
  const Instruction* instr = nullptr;
  Instruction scratch;
  if (decode_cache_enabled_) {
    if (const auto* slot = fetch_slot(fetch_pc)) {
      if (slot->state == DecodedCache::Slot::kIllegal) {
        if (trace_) trace_->on_trap(cycles_, TrapVectors::kIllegalInstruction);
        return take_trap(TrapVectors::kIllegalInstruction, fetch_pc);
      }
      instr = &slot->instr;
    }
  }
  if (!instr) {
    isa::EncodedInstr word;
    if (!bus_.fetch(fetch_pc, word)) {
      if (trace_) trace_->on_trap(cycles_, TrapVectors::kBusError);
      return take_trap(TrapVectors::kBusError, fetch_pc);
    }
    auto decoded = isa::decode(word);
    if (!decoded) {
      if (trace_) trace_->on_trap(cycles_, TrapVectors::kIllegalInstruction);
      return take_trap(TrapVectors::kIllegalInstruction, fetch_pc);
    }
    scratch = *decoded;
    instr = &scratch;
  }

  if (trace_) trace_->on_instruction(cycles_, fetch_pc, *instr);

  pc_ = fetch_pc + isa::kInstrBytes;  // default next; branches overwrite

  bool taken_branch = false;
  std::uint8_t trap_vector = 0;
  const ExecStatus status = execute(*instr, taken_branch, trap_vector);

  const std::uint64_t cost = timing_.instruction_cost(*instr, taken_branch);
  cycles_ += cost;
  ++instructions_;
  bus_.tick_all(cost);

  switch (status) {
    case ExecStatus::Ok:
      return StopReason::Running;
    case ExecStatus::Halt:
      return StopReason::Halted;
    case ExecStatus::Break:
      return StopReason::Breakpoint;
    case ExecStatus::Trap: {
      if (trace_) trace_->on_trap(cycles_, trap_vector);
      // Faults re-report the faulting instruction's address; software traps
      // (TRAP n) resume after the trap instruction.
      const bool is_software =
          trap_vector >= TrapVectors::kSoftwareBase &&
          trap_vector < TrapVectors::kInterruptBase;
      return take_trap(trap_vector, is_software ? pc_ : fetch_pc);
    }
  }
  return StopReason::Running;
}

void Machine::flush_ticks() {
  if (pending_tick_cycles_ != 0) {
    bus_.tick_all(pending_tick_cycles_);
    pending_tick_cycles_ = 0;
  }
}

RunResult Machine::run_decoded(std::uint64_t max_instructions) {
  RunResult result;
  // State may have been poked since the last run, and a pooled board must
  // report the same proof whatever ran on it before.
  loop_armed_ = false;
  loop_backoff_ = 0;
  loop_skip_ = 0;
  bool loop_head = false;  // the last batch ended on a taken back-branch
  const auto finish = [&](StopReason reason) {
    flush_ticks();
    result.reason = reason;
    result.cycles = cycles_;
    result.stop_pc = pc_;
    if (reason == StopReason::UnhandledTrap ||
        reason == StopReason::DoubleFault) {
      result.fault_vector = pending_fault_vector_;
    }
    return result;
  };

  while (true) {
    // ---- batch boundary: settle deferred device time, service IRQs ----
    flush_ticks();
    if (result.instructions >= max_instructions) {
      result.reason = StopReason::CycleLimit;
      result.cycles = cycles_;
      result.stop_pc = pc_;
      return result;
    }
    if (flag(Psw::kInterruptEnable) && irq_source_) {
      if (auto irq = irq_source_->pending_irq()) {
        const auto vector =
            static_cast<std::uint8_t>(TrapVectors::kInterruptBase + *irq);
        const StopReason r = take_trap(vector, pc_);
        if (r != StopReason::Running) {
          // Mirrors run(): a failed IRQ entry still counts as a step.
          ++result.instructions;
          return finish(r);
        }
        loop_head = false;
      }
    }
    if (loop_head) {
      loop_head = false;
      const std::uint64_t skipped =
          at_loop_head(max_instructions - result.instructions);
      if (skipped != 0) {
        result.instructions += skipped;
        result.fast_forwarded += skipped;
        result.stuck_pc = pc_;
        result.stuck_poll = loop_poll_name();
        // Less than one iteration of budget is left, possibly none.
        if (result.instructions >= max_instructions) continue;
      }
    }

    // Ticks can be deferred until the earliest point a device could raise
    // an IRQ. With interrupts masked (or no controller wired), a raise is
    // unobservable except through an MMIO access — and those flush — so
    // the batch is bounded only by the conditions below.
    const std::uint64_t deadline =
        (irq_source_ && flag(Psw::kInterruptEnable))
            ? bus_.next_event_horizon()
            : kNoEventHorizon;

    // ---- batch: execute until something needs a boundary ----
    bool batch_done = false;
    while (!batch_done) {
      const std::uint32_t fetch_pc = pc_;
      const Instruction* instr = nullptr;
      Instruction scratch;
      std::uint8_t handler = 0;
      if (const auto* slot = fetch_slot(fetch_pc)) {
        if (slot->state == DecodedCache::Slot::kIllegal) {
          ++result.instructions;
          const StopReason r =
              take_trap(TrapVectors::kIllegalInstruction, fetch_pc);
          if (r != StopReason::Running) return finish(r);
          break;  // trap entry masked IE; re-poll at the next boundary
        }
        instr = &slot->instr;
        handler = slot->handler;
      } else {
        // MMIO-resident or window-straddling code: byte-composed fetch,
        // exactly the plain interpreter's path (and no stuck-loop proof:
        // the fetch reads a device).
        loop_dirty_ = true;
        isa::EncodedInstr word;
        if (!bus_.fetch(fetch_pc, word)) {
          ++result.instructions;
          const StopReason r = take_trap(TrapVectors::kBusError, fetch_pc);
          if (r != StopReason::Running) return finish(r);
          break;
        }
        auto decoded = isa::decode(word);
        if (!decoded) {
          ++result.instructions;
          const StopReason r =
              take_trap(TrapVectors::kIllegalInstruction, fetch_pc);
          if (r != StopReason::Running) return finish(r);
          break;
        }
        scratch = *decoded;
        instr = &scratch;
        handler = isa::opcode_handler_index(scratch.op);
      }

      pc_ = fetch_pc + isa::kInstrBytes;

      bool taken_branch = false;
      std::uint8_t trap_vector = 0;
      mmio_access_ = false;
      const ExecStatus status =
          execute_handler(handler, *instr, taken_branch, trap_vector);

      const std::uint64_t cost =
          timing_.instruction_cost(*instr, taken_branch);
      cycles_ += cost;
      pending_tick_cycles_ += cost;
      ++instructions_;
      ++result.instructions;

      switch (status) {
        case ExecStatus::Ok:
          break;
        case ExecStatus::Halt:
          return finish(StopReason::Halted);
        case ExecStatus::Break:
          return finish(StopReason::Breakpoint);
        case ExecStatus::Trap: {
          const bool is_software =
              trap_vector >= TrapVectors::kSoftwareBase &&
              trap_vector < TrapVectors::kInterruptBase;
          const StopReason r =
              take_trap(trap_vector, is_software ? pc_ : fetch_pc);
          if (r != StopReason::Running) return finish(r);
          batch_done = true;
          break;
        }
      }

      // Boundary conditions. IE-raising instructions (ENABLE, MTCR, RETI's
      // PSW restore) must re-poll before the next instruction, matching
      // the per-instruction interpreter; an MMIO access already flushed
      // and may have raised an IRQ; crossing the deadline means a ticking
      // device is due to raise one.
      const Opcode op = instr->op;
      if (mmio_access_ || taken_branch ||
          pending_tick_cycles_ >= deadline ||
          result.instructions >= max_instructions ||
          op == Opcode::Enable || op == Opcode::Mtcr) {
        batch_done = true;
        loop_head = taken_branch && pc_ <= fetch_pc;
      }
    }
  }
}

std::uint64_t Machine::at_loop_head(std::uint64_t budget) {
  LoopHead& h = loop_head_;
  if (!loop_armed_) {
    if (loop_skip_ != 0) {
      --loop_skip_;
      return 0;
    }
    h.pc = pc_;
    h.d = d_;
    h.a = a_;
    h.d_written = d_written_;
    h.a_written = a_written_;
    h.psw = psw_;
    h.x_warnings = x_warnings_;
    h.instructions = instructions_;
    h.cycles = cycles_;
    loop_armed_ = true;
    loop_dirty_ = false;
    loop_poll_device_ = nullptr;
    return 0;
  }
  loop_armed_ = false;

  // Fixed point: the same PC with identical architectural state, after a
  // body that wrote nothing, entered no trap, and read only registers that
  // are side-effect-free on quiescent devices. Every later iteration then
  // replays this one exactly, so k of them can be retired analytically —
  // provided no device raises an IRQ during the skipped cycles.
  if (!loop_dirty_ && pc_ == h.pc && d_ == h.d && a_ == h.a &&
      psw_ == h.psw && x_warnings_ == h.x_warnings &&
      d_written_ == h.d_written && a_written_ == h.a_written) {
    const std::uint64_t iter_instructions = instructions_ - h.instructions;
    const std::uint64_t iter_cycles = cycles_ - h.cycles;
    const std::uint64_t k = budget / iter_instructions;
    const std::uint64_t horizon = bus_.next_event_horizon();
    if (k != 0 && horizon != 0 &&
        (iter_cycles == 0 || (horizon - 1) / iter_cycles >= k)) {
      instructions_ += k * iter_instructions;
      cycles_ += k * iter_cycles;
      bus_.tick_all(k * iter_cycles);
      return k * iter_instructions;
    }
  }
  // Not stuck (yet): back off exponentially, so a loop that makes progress
  // pays for a snapshot and a compare only every few dozen iterations.
  loop_backoff_ = std::min(2 * loop_backoff_ + 1, kMaxLoopBackoff);
  loop_skip_ = loop_backoff_;
  return 0;
}

std::string Machine::loop_poll_name() const {
  if (loop_poll_device_ == nullptr) return {};
  char offset[16];
  std::snprintf(offset, sizeof offset, "+0x%x", loop_poll_offset_);
  return std::string(loop_poll_device_->name()).append(offset);
}

StopReason Machine::take_trap(std::uint8_t vector, std::uint32_t return_pc) {
  pending_fault_vector_ = vector;
  loop_dirty_ = true;
  std::uint32_t handler = 0;
  if (vector >= TrapVectors::kTableEntries ||
      !mem_read32(vtbase_ + 4u * vector, handler)) {
    pc_ = return_pc;
    return StopReason::DoubleFault;
  }
  if (handler == 0) {
    pc_ = return_pc;
    return StopReason::UnhandledTrap;
  }
  if (!push32(return_pc) || !push32(psw_)) {
    pc_ = return_pc;
    return StopReason::DoubleFault;
  }
  set_flag(Psw::kInterruptEnable, false);
  pc_ = handler;
  cycles_ += timing_.trap_cost();
  return StopReason::Running;
}

// ------------------------------------------------------------- registers --

std::uint32_t Machine::read_reg(const RegSpec& r) {
  if (config_.x_check_registers) {
    const bool written = r.is_data() ? d_written_[r.index]
                                     : a_written_[r.index];
    if (!written) ++x_warnings_;
  }
  return r.is_data() ? d_[r.index] : a_[r.index];
}

void Machine::write_reg(const RegSpec& r, std::uint32_t value) {
  if (r.is_data()) {
    d_[r.index] = value;
    d_written_[r.index] = true;
  } else {
    a_[r.index] = value;
    a_written_[r.index] = true;
  }
}

// ----------------------------------------------------------------- memory --

bool Machine::bus_read32(std::uint32_t addr, std::uint32_t& value) {
  if (data_win_.bytes != nullptr && data_win_.contains(addr, 4)) {
    return data_win_.device->read32(addr - data_win_.base, value);
  }
  BusWindow window;
  const bool in_window =
      bus_.resolve_window(addr, window) && window.contains(addr, 4);
  if (in_window && window.bytes != nullptr) {
    data_win_ = window;
    return window.device->read32(addr - window.base, value);
  }
  // MMIO, init-tracking RAM, or a window-spanning access: the device must
  // observe the same cycle total as under per-instruction ticking, so
  // settle deferred ticks first and end the decoded batch afterwards.
  flush_ticks();
  mmio_access_ = true;
  if (!in_window) {
    loop_dirty_ = true;  // byte route across windows: never part of a proof
    return bus_.read32(addr, value);
  }
  const std::uint32_t offset = addr - window.base;
  if (!window.device->read_is_pure(offset) || !window.device->quiescent()) {
    loop_dirty_ = true;
  } else if (loop_poll_device_ == nullptr) {
    loop_poll_device_ = window.device;
    loop_poll_offset_ = offset;
  }
  return window.device->read32(offset, value);
}

bool Machine::bus_write32(std::uint32_t addr, std::uint32_t value) {
  loop_dirty_ = true;
  if (data_win_.bytes != nullptr && data_win_.contains(addr, 4)) {
    return data_win_.device->write32(addr - data_win_.base, value);
  }
  BusWindow window;
  if (bus_.resolve_window(addr, window) && window.bytes != nullptr &&
      window.contains(addr, 4)) {
    data_win_ = window;
    return window.device->write32(addr - window.base, value);
  }
  flush_ticks();
  mmio_access_ = true;
  return bus_.write32(addr, value);
}

bool Machine::mem_read32(std::uint32_t addr, std::uint32_t& value) {
  if (!bus_read32(addr, value)) return false;
  if (trace_) trace_->on_memory(cycles_, addr, value, /*is_write=*/false);
  return true;
}

bool Machine::mem_write32(std::uint32_t addr, std::uint32_t value) {
  if (!bus_write32(addr, value)) return false;
  if (trace_) trace_->on_memory(cycles_, addr, value, /*is_write=*/true);
  return true;
}

bool Machine::push32(std::uint32_t value) {
  std::uint32_t& sp = a_[isa::kStackPointerIndex];
  sp -= 4;
  return mem_write32(sp, value);
}

bool Machine::pop32(std::uint32_t& value) {
  std::uint32_t& sp = a_[isa::kStackPointerIndex];
  if (!mem_read32(sp, value)) return false;
  sp += 4;
  return true;
}

// ------------------------------------------------------------------ flags --

void Machine::set_flags_zn(std::uint32_t result) {
  set_flag(Psw::kZero, result == 0);
  set_flag(Psw::kNegative, (result & 0x8000'0000u) != 0);
}

void Machine::set_flag(std::uint32_t bit, bool on) {
  if (on) {
    psw_ |= bit;
  } else {
    psw_ &= ~bit;
  }
}

bool Machine::condition_met(Cond cond) const {
  switch (cond) {
    case Cond::Always:
      return true;
    case Cond::Z:
    case Cond::Eq:
      return flag(Psw::kZero);
    case Cond::Nz:
    case Cond::Ne:
      return !flag(Psw::kZero);
    case Cond::C:
      return flag(Psw::kCarry);
    case Cond::Nc:
      return !flag(Psw::kCarry);
    case Cond::N:
      return flag(Psw::kNegative);
    case Cond::Nn:
      return !flag(Psw::kNegative);
    case Cond::Lt:
      return flag(Psw::kNegative) != flag(Psw::kOverflow);
    case Cond::Ge:
      return flag(Psw::kNegative) == flag(Psw::kOverflow);
  }
  return false;
}

// ---------------------------------------------------------------- operands --

bool Machine::source_value(const Instruction& instr, std::uint32_t& value,
                           std::uint8_t& trap_vector) {
  switch (instr.mode) {
    case AddrMode::Immediate:
      value = instr.imm;
      return true;
    case AddrMode::Register:
      value = instr.rb ? read_reg(*instr.rb) : 0;
      return true;
    case AddrMode::Absolute:
      if (!mem_read32(instr.imm, value)) {
        trap_vector = TrapVectors::kBusError;
        return false;
      }
      return true;
    case AddrMode::RegIndirect: {
      const std::uint32_t addr = instr.rb ? read_reg(*instr.rb) : 0;
      if (!mem_read32(addr, value)) {
        trap_vector = TrapVectors::kBusError;
        return false;
      }
      return true;
    }
    case AddrMode::RegIndirectOff: {
      const std::uint32_t addr =
          (instr.rb ? read_reg(*instr.rb) : 0) + instr.imm;
      if (!mem_read32(addr, value)) {
        trap_vector = TrapVectors::kBusError;
        return false;
      }
      return true;
    }
    case AddrMode::None:
      value = instr.imm;
      return true;
  }
  value = 0;
  return true;
}

// ---------------------------------------------------------------- execute --

Machine::ExecStatus Machine::execute(const Instruction& instr,
                                     bool& taken_branch,
                                     std::uint8_t& trap_vector) {
  return execute_handler(isa::opcode_handler_index(instr.op), instr,
                         taken_branch, trap_vector);
}

// Dense dispatch over the handler index. GNU compilers get a computed-goto
// label table (one indirect jump, no bounds cascade); everything else gets
// the plain opcode switch, which is dense enough for the table to apply.
// Either way there is exactly ONE copy of the opcode semantics below.
#if defined(__GNUC__) || defined(__clang__)
#define ADVM_COMPUTED_GOTO 1
#define ADVM_OP(name) lbl_##name:
#else
#define ADVM_COMPUTED_GOTO 0
#define ADVM_OP(name) case Opcode::name:
#endif

Machine::ExecStatus Machine::execute_handler(std::uint8_t handler,
                                             const Instruction& instr,
                                             bool& taken_branch,
                                             std::uint8_t& trap_vector) {
  auto trap = [&](std::uint8_t vec) {
    trap_vector = vec;
    return ExecStatus::Trap;
  };

#if ADVM_COMPUTED_GOTO
  // Label order MUST match opcode_table() order — the handler index is the
  // table position. The trailing entry absorbs isa::kIllegalHandler.
  static const void* const kDispatch[isa::kNumOpcodes + 1] = {
      &&lbl_Nop,     &&lbl_Halt,   &&lbl_Break,   &&lbl_Mov,
      &&lbl_Lea,     &&lbl_Load,   &&lbl_Store,   &&lbl_Push,
      &&lbl_Pop,     &&lbl_Add,    &&lbl_Sub,     &&lbl_Mul,
      &&lbl_Div,     &&lbl_And,    &&lbl_Or,      &&lbl_Xor,
      &&lbl_Not,     &&lbl_Shl,    &&lbl_Shr,     &&lbl_Sar,
      &&lbl_Cmp,     &&lbl_Insert, &&lbl_Extract, &&lbl_Jmp,
      &&lbl_Call,    &&lbl_Return, &&lbl_Trap,    &&lbl_Reti,
      &&lbl_Disable, &&lbl_Enable, &&lbl_Mfcr,    &&lbl_Mtcr,
      &&lbl_Illegal};
  goto* kDispatch[handler < isa::kNumOpcodes ? handler : isa::kNumOpcodes];
#else
  (void)handler;
  switch (instr.op) {
#endif

    ADVM_OP(Nop)
      return ExecStatus::Ok;
    ADVM_OP(Halt)
      return ExecStatus::Halt;
    ADVM_OP(Break)
      return config_.break_stops ? ExecStatus::Break : ExecStatus::Ok;

    ADVM_OP(Mov)
    ADVM_OP(Lea)
    ADVM_OP(Load) {
      std::uint32_t value = 0;
      if (!source_value(instr, value, trap_vector)) return ExecStatus::Trap;
      if (instr.rc) write_reg(*instr.rc, value);
      return ExecStatus::Ok;
    }

    ADVM_OP(Store) {
      const std::uint32_t value = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t addr = 0;
      switch (instr.mode) {
        case AddrMode::Absolute:
          addr = instr.imm;
          break;
        case AddrMode::RegIndirect:
          addr = instr.rb ? read_reg(*instr.rb) : 0;
          break;
        case AddrMode::RegIndirectOff:
          addr = (instr.rb ? read_reg(*instr.rb) : 0) + instr.imm;
          break;
        default:
          return trap(TrapVectors::kIllegalInstruction);
      }
      if (!mem_write32(addr, value)) return trap(TrapVectors::kBusError);
      return ExecStatus::Ok;
    }

    ADVM_OP(Push) {
      const std::uint32_t value = instr.ra ? read_reg(*instr.ra) : 0;
      if (!push32(value)) return trap(TrapVectors::kBusError);
      return ExecStatus::Ok;
    }
    ADVM_OP(Pop) {
      std::uint32_t value = 0;
      if (!pop32(value)) return trap(TrapVectors::kBusError);
      if (instr.rc) write_reg(*instr.rc, value);
      return ExecStatus::Ok;
    }

    ADVM_OP(Add)
    ADVM_OP(Sub)
    ADVM_OP(Cmp) {
      const std::uint32_t lhs = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t rhs = 0;
      if (!source_value(instr, rhs, trap_vector)) return ExecStatus::Trap;
      const bool is_add = instr.op == Opcode::Add;
      const std::uint64_t wide =
          is_add ? static_cast<std::uint64_t>(lhs) + rhs
                 : static_cast<std::uint64_t>(lhs) - rhs;
      const auto result = static_cast<std::uint32_t>(wide);
      set_flags_zn(result);
      set_flag(Psw::kCarry, (wide >> 32) != 0);
      const bool lhs_neg = (lhs >> 31) != 0;
      const bool rhs_neg = (rhs >> 31) != 0;
      const bool res_neg = (result >> 31) != 0;
      const bool overflow = is_add ? (lhs_neg == rhs_neg && res_neg != lhs_neg)
                                   : (lhs_neg != rhs_neg && res_neg != lhs_neg);
      set_flag(Psw::kOverflow, overflow);
      if (instr.op != Opcode::Cmp && instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Mul) {
      const std::uint32_t lhs = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t rhs = 0;
      if (!source_value(instr, rhs, trap_vector)) return ExecStatus::Trap;
      const std::uint64_t wide = static_cast<std::uint64_t>(lhs) * rhs;
      const auto result = static_cast<std::uint32_t>(wide);
      set_flags_zn(result);
      set_flag(Psw::kCarry, false);
      set_flag(Psw::kOverflow, (wide >> 32) != 0);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Div) {
      const std::uint32_t lhs = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t rhs = 0;
      if (!source_value(instr, rhs, trap_vector)) return ExecStatus::Trap;
      if (rhs == 0) return trap(TrapVectors::kDivideByZero);
      const auto slhs = static_cast<std::int32_t>(lhs);
      const auto srhs = static_cast<std::int32_t>(rhs);
      std::uint32_t result;
      if (slhs == INT32_MIN && srhs == -1) {
        result = static_cast<std::uint32_t>(INT32_MIN);  // saturating edge
        set_flag(Psw::kOverflow, true);
      } else {
        result = static_cast<std::uint32_t>(slhs / srhs);
        set_flag(Psw::kOverflow, false);
      }
      set_flags_zn(result);
      set_flag(Psw::kCarry, false);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(And)
    ADVM_OP(Or)
    ADVM_OP(Xor) {
      const std::uint32_t lhs = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t rhs = 0;
      if (!source_value(instr, rhs, trap_vector)) return ExecStatus::Trap;
      std::uint32_t result = 0;
      if (instr.op == Opcode::And) result = lhs & rhs;
      if (instr.op == Opcode::Or) result = lhs | rhs;
      if (instr.op == Opcode::Xor) result = lhs ^ rhs;
      set_flags_zn(result);
      set_flag(Psw::kCarry, false);
      set_flag(Psw::kOverflow, false);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Not) {
      const std::uint32_t value = instr.ra ? read_reg(*instr.ra) : 0;
      const std::uint32_t result = ~value;
      set_flags_zn(result);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Shl)
    ADVM_OP(Shr)
    ADVM_OP(Sar) {
      const std::uint32_t lhs = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t rhs = 0;
      if (!source_value(instr, rhs, trap_vector)) return ExecStatus::Trap;
      const std::uint32_t sh = rhs & 31u;  // hardware masks shift amounts
      std::uint32_t result = 0;
      bool carry = false;
      if (instr.op == Opcode::Shl) {
        result = lhs << sh;
        carry = sh != 0 && ((lhs >> (32 - sh)) & 1u) != 0;
      } else if (instr.op == Opcode::Shr) {
        result = lhs >> sh;
        carry = sh != 0 && ((lhs >> (sh - 1)) & 1u) != 0;
      } else {
        result = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(lhs) >> sh);
        carry = sh != 0 && ((lhs >> (sh - 1)) & 1u) != 0;
      }
      set_flags_zn(result);
      set_flag(Psw::kCarry, carry);
      set_flag(Psw::kOverflow, false);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Insert) {
      const std::uint32_t base = instr.ra ? read_reg(*instr.ra) : 0;
      std::uint32_t value = 0;
      if (!source_value(instr, value, trap_vector)) return ExecStatus::Trap;
      const std::uint32_t mask =
          instr.width >= 32 ? 0xFFFF'FFFFu : ((1u << instr.width) - 1u);
      const std::uint32_t result = (base & ~(mask << instr.pos)) |
                                   ((value & mask) << instr.pos);
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Extract) {
      const std::uint32_t base = instr.ra ? read_reg(*instr.ra) : 0;
      const std::uint32_t mask =
          instr.width >= 32 ? 0xFFFF'FFFFu : ((1u << instr.width) - 1u);
      const std::uint32_t result = (base >> instr.pos) & mask;
      if (instr.rc) write_reg(*instr.rc, result);
      return ExecStatus::Ok;
    }

    ADVM_OP(Jmp) {
      if (!condition_met(instr.cond)) return ExecStatus::Ok;
      pc_ = instr.rb ? read_reg(*instr.rb) : instr.imm;
      taken_branch = true;
      return ExecStatus::Ok;
    }

    ADVM_OP(Call) {
      const std::uint32_t target = instr.rb ? read_reg(*instr.rb) : instr.imm;
      if (!push32(pc_)) return trap(TrapVectors::kBusError);
      pc_ = target;
      taken_branch = true;
      return ExecStatus::Ok;
    }

    ADVM_OP(Return) {
      std::uint32_t ret = 0;
      if (!pop32(ret)) return trap(TrapVectors::kBusError);
      pc_ = ret;
      taken_branch = true;
      return ExecStatus::Ok;
    }

    ADVM_OP(Trap)
      return trap(static_cast<std::uint8_t>(TrapVectors::kSoftwareBase +
                                            instr.pos));

    ADVM_OP(Reti) {
      std::uint32_t saved_psw = 0;
      std::uint32_t ret = 0;
      if (!pop32(saved_psw) || !pop32(ret)) {
        return trap(TrapVectors::kBusError);
      }
      psw_ = saved_psw;
      pc_ = ret;
      taken_branch = true;
      return ExecStatus::Ok;
    }

    ADVM_OP(Disable)
      set_flag(Psw::kInterruptEnable, false);
      return ExecStatus::Ok;
    ADVM_OP(Enable)
      set_flag(Psw::kInterruptEnable, true);
      loop_dirty_ = true;
      return ExecStatus::Ok;

    ADVM_OP(Mfcr) {
      std::uint32_t value = 0;
      switch (static_cast<isa::CoreReg>(instr.pos)) {
        case isa::CoreReg::Psw:
          value = psw_;
          break;
        case isa::CoreReg::VtBase:
          value = vtbase_;
          break;
        case isa::CoreReg::CoreId:
          value = core_id_;
          break;
        case isa::CoreReg::CycleLo:
          value = static_cast<std::uint32_t>(cycles_);
          loop_dirty_ = true;  // differs every iteration
          break;
        default:
          return trap(TrapVectors::kIllegalInstruction);
      }
      if (instr.rc) write_reg(*instr.rc, value);
      return ExecStatus::Ok;
    }

    ADVM_OP(Mtcr) {
      loop_dirty_ = true;
      const std::uint32_t value = instr.ra ? read_reg(*instr.ra) : 0;
      switch (static_cast<isa::CoreReg>(instr.pos)) {
        case isa::CoreReg::Psw:
          psw_ = value;
          return ExecStatus::Ok;
        case isa::CoreReg::VtBase:
          vtbase_ = value;
          return ExecStatus::Ok;
        case isa::CoreReg::CoreId:
        case isa::CoreReg::CycleLo:
          return trap(TrapVectors::kIllegalInstruction);  // read-only
        default:
          return trap(TrapVectors::kIllegalInstruction);
      }
    }

#if ADVM_COMPUTED_GOTO
  lbl_Illegal:
    return trap(TrapVectors::kIllegalInstruction);
#else
  }
  return trap(TrapVectors::kIllegalInstruction);
#endif
}

#undef ADVM_OP
#undef ADVM_COMPUTED_GOTO

}  // namespace advm::sim
