#include "isa/opcodes.h"

#include <algorithm>
#include <array>
#include <utility>

#include "support/text.h"

namespace advm::isa {

namespace {

// rtl_cycles values model a simple in-order chip-card pipeline:
// single-cycle ALU, 2-cycle memory access, 3-cycle taken branches (flush),
// multi-cycle multiply/divide. The exact numbers matter less than that the
// cycle-approximate platform charges *different* costs from the golden
// model — experiment E4 relies on the ordering, not absolute numbers.
constexpr std::array<OpcodeInfo, 32> kTable{{
    {Opcode::Nop, "NOP", OperandPattern::None, false, 1},
    {Opcode::Halt, "HALT", OperandPattern::None, false, 1},
    {Opcode::Break, "BREAK", OperandPattern::None, false, 1},
    {Opcode::Mov, "MOV", OperandPattern::RcSrc, false, 1},
    {Opcode::Lea, "LEA", OperandPattern::RcSrc, false, 1},
    {Opcode::Load, "LOAD", OperandPattern::RcSrc, false, 2},
    {Opcode::Store, "STORE", OperandPattern::MemRa, false, 2},
    {Opcode::Push, "PUSH", OperandPattern::Ra, false, 2},
    {Opcode::Pop, "POP", OperandPattern::Rc, false, 2},
    {Opcode::Add, "ADD", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Sub, "SUB", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Mul, "MUL", OperandPattern::RcRaSrc, true, 4},
    {Opcode::Div, "DIV", OperandPattern::RcRaSrc, true, 12},
    {Opcode::And, "AND", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Or, "OR", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Xor, "XOR", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Not, "NOT", OperandPattern::RcRa, true, 1},
    {Opcode::Shl, "SHL", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Shr, "SHR", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Sar, "SAR", OperandPattern::RcRaSrc, true, 1},
    {Opcode::Cmp, "CMP", OperandPattern::RaSrc, true, 1},
    {Opcode::Insert, "INSERT", OperandPattern::RcRaSrcPosW, false, 1},
    {Opcode::Extract, "EXTRACT", OperandPattern::RcRaPosW, false, 1},
    {Opcode::Jmp, "JMP", OperandPattern::Target, false, 3},
    {Opcode::Call, "CALL", OperandPattern::Target, false, 4},
    {Opcode::Return, "RETURN", OperandPattern::None, false, 4},
    {Opcode::Trap, "TRAP", OperandPattern::Imm8, false, 8},
    {Opcode::Reti, "RETI", OperandPattern::None, false, 8},
    {Opcode::Disable, "DISABLE", OperandPattern::None, false, 1},
    {Opcode::Enable, "ENABLE", OperandPattern::None, false, 1},
    {Opcode::Mfcr, "MFCR", OperandPattern::RcCr, false, 2},
    {Opcode::Mtcr, "MTCR", OperandPattern::CrRa, false, 2},
}};

struct CondMnemonic {
  const char* name;
  Cond cond;
};

constexpr std::array<CondMnemonic, 10> kBranchMnemonics{{
    {"JZ", Cond::Z},
    {"JNZ", Cond::Nz},
    {"JC", Cond::C},
    {"JNC", Cond::Nc},
    {"JN", Cond::N},
    {"JNN", Cond::Nn},
    {"JLT", Cond::Lt},
    {"JGE", Cond::Ge},
    {"JEQ", Cond::Eq},
    {"JNE", Cond::Ne},
}};

static_assert(kTable.size() == kNumOpcodes,
              "kNumOpcodes must match the opcode table");

// 256-entry byte → dense-handler-index LUT: O(1) decode on the sim's fetch
// path (and everywhere else) instead of a 32-entry linear scan.
constexpr std::array<std::uint8_t, 256> kByteToHandler = [] {
  std::array<std::uint8_t, 256> lut{};
  for (auto& entry : lut) entry = kIllegalHandler;
  for (std::size_t i = 0; i < kTable.size(); ++i) {
    lut[static_cast<std::uint8_t>(kTable[i].op)] =
        static_cast<std::uint8_t>(i);
  }
  return lut;
}();

}  // namespace

std::span<const OpcodeInfo> opcode_table() {
  return std::span<const OpcodeInfo>(kTable.data(), kTable.size());
}

std::uint8_t opcode_handler_index(Opcode op) {
  return kByteToHandler[static_cast<std::uint8_t>(op)];
}

std::uint8_t handler_index_for_byte(std::uint8_t byte) {
  return kByteToHandler[byte];
}

const OpcodeInfo& opcode_info(Opcode op) {
  const std::uint8_t h = kByteToHandler[static_cast<std::uint8_t>(op)];
  return kTable[h == kIllegalHandler ? 0 : h];  // NOP fallback: unreachable
                                                // for valid enum values
}

std::optional<Opcode> decode_opcode(std::uint8_t byte) {
  const std::uint8_t h = kByteToHandler[byte];
  if (h == kIllegalHandler) return std::nullopt;
  return kTable[h].op;
}

std::optional<MnemonicMatch> lookup_mnemonic(std::string_view mnemonic) {
  // Every spelling (the opcodes, the conditional jumps and the RET alias),
  // sorted once for support::find_nocase.
  using Entry = std::pair<std::string_view, MnemonicMatch>;
  static const auto kSpellings = [] {
    std::array<Entry, kTable.size() + kBranchMnemonics.size() + 1> out{};
    std::size_t n = 0;
    for (const auto& info : kTable) {
      out[n++] = {info.mnemonic, MnemonicMatch{info.op, Cond::Always}};
    }
    for (const auto& [name, cond] : kBranchMnemonics) {
      out[n++] = {name, MnemonicMatch{Opcode::Jmp, cond}};
    }
    out[n++] = {"RET", MnemonicMatch{Opcode::Return, Cond::Always}};
    std::ranges::sort(out, {}, &Entry::first);
    return out;
  }();
  const MnemonicMatch* match = support::find_nocase(kSpellings, mnemonic);
  if (match == nullptr) return std::nullopt;
  return *match;
}

const char* to_string(Opcode op) { return opcode_info(op).mnemonic; }

const char* to_string(Cond c) {
  switch (c) {
    case Cond::Always:
      return "";
    case Cond::Z:
      return "Z";
    case Cond::Nz:
      return "NZ";
    case Cond::C:
      return "C";
    case Cond::Nc:
      return "NC";
    case Cond::N:
      return "N";
    case Cond::Nn:
      return "NN";
    case Cond::Lt:
      return "LT";
    case Cond::Ge:
      return "GE";
    case Cond::Eq:
      return "EQ";
    case Cond::Ne:
      return "NE";
  }
  return "?";
}

const char* to_string(AddrMode m) {
  switch (m) {
    case AddrMode::None:
      return "none";
    case AddrMode::Immediate:
      return "imm";
    case AddrMode::Register:
      return "reg";
    case AddrMode::Absolute:
      return "abs";
    case AddrMode::RegIndirect:
      return "ind";
    case AddrMode::RegIndirectOff:
      return "ind+off";
  }
  return "?";
}

}  // namespace advm::isa
