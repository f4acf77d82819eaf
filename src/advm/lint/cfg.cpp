#include "advm/lint/cfg.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "isa/opcodes.h"

namespace advm::lint {

std::string SymbolRef::to_string() const {
  if (offset == 0) return name;
  char buf[16];
  std::snprintf(buf, sizeof buf, "+0x%x", offset);
  return name + buf;
}

const Slot* CodeModel::slot_at(std::uint32_t address) const {
  // Symmetric const/non-const accessors share the lookup.
  return const_cast<CodeModel*>(this)->slot_at(address);
}

Slot* CodeModel::slot_at(std::uint32_t address) {
  for (CodeRegion& region : regions) {
    if (address < region.base || address >= region.end()) continue;
    const std::uint32_t off = address - region.base;
    if (off % isa::kInstrBytes != 0) return nullptr;
    const std::size_t index = off / isa::kInstrBytes;
    if (index >= region.slots.size()) return nullptr;  // truncated tail
    return &region.slots[index];
  }
  return nullptr;
}

const CodeRegion* CodeModel::region_of(std::uint32_t address) const {
  for (const CodeRegion& region : regions) {
    if (address >= region.base && address < region.end()) return &region;
  }
  return nullptr;
}

std::optional<SymbolRef> CodeModel::symbol_before(
    std::uint32_t address) const {
  return lint::symbol_before(symbols, address);
}

std::optional<SymbolRef> symbol_before(const SymbolTable& symbols,
                                       std::uint32_t address) {
  // `symbols` is sorted by address: the last entry at or before `address`.
  const SymbolRef* best = nullptr;
  SymbolRef ref;
  for (const auto& [sym_address, name] : symbols) {
    if (sym_address > address) break;
    ref.name = name;
    ref.offset = address - sym_address;
    best = &ref;
  }
  if (best == nullptr) return std::nullopt;
  return ref;
}

void append_flow_successors(const Slot& slot,
                            std::vector<std::uint32_t>* out) {
  if (!slot.instr) return;  // illegal encoding traps: the path ends
  const isa::Instruction& in = *slot.instr;
  const std::uint32_t next =
      slot.address + static_cast<std::uint32_t>(isa::kInstrBytes);
  switch (in.op) {
    case isa::Opcode::Halt:
    case isa::Opcode::Return:
    case isa::Opcode::Reti:
      return;
    case isa::Opcode::Jmp:
      if (!in.rb) out->push_back(in.imm);  // direct target
      // Indirect targets are function roots (address-taken), not flow
      // edges. Conditional branches also fall through.
      if (in.cond != isa::Cond::Always) out->push_back(next);
      return;
    default:
      out->push_back(next);
      return;
  }
}

std::vector<std::uint32_t> function_addresses(const CodeModel& model,
                                              std::uint32_t root) {
  std::vector<std::uint32_t> out;
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> work{root};
  std::vector<std::uint32_t> succ;
  while (!work.empty()) {
    const std::uint32_t address = work.back();
    work.pop_back();
    if (!seen.insert(address).second) continue;
    const Slot* slot = model.slot_at(address);
    if (slot == nullptr) continue;
    out.push_back(address);
    succ.clear();
    append_flow_successors(*slot, &succ);
    for (const std::uint32_t s : succ) work.push_back(s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

CodeModel build_code_model(const assembler::Image& image) {
  CodeModel model;
  model.entry = image.entry;

  // --- Decode every code segment on the 12-byte grid. ---------------------
  for (const assembler::Segment& segment : image.segments) {
    if (segment.section != "code") continue;
    CodeRegion region;
    region.base = segment.base;
    region.size = static_cast<std::uint32_t>(segment.bytes.size());
    region.source = segment.source;
    const std::size_t words = segment.bytes.size() / isa::kInstrBytes;
    region.slots.reserve(words);
    for (std::size_t w = 0; w < words; ++w) {
      Slot slot;
      slot.address =
          segment.base + static_cast<std::uint32_t>(w * isa::kInstrBytes);
      isa::EncodedInstr word;
      bool zero = true;
      for (std::size_t b = 0; b < isa::kInstrBytes; ++b) {
        word[b] = segment.bytes[w * isa::kInstrBytes + b];
        zero = zero && word[b] == 0;
      }
      slot.opcode_byte = word[0];
      slot.zero = zero;
      slot.instr = isa::decode(word);
      region.slots.push_back(std::move(slot));
    }
    model.regions.push_back(std::move(region));
  }

  // --- Code symbols, sorted by address, for attribution. ------------------
  for (const auto& [name, symbol] : image.symbols) {
    if (model.region_of(symbol.address) != nullptr) {
      model.symbols.emplace_back(symbol.address, name);
    }
  }
  std::sort(model.symbols.begin(), model.symbols.end());

  // --- Reachability + root discovery (one fixpoint). ----------------------
  // Processing a slot marks it reachable, enqueues its flow successors,
  // and promotes direct CALL targets and address-taken code addresses
  // (on-grid immediates) to function roots — which are themselves
  // reachable, closing the loop for register-indirect calls and jumps.
  std::set<std::uint32_t> roots{model.entry};
  std::vector<std::uint32_t> work{model.entry};
  std::vector<std::uint32_t> succ;
  while (!work.empty()) {
    const std::uint32_t address = work.back();
    work.pop_back();
    Slot* slot = model.slot_at(address);
    if (slot == nullptr || slot->reachable) continue;
    slot->reachable = true;
    if (!slot->instr) continue;
    const isa::Instruction& in = *slot->instr;
    succ.clear();
    append_flow_successors(*slot, &succ);
    for (const std::uint32_t s : succ) work.push_back(s);
    const bool direct_call =
        in.op == isa::Opcode::Call && !in.rb && model.slot_at(in.imm);
    const bool address_taken =
        in.op != isa::Opcode::Call && in.op != isa::Opcode::Jmp &&
        (in.mode == isa::AddrMode::Immediate ||
         in.op == isa::Opcode::Lea) &&
        model.slot_at(in.imm) != nullptr;
    if (direct_call || address_taken) {
      roots.insert(in.imm);
      work.push_back(in.imm);
    }
  }
  model.roots.assign(roots.begin(), roots.end());
  return model;
}

}  // namespace advm::lint
