#include "soc/board.h"

#include <sstream>

namespace advm::soc {

Board::Board(const DerivativeSpec& spec, sim::PlatformKind platform)
    : spec_(spec), platform_(platform) {
  const sim::PlatformCaps& c = caps();

  auto rom = std::make_unique<sim::Rom>("test-rom", spec.rom_size);
  bus_.map(spec.rom_base, std::move(rom));

  auto ram = std::make_unique<sim::Ram>("ram", spec.ram_size,
                                        /*track_init=*/c.x_checking);
  ram_ = ram.get();
  bus_.map(spec.ram_base, std::move(ram));

  auto es_rom = std::make_unique<sim::Rom>("es-rom", spec.es_rom_size);
  bus_.map(spec.es_rom_base, std::move(es_rom));

  auto page = std::make_unique<PageModule>(spec.page_field, spec.page_count);
  page_module_ = page.get();
  bus_.map(spec.page_module_base, std::move(page));

  auto uart = std::make_unique<Uart>(spec.uart_version, irqs_, spec.irq_uart);
  uart_ = uart.get();
  bus_.map(spec.uart_base, std::move(uart));

  auto nvm = std::make_unique<NvmController>(spec_, irqs_);
  nvm_ = nvm.get();
  bus_.map(spec.nvm_ctrl_base, std::move(nvm));
  bus_.map(spec.nvm_mem_base, std::make_unique<NvmArray>(*nvm_));

  auto timer =
      std::make_unique<Timer>(spec.timer_prescale, irqs_, spec.irq_timer);
  timer_ = timer.get();
  bus_.map(spec.timer_base, std::move(timer));

  auto intc = std::make_unique<InterruptController>(irqs_);
  intc_ = intc.get();
  bus_.map(spec.intc_base, std::move(intc));

  auto simctrl = std::make_unique<SimControl>(
      static_cast<std::uint32_t>(platform));
  simctrl_ = simctrl.get();
  bus_.map(spec.simctrl_base, std::move(simctrl));

  timing_ = sim::make_timing(platform);
  sim::MachineConfig config;
  config.x_check_registers = c.x_checking;
  config.break_stops = c.breakpoints;
  machine_ = std::make_unique<sim::Machine>(bus_, *timing_, config);
  machine_->set_core_id(spec.core_id);
  machine_->set_irq_source(intc_);
}

bool Board::load(const assembler::Image& image, std::string* error) {
  for (const auto& segment : image.segments) {
    if (!bus_.load_bytes(segment.base, segment.bytes)) {
      if (error) {
        std::ostringstream os;
        os << "segment at 0x" << std::hex << segment.base << " (+"
           << std::dec << segment.bytes.size()
           << " bytes) does not fit the " << spec_.name << " memory map";
        *error = os.str();
      }
      return false;
    }
  }
  entry_ = image.entry;
  machine_->reset(entry_, spec_.stack_top(), spec_.vtbase());
  return true;
}

void Board::reset() {
  bus_.reset_devices();
  irqs_.clear_all();
  machine_->set_trace(nullptr);
  machine_->reset(0, spec_.stack_top(), spec_.vtbase());
  entry_ = 0;
}

RunOutcome Board::run(std::uint64_t max_instructions) {
  RunOutcome out;
  out.machine = machine_->run(max_instructions);
  out.verdict = simctrl_->verdict();
  out.console = simctrl_->console();
  out.modeled_seconds =
      static_cast<double>(out.machine.instructions) / caps().modeled_ips;
  out.x_register_reads = machine_->x_warnings();
  out.x_ram_reads = ram_->uninitialized_reads();
  return out;
}

bool Board::attach_trace(sim::TraceSink* sink) {
  if (!caps().instruction_trace) return false;
  machine_->set_trace(sink);
  return true;
}

bool Board::debug_read_d(int index, std::uint32_t& value) const {
  if (!caps().register_access) return false;
  value = machine_->d(index);
  return true;
}

}  // namespace advm::soc
