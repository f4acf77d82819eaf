// Derivative descriptors — the heart of the ADVM porting story.
//
// The paper's SLE88 family shipped as a series of derivatives: same
// methodology, different memory maps, register field geometry, peripheral
// versions, register *names* and embedded-software ROMs. Everything a
// derivative can change is data in this struct; the ADVM abstraction layer
// (Globals.inc + Base_Functions) is generated *from* it, which is exactly
// how the methodology achieves single-point-of-change porting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace advm::soc {

/// Position/width of a control bitfield (paper Fig 6:
/// PAGE_FIELD_START_POSITION / PAGE_FIELD_SIZE).
struct FieldGeometry {
  std::uint8_t pos = 0;
  std::uint8_t width = 0;

  friend auto operator<=>(const FieldGeometry&,
                          const FieldGeometry&) = default;
};

/// How the global register-definition file spells register names.
/// Derivative D renames registers (paper §2: "a register name has been
/// changed for a new derivative") — the abstraction layer re-maps them.
enum class RegisterNaming : std::uint8_t {
  Compact,      ///< PMCTRL, UARTDATA, ...
  Underscored,  ///< PM_CONTROL, UART_DATA, ...
};

struct DerivativeSpec {
  std::string name;        ///< "SC88-A" ...
  std::uint32_t core_id = 0;

  // --- memory map ----------------------------------------------------------
  std::uint32_t rom_base = 0x0000'1000;   ///< test code ROM window
  std::uint32_t rom_size = 0x0004'0000;
  std::uint32_t ram_base = 0x0010'0000;
  std::uint32_t ram_size = 0x0004'0000;
  std::uint32_t es_rom_base = 0x000F'0000;  ///< embedded software ROM
  std::uint32_t es_rom_size = 0x0000'4000;

  /// Vector table lives at the bottom of RAM so tests can install handlers.
  [[nodiscard]] std::uint32_t vtbase() const { return ram_base; }
  /// Linker placement base for test data sections (above the vector table).
  [[nodiscard]] std::uint32_t data_base() const { return ram_base + 0x400; }
  [[nodiscard]] std::uint32_t stack_top() const {
    return ram_base + ram_size;
  }
  [[nodiscard]] std::uint32_t code_base() const { return rom_base; }

  // --- peripheral windows --------------------------------------------------
  std::uint32_t page_module_base = 0xE000'0000;
  std::uint32_t uart_base = 0xE000'1000;
  std::uint32_t nvm_ctrl_base = 0xE000'2000;
  std::uint32_t timer_base = 0xE000'3000;
  std::uint32_t intc_base = 0xE000'4000;
  std::uint32_t simctrl_base = 0xE000'F000;
  std::uint32_t nvm_mem_base = 0x0020'0000;

  // --- page-control module (paper Fig 6) ------------------------------------
  FieldGeometry page_field{0, 5};
  std::uint32_t page_count = 24;

  // --- UART ------------------------------------------------------------------
  /// v1: status bits {tx_ready=0, rx_avail=1}; v2 (FIFO variant): status
  /// bits moved to {tx_ready=4, rx_avail=5} with fifo level in [3:0].
  int uart_version = 1;

  // --- NVM -------------------------------------------------------------------
  std::uint32_t nvm_pages = 16;
  std::uint32_t nvm_page_size = 256;
  std::uint32_t nvm_cmd_program = 0xA1;
  std::uint32_t nvm_cmd_erase = 0xE5;
  std::uint32_t nvm_key1 = 0xC0DE'0001;
  std::uint32_t nvm_key2 = 0xC0DE'0002;
  std::uint64_t nvm_program_latency = 16;  ///< busy cycles per program word
  std::uint64_t nvm_erase_latency = 64;    ///< busy cycles per page erase

  // --- timer -----------------------------------------------------------------
  std::uint32_t timer_prescale = 1;

  // --- IRQ line assignments ---------------------------------------------------
  std::uint8_t irq_uart = 2;
  std::uint8_t irq_timer = 3;
  std::uint8_t irq_nvm = 4;

  // --- global layer ------------------------------------------------------------
  RegisterNaming naming = RegisterNaming::Compact;
  /// Embedded-software ROM version; v2 swaps ES_Init_Register's input
  /// registers (paper Fig 7's churn scenario), v3 also renames the function.
  int es_version = 1;

  [[nodiscard]] std::uint32_t nvm_total_bytes() const {
    return nvm_pages * nvm_page_size;
  }

  /// Field-wise comparison (also defaults ==): a spec's value is its
  /// identity, e.g. for pooled boards.
  friend auto operator<=>(const DerivativeSpec&,
                          const DerivativeSpec&) = default;
};

/// The four shipped derivatives. A is the baseline; B moves the page field
/// (the paper's "shifted by one" spec change, hardened into a derivative);
/// C widens the page field 5→6 bits ("capable of handling more pages") and
/// revs the NVM command set, UART and embedded software; D additionally
/// moves peripheral bases and renames every register.
[[nodiscard]] const DerivativeSpec& derivative_a();
[[nodiscard]] const DerivativeSpec& derivative_b();
[[nodiscard]] const DerivativeSpec& derivative_c();
[[nodiscard]] const DerivativeSpec& derivative_d();

[[nodiscard]] const std::vector<const DerivativeSpec*>& all_derivatives();

/// Lookup by name ("SC88-A"); nullptr if unknown.
[[nodiscard]] const DerivativeSpec* find_derivative(std::string_view name);

}  // namespace advm::soc
