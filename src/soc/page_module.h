// The paged control module of the paper's Fig 6.
//
// Fig 6's test writes a page number into a bitfield of this module's control
// register, with the field's position and size supplied by Globals.inc
// defines. The module validates the selected page and exposes per-page
// storage, so directed tests can prove the page selection actually routed.
//
// Register map (word offsets):
//   +0x0 CTRL    page-select bitfield at DerivativeSpec::page_field,
//                other bits are software-visible scratch
//   +0x4 STATUS  bit0 READY (always 1), bit1 PAGE_ERROR (w1c),
//                bits[15:8] currently selected page (read-only)
//   +0x8 COUNT   read-only page count
//   +0xC DATA    read/write the selected page's storage word
#pragma once

#include <cstdint>
#include <vector>

#include "sim/bus.h"
#include "soc/derivative.h"

namespace advm::soc {

class PageModule final : public sim::MmioDevice {
 public:
  static constexpr std::uint32_t kCtrlOffset = 0x0;
  static constexpr std::uint32_t kStatusOffset = 0x4;
  static constexpr std::uint32_t kCountOffset = 0x8;
  static constexpr std::uint32_t kDataOffset = 0xC;

  static constexpr std::uint32_t kStatusReady = 1u << 0;
  static constexpr std::uint32_t kStatusPageError = 1u << 1;

  PageModule(FieldGeometry field, std::uint32_t page_count);

  [[nodiscard]] std::string_view name() const override { return "pagemod"; }
  [[nodiscard]] std::uint32_t size() const override { return 0x10; }

  void reset() override;

  /// Reads have no side effects, and the module never ticks.
  [[nodiscard]] bool read_is_pure(std::uint32_t) const override {
    return true;
  }
  [[nodiscard]] bool quiescent() const override { return true; }

  [[nodiscard]] std::uint32_t selected_page() const { return selected_; }
  [[nodiscard]] bool page_error() const { return page_error_; }
  [[nodiscard]] std::uint32_t page_data(std::uint32_t page) const {
    return storage_.at(page);
  }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override;
  bool write_reg(std::uint32_t reg, std::uint32_t value) override;

 private:
  FieldGeometry field_;
  std::uint32_t ctrl_ = 0;
  std::uint32_t selected_ = 0;
  bool page_error_ = false;
  std::vector<std::uint32_t> storage_;
};

}  // namespace advm::soc
