// Simulation-control port: how directed tests report verdicts.
//
// Classic ISS-based verification convention (and the only part of the SoC
// that is pure test infrastructure): a magic register the test writes its
// PASS/FAIL verdict to, plus a console byte port for diagnostic messages.
// Every platform provides it — on real silicon it would be a GPIO observed
// by the tester.
#pragma once

#include <cstdint>
#include <string>

#include "sim/bus.h"

namespace advm::soc {

enum class Verdict : std::uint8_t { None, Pass, Fail };

[[nodiscard]] const char* to_string(Verdict v);

class SimControl final : public sim::MmioDevice {
 public:
  static constexpr std::uint32_t kResultOffset = 0x0;
  static constexpr std::uint32_t kConsoleOffset = 0x4;
  static constexpr std::uint32_t kPlatformOffset = 0x8;
  static constexpr std::uint32_t kScratchOffset = 0xC;

  static constexpr std::uint32_t kPassMagic = 0x600D'600D;
  static constexpr std::uint32_t kFailMagic = 0x0BAD'0BAD;

  explicit SimControl(std::uint32_t platform_id)
      : platform_id_(platform_id) {}

  [[nodiscard]] std::string_view name() const override { return "simctrl"; }
  [[nodiscard]] std::uint32_t size() const override { return 0x10; }

  [[nodiscard]] Verdict verdict() const { return verdict_; }
  [[nodiscard]] const std::string& console() const { return console_; }

  /// Reads have no side effects, and the port never ticks.
  [[nodiscard]] bool read_is_pure(std::uint32_t) const override {
    return true;
  }
  [[nodiscard]] bool quiescent() const override { return true; }

  void reset() override {
    verdict_ = Verdict::None;
    console_.clear();
    scratch_ = 0;
  }

 protected:
  bool read_reg(std::uint32_t reg, std::uint32_t& value) override;
  bool write_reg(std::uint32_t reg, std::uint32_t value) override;

 private:
  Verdict verdict_ = Verdict::None;
  std::string console_;
  std::uint32_t platform_id_;
  std::uint32_t scratch_ = 0;
};

}  // namespace advm::soc
