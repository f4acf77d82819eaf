// Memory bus and device model for the SC88 SoC simulator.
//
// The bus is a flat 32-bit byte-addressed space with non-overlapping device
// windows. Accesses outside any window fail, which the machine core turns
// into bus-error traps — exactly the behaviour directed tests rely on when
// probing derivative memory maps.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instruction.h"

namespace advm::sim {

/// Sentinel returned by next_event_horizon() when a device has no pending
/// time-driven event (nothing it could do in tick() would become observable).
inline constexpr std::uint64_t kNoEventHorizon = ~std::uint64_t{0};

/// One memory-mapped device. Offsets passed to read8/write8 are relative to
/// the device's window base.
class BusDevice {
 public:
  virtual ~BusDevice() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::uint32_t size() const = 0;

  /// Byte access; return false to signal a bus error.
  virtual bool read8(std::uint32_t offset, std::uint8_t& value) = 0;
  virtual bool write8(std::uint32_t offset, std::uint8_t value) = 0;

  /// Word access — the transaction size the SC88's LOAD/STORE issue. The
  /// default composes byte accesses (fine for memories); register devices
  /// override so a single STORE is a single register write, not four
  /// read-modify-write byte cycles with repeated side effects.
  virtual bool read32(std::uint32_t offset, std::uint32_t& value);
  virtual bool write32(std::uint32_t offset, std::uint32_t value);

  /// Advances device-local time (timers, UART shift registers, NVM state
  /// machines). Called with the cycles consumed by executed instructions
  /// (one instruction at a time on the traced path, a batch on the decoded
  /// fast path).
  virtual void tick(std::uint64_t cycles) { (void)cycles; }

  /// Contract pair with tick(): a device overriding tick() MUST also return
  /// true here, or Bus::tick_all will never call it (the bus only iterates
  /// devices that declared themselves ticking at map() time).
  [[nodiscard]] virtual bool wants_tick() const { return false; }

  /// Cycles of tick() the device can absorb from *now* before it could
  /// raise an IRQ line. kNoEventHorizon means "never". It bounds IRQ raises
  /// only, not read values: a UART counting down its transmitter reports
  /// kNoEventHorizon while its STATUS still changes under tick(). Reporting
  /// early is always safe; reporting late is a bug — the decoded fast path
  /// defers tick_all up to this horizon.
  [[nodiscard]] virtual std::uint64_t next_event_horizon() const {
    return kNoEventHorizon;
  }

  /// Stuck-loop proof hooks (Machine::run_decoded). Both are conservative
  /// promises and default to false:
  ///  - read_is_pure(offset): an aligned word read at `offset` has no side
  ///    effect (pops no FIFO, clears no flag, counts nothing);
  ///  - quiescent(): no tick() can change any value a read returns, so
  ///    without a bus write every read keeps returning the same word.
  [[nodiscard]] virtual bool read_is_pure(std::uint32_t offset) const {
    (void)offset;
    return false;
  }
  [[nodiscard]] virtual bool quiescent() const { return false; }

  /// Stable pointer to the device's raw byte image, or nullptr. Non-null is
  /// a promise that (a) read8/read32 are side-effect-free and equivalent to
  /// reading these bytes, and (b) every content change bumps generation().
  /// Memories satisfy this; MMIO devices and init-tracking RAM (whose reads
  /// count X-propagation warnings) must return nullptr.
  [[nodiscard]] virtual const std::uint8_t* direct_bytes() const {
    return nullptr;
  }

  /// Write-generation counter: bumped on every content mutation of a
  /// direct_bytes() device. The decoded-instruction cache keys pages on it.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Returns the device to its power-on state. Every stateful device
  /// overrides this; it is what lets a Board be pooled and reused across
  /// test runs with outcomes identical to a freshly constructed one.
  virtual void reset() {}

 protected:
  void bump_generation() { ++generation_; }

 private:
  std::uint64_t generation_ = 0;
};

/// A resolved device window: the fast fetch/data paths cache one of these so
/// sequential accesses skip the per-access binary search, and — when `bytes`
/// is non-null — the virtual byte-compose entirely.
struct BusWindow {
  std::uint32_t base = 0;
  std::uint32_t size = 0;
  BusDevice* device = nullptr;
  const std::uint8_t* bytes = nullptr;  ///< direct image, or nullptr (MMIO)

  [[nodiscard]] bool contains(std::uint32_t addr, std::uint32_t len) const {
    return device != nullptr && len <= size && addr - base <= size - len;
  }
};

/// Word-register peripheral convenience base: devices exposing aligned
/// 32-bit registers implement read_reg/write_reg and inherit byte-lane
/// adaptation. Byte writes perform read-modify-write on the whole register.
class MmioDevice : public BusDevice {
 public:
  bool read8(std::uint32_t offset, std::uint8_t& value) final;
  bool write8(std::uint32_t offset, std::uint8_t value) final;
  /// Aligned word access maps 1:1 onto a register transaction; unaligned
  /// word access to registers is a bus error (as on real peripherals).
  bool read32(std::uint32_t offset, std::uint32_t& value) final;
  bool write32(std::uint32_t offset, std::uint32_t value) final;

 protected:
  /// `reg` is the word-aligned offset (offset & ~3u).
  virtual bool read_reg(std::uint32_t reg, std::uint32_t& value) = 0;
  virtual bool write_reg(std::uint32_t reg, std::uint32_t value) = 0;
};

/// The system bus: owns devices, routes accesses.
class Bus {
 public:
  /// Maps a device at [base, base+device->size()). Returns false (and does
  /// not map) if the window overlaps an existing mapping.
  bool map(std::uint32_t base, std::unique_ptr<BusDevice> device);

  [[nodiscard]] bool read8(std::uint32_t addr, std::uint8_t& value) const;
  [[nodiscard]] bool write8(std::uint32_t addr, std::uint8_t value);
  [[nodiscard]] bool read32(std::uint32_t addr, std::uint32_t& value) const;
  [[nodiscard]] bool write32(std::uint32_t addr, std::uint32_t value);

  /// Fetches one 12-byte instruction word.
  [[nodiscard]] bool fetch(std::uint32_t addr, isa::EncodedInstr& word) const;

  /// Bulk load (program image loading). Fails if any byte is unmapped.
  [[nodiscard]] bool load_bytes(std::uint32_t addr,
                                const std::vector<std::uint8_t>& bytes);

  /// Advances device time. Only devices whose wants_tick() returned true at
  /// map() time are visited — Ram/Rom no-op ticks cost nothing.
  void tick_all(std::uint64_t cycles);

  /// Minimum next_event_horizon() over the ticking devices: how many cycles
  /// of tick_all can be deferred before any device could raise an IRQ.
  [[nodiscard]] std::uint64_t next_event_horizon() const;

  /// Resolves the window containing `addr` into `window` (with the device's
  /// direct byte image when it has one). Returns false if unmapped.
  [[nodiscard]] bool resolve_window(std::uint32_t addr,
                                    BusWindow& window) const;

  /// Resets every mapped device to its power-on state (see
  /// BusDevice::reset). The mappings themselves are untouched.
  void reset_devices();

  /// Finds the device mapped at `addr`, or nullptr. Used by debug ports.
  [[nodiscard]] BusDevice* device_at(std::uint32_t addr);

  [[nodiscard]] std::size_t device_count() const { return mappings_.size(); }
  [[nodiscard]] std::size_t ticking_count() const { return ticking_.size(); }

 private:
  struct Mapping {
    std::uint32_t base = 0;
    std::uint32_t size = 0;
    std::unique_ptr<BusDevice> device;
  };
  [[nodiscard]] const Mapping* find(std::uint32_t addr) const;

  std::vector<Mapping> mappings_;      // sorted by base
  std::vector<BusDevice*> ticking_;    // devices with wants_tick()
};

/// Plain RAM. Optionally tracks per-byte initialisation so the gate-level
/// platform can flag reads of never-written memory (X-propagation checking).
class Ram : public BusDevice {
 public:
  Ram(std::string name, std::uint32_t size, bool track_init = false);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t size() const override {
    return static_cast<std::uint32_t>(bytes_.size());
  }
  bool read8(std::uint32_t offset, std::uint8_t& value) override;
  bool write8(std::uint32_t offset, std::uint8_t value) override;
  /// Single-memcpy word access. read32 preserves the byte-composed
  /// uninitialized-read accounting exactly (one count per never-written
  /// byte), so X-propagation warnings are unchanged by the fast path.
  bool read32(std::uint32_t offset, std::uint32_t& value) override;
  bool write32(std::uint32_t offset, std::uint32_t value) override;
  /// Clears only the dirty pages, not the whole array — board pooling
  /// resets after every test, and a test touches a few KB of a 256KB
  /// memory (a watermark range would not do: the stack lives at the top
  /// and the vector table at the bottom, spanning everything).
  void reset() override;

  /// Reads of init-tracking RAM count X-propagation warnings, so only
  /// plain RAM exposes its image to the decoded fetch path.
  [[nodiscard]] const std::uint8_t* direct_bytes() const override {
    return track_init_ ? nullptr : bytes_.data();
  }

  /// Number of reads that touched never-written bytes.
  [[nodiscard]] std::uint64_t uninitialized_reads() const {
    return uninitialized_reads_;
  }

 private:
  /// Dirty-page granularity: 4KB pages, one bit per page.
  static constexpr std::uint32_t kPageShift = 12;

  std::string name_;
  std::vector<std::uint8_t> bytes_;
  std::vector<bool> initialized_;
  bool track_init_ = false;
  std::uint64_t uninitialized_reads_ = 0;
  std::vector<std::uint64_t> dirty_pages_;  ///< bitmap, bit i = page i
};

/// ROM: writes are rejected (bus error), matching real mask ROM behaviour.
class Rom : public BusDevice {
 public:
  Rom(std::string name, std::uint32_t size);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::uint32_t size() const override {
    return static_cast<std::uint32_t>(bytes_.size());
  }
  bool read8(std::uint32_t offset, std::uint8_t& value) override;
  bool write8(std::uint32_t offset, std::uint8_t value) override;
  bool read32(std::uint32_t offset, std::uint32_t& value) override;
  /// Clears only the programmed watermark range (see Ram::reset).
  void reset() override;

  [[nodiscard]] const std::uint8_t* direct_bytes() const override {
    return bytes_.data();
  }

  /// Image loading backdoor (not a bus write).
  void program(std::uint32_t offset, const std::vector<std::uint8_t>& bytes);

 private:
  std::string name_;
  std::vector<std::uint8_t> bytes_;
  std::uint32_t dirty_lo_ = 0;
  std::uint32_t dirty_hi_ = 0;
};

}  // namespace advm::sim
