// Change engine + porting engine: the paper's §4 change scenarios, applied
// mechanically, with edit-cost accounting.
//
// A ChangeEvent models one "world change" from the paper:
//   * specification change — the page field moves (Fig 6 discussion);
//   * derivative change — the page field widens for more pages (Fig 6);
//   * global-layer churn — ES function's input registers swapped / function
//     renamed / re-coded (Fig 7); register renames (§2);
//   * full derivative switch (the headline porting scenario).
//
// Applying a change yields a new DerivativeSpec. The PortingEngine then
// *repairs* each environment the way its methodology prescribes:
//
//   ADVM      → regenerate the abstraction layer; test files untouched.
//   baseline  → regenerate (i.e. hand-edit) every affected test file.
//
// The returned RepairReport counts files touched and lines changed per
// scope, which is exactly the quantity the paper claims the ADVM minimises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "advm/environment.h"
#include "soc/derivative.h"
#include "support/diff.h"
#include "support/vfs.h"

namespace advm::core {

enum class ChangeKind : std::uint8_t {
  PageFieldMoved,      ///< field start position shifted (paper §4, change 1)
  PageFieldWidened,    ///< field width +1 bit, more pages (paper §4, change 2)
  RegistersRenamed,    ///< global register definitions renamed (paper §2)
  EsSignatureChanged,  ///< ES input registers swapped (paper Fig 7)
  EsFunctionRenamed,   ///< ES function renamed (paper Fig 7 discussion)
  NvmCommandsChanged,  ///< command opcodes revised
  UartUpgraded,        ///< v2 FIFO UART: status bits move
  DerivativeSwitch,    ///< retarget to an entirely different derivative
};

[[nodiscard]] const char* to_string(ChangeKind k);

struct ChangeEvent {
  ChangeKind kind = ChangeKind::PageFieldMoved;
  int amount = 1;  ///< shift distance / width delta, where applicable
  const soc::DerivativeSpec* target = nullptr;  ///< for DerivativeSwitch

  [[nodiscard]] std::string describe() const;
};

/// Applies the change to a derivative spec, producing the post-change world.
[[nodiscard]] soc::DerivativeSpec apply_change(const soc::DerivativeSpec& spec,
                                               const ChangeEvent& event);

/// One rewritten file, with its diff against the previous content.
struct FileEdit {
  std::string path;
  support::LineDiff diff;
};

struct EditSummary {
  std::vector<FileEdit> edits;

  [[nodiscard]] std::size_t files_touched() const;
  [[nodiscard]] support::LineDiff lines() const;
};

/// Edit accounting for one repair pass.
struct RepairReport {
  EditSummary global_layer;       ///< world updates — hit both methodologies
  EditSummary abstraction_layer;  ///< ADVM repair surface
  EditSummary test_layer;         ///< baseline repair surface
};

/// Rewrites every generated artifact of the system for `new_spec`,
/// recording diffs. ADVM environments get abstraction-layer regeneration;
/// baseline environments get per-test regeneration.
class PortingEngine {
 public:
  explicit PortingEngine(support::VirtualFileSystem& vfs) : vfs_(vfs) {}

  [[nodiscard]] RepairReport port(const SystemLayout& layout,
                                  const soc::DerivativeSpec& new_spec,
                                  const GlobalsOptions& globals,
                                  const BaseFunctionsOptions& base_functions);

 private:
  /// Writes `content` to `path` if different; records the diff.
  void rewrite(EditSummary& summary, const std::string& path,
               const std::string& content);

  support::VirtualFileSystem& vfs_;
};

}  // namespace advm::core
