// Abstraction-violation checker — the paper's Fig 2 ("Abuse of the Module
// Test Environment Structure") as a detectable anti-pattern.
//
// "Often, it is tempting to bypass the abstraction layer, especially when
//  under time pressure. However, by doing so, any protection from change
//  will be lost and re-factoring of all relevant tests will be required."
//  (paper §2)
//
// Violation classes checked, with stable codes:
//
//   advm.global-include    test includes a global-layer file directly
//                          (register defs / ES), instead of via Globals.inc
//   advm.global-call       test links directly against a global-layer
//                          function (the Fig 7 anti-pattern)
//   advm.hardwired-magic   numeric literal >= 0x10000 in a test — device
//                          addresses, data patterns, verdict magics
//   advm.hardwired-field   INSERT/EXTRACT bit position given as a raw
//                          number instead of an abstraction define (Fig 6)
//   advm.derivative-name   environment named after a derivative (paper §2:
//                          "Derivative specific names are not permitted")
//   advm.unbuildable       the cell no longer assembles/links at all — the
//                          end state of unrepaired hardwired code
#pragma once

#include <map>
#include <string>
#include <vector>

#include "advm/objcache.h"
#include "sim/platform.h"
#include "soc/derivative.h"
#include "support/source_loc.h"
#include "support/vfs.h"

namespace advm::core {

struct Violation {
  std::string code;
  std::string file;
  support::SourceLoc loc;
  std::string detail;
};

struct ViolationReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] std::size_t count(std::string_view code) const;
  [[nodiscard]] std::map<std::string, std::size_t> by_code() const;
};

class ViolationChecker {
 public:
  /// Linkage checks build each cell through the cell recipe every verb
  /// shares (prepare_environment + link_cell, advm/regression.h). Objects
  /// come from `cache` (the checker's own by default), so an environment's
  /// base-function/trap/ES objects assemble once per check run, not once
  /// per test cell. Pass the cache a RegressionRunner uses to share objects
  /// between a regression and a violation check in one process.
  explicit ViolationChecker(const support::VirtualFileSystem& vfs,
                            ObjectCache* cache = nullptr)
      : vfs_(vfs), cache_(cache ? cache : &owned_cache_) {}

  /// Checks every test cell of every environment under a system root
  /// (discover_environments / discover_tests order); assembly and linking
  /// run against `spec`.
  [[nodiscard]] ViolationReport check_system(std::string_view system_root,
                                             const soc::DerivativeSpec& spec);

 private:
  const support::VirtualFileSystem& vfs_;
  ObjectCache owned_cache_;
  ObjectCache* cache_ = nullptr;
};

}  // namespace advm::core
