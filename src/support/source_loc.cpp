#include "support/source_loc.h"

#include <mutex>
#include <set>

namespace advm::support {

namespace {

std::mutex intern_mutex;

/// Every name ever interned. Set nodes never move, and the set is never
/// destroyed, so a pointer to a name stays valid until the process ends.
std::set<std::string, std::less<>>& interned_names() {
  static auto* names = new std::set<std::string, std::less<>>();
  return *names;
}

}  // namespace

SourceName::SourceName(std::string_view name) {
  if (name.empty()) return;
  const std::lock_guard<std::mutex> lock(intern_mutex);
  auto& names = interned_names();
  auto it = names.find(name);
  if (it == names.end()) it = names.emplace(name).first;
  name_ = &*it;
}

const std::string& SourceName::str() const {
  static const std::string kEmpty;
  return name_ != nullptr ? *name_ : kEmpty;
}

}  // namespace advm::support
