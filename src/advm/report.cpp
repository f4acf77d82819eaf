#include "advm/report.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <locale>
#include <sstream>
#include <vector>

#include "support/hash.h"

namespace advm::core {

namespace {

/// Shared stream setup: modeled-seconds doubles print with enough digits
/// to round-trip, and never in locale-dependent formats.
std::ostringstream make_stream() {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(12);
  return os;
}

void append_quoted(std::ostringstream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

/// {"ok":false,"verb":...,"error":{...}} — the error half every verb
/// shares.
std::string error_document(std::string_view verb, const Status& status) {
  auto os = make_stream();
  os << "{\"ok\":false,\"verb\":";
  append_quoted(os, verb);
  os << ",\"error\":{\"code\":";
  append_quoted(os, status.code);
  os << ",\"message\":";
  append_quoted(os, status.message);
  os << "}}";
  return os.str();
}

void append_record(std::ostringstream& os, const TestRunRecord& r) {
  os << "{\"environment\":";
  append_quoted(os, r.environment);
  os << ",\"test\":";
  append_quoted(os, r.test_id);
  os << ",\"build_ok\":" << (r.build_ok ? "true" : "false");
  os << ",\"passed\":" << (r.passed() ? "true" : "false");
  os << ",\"verdict\":";
  append_quoted(os, soc::to_string(r.verdict));
  os << ",\"stop\":";
  append_quoted(os, sim::to_string(r.stop));
  os << ",\"instructions\":" << r.instructions;
  os << ",\"cycles\":" << r.cycles;
  os << ",\"state_digest\":";
  append_quoted(os, support::hash_to_string(r.state_digest));
  os << ",\"modeled_seconds\":" << r.modeled_seconds;
  if (!r.detail.empty()) {
    os << ",\"detail\":";
    append_quoted(os, r.detail);
  }
  if (!r.stuck.empty()) {
    os << ",\"stuck\":";
    append_quoted(os, r.stuck);
  }
  if (r.x_register_reads != 0) {
    os << ",\"x_register_reads\":" << r.x_register_reads;
  }
  if (r.x_ram_reads != 0) os << ",\"x_ram_reads\":" << r.x_ram_reads;
  os << "}";
}

/// `digest` is report.outcome_digest(), which the caller computes once per
/// render: a matrix document prints each cell's digest twice.
void append_report(std::ostringstream& os, const RegressionReport& report,
                   std::uint64_t digest) {
  os << "{\"derivative\":";
  append_quoted(os, report.derivative);
  os << ",\"platform\":";
  append_quoted(os, sim::to_string(report.platform));
  os << ",\"records\":[";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    if (i != 0) os << ",";
    append_record(os, report.records[i]);
  }
  os << "],\"passed\":" << report.passed();
  os << ",\"total\":" << report.records.size();
  os << ",\"build_failures\":" << report.build_failures();
  os << ",\"all_passed\":" << (report.all_passed() ? "true" : "false");
  os << ",\"total_instructions\":" << report.total_instructions();
  os << ",\"total_modeled_seconds\":" << report.total_modeled_seconds();
  os << ",\"outcome_digest\":";
  append_quoted(os, support::hash_to_string(digest));
  os << ",\"cache\":" << cache_counters_to_json(report.cache) << "}";
}

/// Each cell's outcome_digest(), in cell order.
std::vector<std::uint64_t> cell_digests(const MatrixResult& result) {
  std::vector<std::uint64_t> digests;
  digests.reserve(result.cells.size());
  for (const RegressionReport& cell : result.cells) {
    digests.push_back(cell.outcome_digest());
  }
  return digests;
}

void append_rollup(std::ostringstream& os, const MatrixResult& result,
                   const std::vector<std::uint64_t>& digests) {
  os << "[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const RegressionReport& cell = result.cells[i];
    if (i != 0) os << ",";
    os << "{\"derivative\":";
    append_quoted(os, cell.derivative);
    os << ",\"platform\":";
    append_quoted(os, sim::to_string(cell.platform));
    os << ",\"passed\":" << cell.passed();
    os << ",\"total\":" << cell.records.size();
    os << ",\"build_failures\":" << cell.build_failures();
    os << ",\"outcome_digest\":";
    append_quoted(os, support::hash_to_string(digests[i]));
    os << "}";
  }
  os << "]";
}

void append_edit_summary(std::ostringstream& os, std::string_view key,
                         const EditSummary& summary) {
  os << "\"" << key << "\":{\"files\":" << summary.files_touched()
     << ",\"lines_added\":" << summary.lines().added
     << ",\"lines_removed\":" << summary.lines().removed << "}";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string cache_counters_to_json(const ObjectCacheStats& stats) {
  auto os = make_stream();
  os << "{\"hits\":" << stats.hits << ",\"misses\":" << stats.misses
     << ",\"bytes\":" << stats.bytes << ",\"evictions\":" << stats.evictions
     << ",\"persistent_hits\":" << stats.persistent_hits << "}";
  return os.str();
}

std::string error_to_json(std::string_view verb, const Status& status) {
  return error_document(verb, status);
}

std::string rollup_to_json(const MatrixResult& result) {
  auto os = make_stream();
  append_rollup(os, result, cell_digests(result));
  return os.str();
}

std::string to_json(const BuildResult& result) {
  if (!result.status.ok()) return error_document("init", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"init\",\"derivative\":";
  append_quoted(os, result.derivative);
  os << ",\"root\":";
  append_quoted(os, result.layout.root);
  os << ",\"files\":" << result.files;
  os << ",\"tests\":" << result.tests;
  os << ",\"environments\":[";
  for (std::size_t i = 0; i < result.layout.environments.size(); ++i) {
    if (i != 0) os << ",";
    append_quoted(os, result.layout.environments[i].name);
  }
  os << "]}";
  return os.str();
}

std::string to_json(const RunResult& result) {
  if (!result.status.ok()) return error_document("run", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"run\",\"report\":";
  append_report(os, result.report, result.report.outcome_digest());
  os << "}";
  return os.str();
}

std::string to_json(const MatrixResult& result) {
  if (!result.status.ok()) return error_document("matrix", result.status);
  auto os = make_stream();
  // "backend" and "shards" are fixed: one in-process execution path. The
  // keys stay so existing consumers (and the goldens) keep their bytes.
  os << "{\"ok\":true,\"verb\":\"matrix\",\"backend\":\"thread\","
        "\"shards\":1";
  const std::vector<std::uint64_t> digests = cell_digests(result);
  os << ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i != 0) os << ",";
    append_report(os, result.cells[i], digests[i]);
  }
  os << "],\"all_passed\":" << (result.all_passed() ? "true" : "false")
     << ",\"rollup\":";
  append_rollup(os, result, digests);
  os << "}";
  return os.str();
}

std::string to_json(const PortResult& result) {
  if (!result.status.ok()) return error_document("port", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"port\",\"target\":";
  append_quoted(os, result.target);
  os << ",";
  append_edit_summary(os, "global_layer", result.repair.global_layer);
  os << ",";
  append_edit_summary(os, "abstraction_layer",
                      result.repair.abstraction_layer);
  os << ",";
  append_edit_summary(os, "test_layer", result.repair.test_layer);
  os << "}";
  return os.str();
}

std::string to_json(const CheckResult& result) {
  if (!result.status.ok()) return error_document("check", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"check\",\"clean\":"
     << (result.report.clean() ? "true" : "false");
  os << ",\"count\":" << result.report.violations.size();
  os << ",\"violations\":[";
  for (std::size_t i = 0; i < result.report.violations.size(); ++i) {
    const Violation& v = result.report.violations[i];
    if (i != 0) os << ",";
    os << "{\"code\":";
    append_quoted(os, v.code);
    os << ",\"file\":";
    append_quoted(os, v.file);
    os << ",\"line\":" << (v.loc.valid() ? v.loc.line : 0);
    os << ",\"detail\":";
    append_quoted(os, v.detail);
    os << "}";
  }
  os << "]}";
  return os.str();
}

std::string to_json(const LintResult& result) {
  if (!result.status.ok()) return error_document("lint", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"lint\",\"clean\":"
     << (result.report.clean() ? "true" : "false");
  os << ",\"count\":" << result.report.findings.size();
  os << ",\"cells\":" << result.report.cells;
  os << ",\"findings\":[";
  for (std::size_t i = 0; i < result.report.findings.size(); ++i) {
    const LintFinding& f = result.report.findings[i];
    if (i != 0) os << ",";
    os << "{\"code\":";
    append_quoted(os, f.code);
    os << ",\"environment\":";
    append_quoted(os, f.environment);
    os << ",\"test\":";
    append_quoted(os, f.test_id);
    os << ",\"file\":";
    append_quoted(os, f.file);
    os << ",\"address\":" << f.address;
    os << ",\"symbol\":";
    append_quoted(os, f.symbol);
    os << ",\"detail\":";
    append_quoted(os, f.detail);
    os << "}";
  }
  os << "],\"by_code\":{";
  bool first = true;
  for (const auto& [code, n] : result.report.by_code()) {
    if (!first) os << ",";
    first = false;
    append_quoted(os, code);
    os << ":" << n;
  }
  os << "}}";
  return os.str();
}

std::string to_json(const ReleaseResult& result) {
  if (!result.status.ok()) return error_document("release", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"release\",\"name\":";
  append_quoted(os, result.release.name);
  os << ",\"root\":";
  append_quoted(os, result.release.root);
  os << ",\"composed_hash\":";
  append_quoted(os, support::hash_to_string(result.release.composed_hash));
  os << ",\"verified\":" << (result.verified ? "true" : "false");
  os << ",\"sub_labels\":[";
  for (std::size_t i = 0; i < result.release.sub_labels.size(); ++i) {
    const ReleaseLabel& label = result.release.sub_labels[i];
    if (i != 0) os << ",";
    os << "{\"name\":";
    append_quoted(os, label.name);
    os << ",\"hash\":";
    append_quoted(os, support::hash_to_string(label.content_hash));
    os << "}";
  }
  os << "],\"frozen\":";
  append_report(os, result.frozen, result.frozen.outcome_digest());
  os << "}";
  return os.str();
}

std::string to_json(const RandomResult& result) {
  if (!result.status.ok()) return error_document("random", result.status);
  auto os = make_stream();
  os << "{\"ok\":true,\"verb\":\"random\",\"seed\":" << result.seed;
  os << ",\"regenerated\":" << result.regenerated;
  os << ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : result.values) {
    if (!first) os << ",";
    first = false;
    append_quoted(os, name);
    os << ":" << value;
  }
  os << "}}";
  return os.str();
}

std::string format_matrix_rollup(const MatrixResult& result) {
  // Recover the cube's axes from the derivative-major cell order.
  std::vector<std::string> derivatives;
  std::vector<std::string> platforms;
  for (const RegressionReport& cell : result.cells) {
    const std::string platform(sim::to_string(cell.platform));
    if (derivatives.empty() || derivatives.back() != cell.derivative) {
      bool seen = false;
      for (const auto& d : derivatives) seen = seen || d == cell.derivative;
      if (!seen) derivatives.push_back(cell.derivative);
    }
    bool seen = false;
    for (const auto& p : platforms) seen = seen || p == platform;
    if (!seen) platforms.push_back(platform);
  }

  std::size_t col = 10;  // widths: longest derivative / platform name
  for (const auto& d : derivatives) col = std::max(col, d.size());
  std::size_t pcol = 8;
  for (const auto& p : platforms) pcol = std::max(pcol, p.size());

  auto os = make_stream();
  os << "matrix roll-up (" << derivatives.size() << " derivatives x "
     << platforms.size() << " platforms):\n";
  os << "  " << std::left << std::setw(static_cast<int>(col) + 2)
     << "derivative" << std::setw(static_cast<int>(pcol) + 2) << "platform"
     << std::setw(10) << "passed" << std::setw(12) << "build-fail"
     << "outcome digest\n";
  for (const RegressionReport& cell : result.cells) {
    os << "  " << std::left << std::setw(static_cast<int>(col) + 2)
       << cell.derivative << std::setw(static_cast<int>(pcol) + 2)
       << sim::to_string(cell.platform) << std::setw(10)
       << (std::to_string(cell.passed()) + "/" +
           std::to_string(cell.records.size()))
       << std::setw(12) << cell.build_failures()
       << support::hash_to_string(cell.outcome_digest()) << "\n";
  }
  return os.str();
}

}  // namespace advm::core
