#include "advm/objstore.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/hash.h"

namespace advm::core {

namespace fs = std::filesystem;

using assembler::IncludeEdge;
using assembler::ObjectFile;
using assembler::ObjSection;
using assembler::ObjSymbol;
using assembler::Relocation;

namespace {

constexpr char kMagic[8] = {'A', 'D', 'V', 'M', 'O', 'B', 'J', '1'};
constexpr std::size_t kEntryCap = 64u << 20;  ///< sanity bound per field

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Cursor over the serialized image; every read is bounds-checked so a
/// truncated file can never index past the buffer.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint32_t u32() {
    if (!ok || pos + 4 > bytes.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!ok || pos + 8 > bytes.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || n > kEntryCap || pos + n > bytes.size()) {
      ok = false;
      return {};
    }
    std::string out(bytes.substr(pos, n));
    pos += n;
    return out;
  }

  /// Element count for a sequence of elements at least `min_bytes` each —
  /// rejects counts a truncated buffer could never satisfy before any
  /// vector reserves that much.
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (!ok || (min_bytes != 0 && n > bytes.size() / min_bytes)) {
      ok = false;
      return 0;
    }
    return n;
  }
};

void put_loc(std::string& out, const support::SourceLoc& loc) {
  put_str(out, loc.file);
  put_u32(out, loc.line);
  put_u32(out, loc.column);
}

support::SourceLoc read_loc(Reader& r) {
  support::SourceLoc loc;
  loc.file = r.str();
  loc.line = r.u32();
  loc.column = r.u32();
  return loc;
}

std::string encode_payload(const StoredObject& entry) {
  std::string out;
  put_str(out, entry.path);
  put_u64(out, entry.source_digest);
  put_u64(out, entry.options_digest);
  put_u64(out, entry.deps_digest);

  put_u32(out, static_cast<std::uint32_t>(entry.includes.size()));
  for (const IncludeEdge& edge : entry.includes) {
    put_str(out, edge.from_file);
    put_str(out, edge.to_file);
    put_loc(out, edge.loc);
  }

  put_u32(out, static_cast<std::uint32_t>(entry.probed_misses.size()));
  for (const std::string& path : entry.probed_misses) put_str(out, path);

  const ObjectFile& obj = entry.object;
  put_str(out, obj.name);
  put_u32(out, static_cast<std::uint32_t>(obj.sections.size()));
  for (const ObjSection& section : obj.sections) {
    put_str(out, section.name);
    put_u32(out, section.org.has_value() ? 1u : 0u);
    put_u32(out, section.org.value_or(0));
    put_str(out, std::string_view(
                     reinterpret_cast<const char*>(section.bytes.data()),
                     section.bytes.size()));
  }
  put_u32(out, static_cast<std::uint32_t>(obj.symbols.size()));
  for (const ObjSymbol& symbol : obj.symbols) {
    put_str(out, symbol.name);
    put_str(out, symbol.section);
    put_u32(out, symbol.offset);
    put_loc(out, symbol.loc);
  }
  put_u32(out, static_cast<std::uint32_t>(obj.relocations.size()));
  for (const Relocation& reloc : obj.relocations) {
    put_str(out, reloc.section);
    put_u32(out, reloc.offset);
    put_str(out, reloc.symbol);
    put_u64(out, static_cast<std::uint64_t>(reloc.addend));
    put_u32(out, reloc.size);
    put_loc(out, reloc.loc);
  }
  return out;
}

}  // namespace

std::string encode_stored_object(const StoredObject& entry) {
  const std::string payload = encode_payload(entry);
  std::string out(kMagic, sizeof kMagic);
  put_u64(out, support::hash_bytes(payload));
  out += payload;
  return out;
}

std::optional<StoredObject> decode_stored_object(std::string_view bytes) {
  if (bytes.size() < sizeof kMagic + 8 ||
      bytes.substr(0, sizeof kMagic) != std::string_view(kMagic,
                                                         sizeof kMagic)) {
    return std::nullopt;
  }
  Reader header{bytes.substr(sizeof kMagic), 0, true};
  const std::uint64_t checksum = header.u64();
  const std::string_view payload = bytes.substr(sizeof kMagic + 8);
  if (support::hash_bytes(payload) != checksum) return std::nullopt;

  Reader r{payload, 0, true};
  StoredObject entry;
  entry.path = r.str();
  entry.source_digest = r.u64();
  entry.options_digest = r.u64();
  entry.deps_digest = r.u64();

  const std::uint32_t include_count = r.count(8);
  entry.includes.reserve(include_count);
  for (std::uint32_t i = 0; r.ok && i < include_count; ++i) {
    IncludeEdge edge;
    edge.from_file = r.str();
    edge.to_file = r.str();
    edge.loc = read_loc(r);
    entry.includes.push_back(std::move(edge));
  }

  const std::uint32_t probe_count = r.count(4);
  entry.probed_misses.reserve(probe_count);
  for (std::uint32_t i = 0; r.ok && i < probe_count; ++i) {
    entry.probed_misses.push_back(r.str());
  }

  entry.object.name = r.str();
  const std::uint32_t section_count = r.count(12);
  entry.object.sections.reserve(section_count);
  for (std::uint32_t i = 0; r.ok && i < section_count; ++i) {
    ObjSection section;
    section.name = r.str();
    const bool has_org = r.u32() != 0;
    const std::uint32_t org = r.u32();
    if (has_org) section.org = org;
    const std::string data = r.str();
    section.bytes.assign(data.begin(), data.end());
    entry.object.sections.push_back(std::move(section));
  }
  const std::uint32_t symbol_count = r.count(12);
  entry.object.symbols.reserve(symbol_count);
  for (std::uint32_t i = 0; r.ok && i < symbol_count; ++i) {
    ObjSymbol symbol;
    symbol.name = r.str();
    symbol.section = r.str();
    symbol.offset = r.u32();
    symbol.loc = read_loc(r);
    entry.object.symbols.push_back(std::move(symbol));
  }
  const std::uint32_t reloc_count = r.count(24);
  entry.object.relocations.reserve(reloc_count);
  for (std::uint32_t i = 0; r.ok && i < reloc_count; ++i) {
    Relocation reloc;
    reloc.section = r.str();
    reloc.offset = r.u32();
    reloc.symbol = r.str();
    reloc.addend = static_cast<std::int64_t>(r.u64());
    reloc.size = static_cast<std::uint8_t>(r.u32());
    reloc.loc = read_loc(r);
    entry.object.relocations.push_back(std::move(reloc));
  }

  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  return entry;
}

PersistentObjectStore::PersistentObjectStore(std::string dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // best-effort; load/store re-check
}

std::string PersistentObjectStore::entry_name(std::uint64_t key) {
  return support::hash_to_string(key) + ".advmobj";
}

std::optional<StoredObject> PersistentObjectStore::load(
    std::uint64_t key) const {
  std::ifstream in(fs::path(dir_) / entry_name(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return decode_stored_object(os.str());
}

bool PersistentObjectStore::store(std::uint64_t key,
                                  const StoredObject& entry) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const fs::path target = fs::path(dir_) / entry_name(key);
  // Private temp name (pid + address entropy) in the *same directory* so
  // the final rename is within one filesystem and therefore atomic.
  std::ostringstream tmp_name;
  tmp_name << entry_name(key) << ".tmp." << ::getpid() << "."
           << reinterpret_cast<std::uintptr_t>(&entry);
  const fs::path tmp = fs::path(dir_) / tmp_name.str();
  const std::string bytes = encode_stored_object(entry);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace advm::core
