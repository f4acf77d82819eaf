// Unit tests for the support layer: text utilities, VFS, hashing, RNG,
// diagnostics.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <set>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "support/diagnostics.h"
#include "support/disk.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/text.h"
#include "support/vfs.h"

namespace {

using namespace advm::support;
using namespace std::string_literals;

// ---------------------------------------------------------------- text ----

TEST(Text, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Text, SplitKeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Text, SplitLinesHandlesCrLfAndFinalLine) {
  auto lines = split_lines("one\r\ntwo\nthree");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(Text, SplitLinesEmptyInput) {
  EXPECT_TRUE(split_lines("").empty());
}

TEST(Text, CaseHelpers) {
  EXPECT_EQ(to_upper("MixedCase123"), "MIXEDCASE123");
  EXPECT_EQ(to_lower("MixedCase123"), "mixedcase123");
  EXPECT_TRUE(equals_nocase(".INCLUDE", ".include"));
  EXPECT_FALSE(equals_nocase("abc", "abcd"));
  EXPECT_TRUE(starts_with_nocase(".ENDM  ; comment", ".endm"));
  EXPECT_FALSE(starts_with_nocase("x", "xyz"));
}

TEST(Text, ParseIntegerDecimalHexBinary) {
  EXPECT_EQ(parse_integer("42"), 42);
  EXPECT_EQ(parse_integer("0x2A"), 42);
  EXPECT_EQ(parse_integer("0b101010"), 42);
  EXPECT_EQ(parse_integer("-7"), -7);
  EXPECT_EQ(parse_integer("1_000"), 1000);
  EXPECT_EQ(parse_integer("'A'"), 65);
}

TEST(Text, ParseIntegerRejectsMalformed) {
  EXPECT_FALSE(parse_integer("").has_value());
  EXPECT_FALSE(parse_integer("0x").has_value());
  EXPECT_FALSE(parse_integer("12ab").has_value());
  EXPECT_FALSE(parse_integer("0b102").has_value());
  EXPECT_FALSE(parse_integer("--3").has_value());
}

TEST(Text, ParseIntegerSixtyFourBitBoundary) {
  // Exactly 64 bits is the widest representable literal (all-ones reads as
  // -1, the classic assembler idiom); wider is malformed, not UB.
  EXPECT_EQ(parse_integer("0xFFFFFFFFFFFFFFFF"), -1);
  EXPECT_EQ(parse_integer("0FFFFFFFFFFFFFFFFh"), -1);
  EXPECT_EQ(parse_integer("18446744073709551615"), -1);  // 2^64 - 1
  EXPECT_EQ(parse_integer("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(parse_integer("0x10000000000000000").has_value());
  EXPECT_FALSE(parse_integer("11112222333344445h").has_value());
  EXPECT_FALSE(parse_integer("18446744073709551616").has_value());  // 2^64
}

TEST(Text, ReplaceAll) {
  EXPECT_EQ(replace_all("a@b@c", "@", "__1"), "a__1b__1c");
  EXPECT_EQ(replace_all("none", "@", "x"), "none");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
}

TEST(Text, CountLines) {
  EXPECT_EQ(count_lines(""), 0u);
  EXPECT_EQ(count_lines("one"), 1u);
  EXPECT_EQ(count_lines("one\n"), 1u);
  EXPECT_EQ(count_lines("one\ntwo"), 2u);
}

TEST(Text, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// ----------------------------------------------------------------- vfs ----

TEST(Vfs, NormalizePath) {
  EXPECT_EQ(normalize_path("a/b/c"), "/a/b/c");
  EXPECT_EQ(normalize_path("/a//b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/x/../b"), "/a/b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("../.."), "/");
}

TEST(Vfs, PathHelpers) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(base_name("/a/b/c.inc"), "c.inc");
  EXPECT_EQ(join_path("/a/b", "c.asm"), "/a/b/c.asm");
  EXPECT_EQ(join_path("/a/b/", "/c"), "/a/b/c");
}

TEST(Vfs, WriteReadRoundTrip) {
  VirtualFileSystem vfs;
  vfs.write("/env/Globals.inc", "PAGE .EQU 8\n");
  EXPECT_TRUE(vfs.exists("/env/Globals.inc"));
  EXPECT_EQ(vfs.read("/env/Globals.inc"), "PAGE .EQU 8\n");
  EXPECT_FALSE(vfs.read("/env/missing").has_value());
  EXPECT_THROW((void)vfs.read_required("/env/missing"), std::out_of_range);
}

TEST(Vfs, ListTreeIsSortedAndScoped) {
  VirtualFileSystem vfs;
  vfs.write("/env/b.asm", "b");
  vfs.write("/env/a.asm", "a");
  vfs.write("/other/c.asm", "c");
  auto tree = vfs.list_tree("/env");
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree[0], "/env/a.asm");
  EXPECT_EQ(tree[1], "/env/b.asm");
}

TEST(Vfs, ListDirShowsImmediateChildren) {
  VirtualFileSystem vfs;
  vfs.write("/env/sub/x.asm", "x");
  vfs.write("/env/sub/y.asm", "y");
  vfs.write("/env/top.asm", "t");
  auto entries = vfs.list_dir("/env");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "sub/");
  EXPECT_EQ(entries[1], "top.asm");
}

TEST(Vfs, RemoveTree) {
  VirtualFileSystem vfs;
  vfs.write("/env/a", "1");
  vfs.write("/env/b/c", "2");
  vfs.write("/keep", "3");
  EXPECT_EQ(vfs.remove_tree("/env"), 2u);
  EXPECT_FALSE(vfs.dir_exists("/env"));
  EXPECT_TRUE(vfs.exists("/keep"));
}

TEST(Vfs, CopyTreePreservesContent) {
  VirtualFileSystem vfs;
  vfs.write("/src/f1", "alpha");
  vfs.write("/src/d/f2", "beta");
  vfs.copy_tree("/src", "/dst");
  EXPECT_EQ(vfs.read("/dst/f1"), "alpha");
  EXPECT_EQ(vfs.read("/dst/d/f2"), "beta");
  EXPECT_EQ(vfs.read("/src/f1"), "alpha");  // source untouched
}

TEST(Vfs, ExportTreeToAnotherVfs) {
  VirtualFileSystem a;
  VirtualFileSystem b;
  a.write("/env/x", "payload");
  a.export_tree("/env", b, "/snapshot");
  EXPECT_EQ(b.read("/snapshot/x"), "payload");
}

// ---------------------------------------------------------------- hash ----

TEST(Hash, TreeHashIsOrderIndependentOfInsertion) {
  VirtualFileSystem a;
  VirtualFileSystem b;
  a.write("/t/1", "one");
  a.write("/t/2", "two");
  b.write("/t/2", "two");
  b.write("/t/1", "one");
  EXPECT_EQ(hash_tree(a, "/t"), hash_tree(b, "/t"));
}

TEST(Hash, TreeHashDetectsContentChange) {
  VirtualFileSystem vfs;
  vfs.write("/t/file", "v1");
  auto before = hash_tree(vfs, "/t");
  vfs.write("/t/file", "v2");
  EXPECT_NE(before, hash_tree(vfs, "/t"));
}

TEST(Hash, TreeHashIsPrefixRelative) {
  VirtualFileSystem vfs;
  vfs.write("/a/x", "same");
  vfs.write("/b/x", "same");
  EXPECT_EQ(hash_tree(vfs, "/a"), hash_tree(vfs, "/b"));
}

TEST(Hash, ToStringIs16HexDigits) {
  EXPECT_EQ(hash_to_string(0), "0000000000000000");
  EXPECT_EQ(hash_to_string(0xdeadbeefULL), "00000000deadbeef");
}

// ----------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeStaysInBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(3, 17);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 17u);
  }
}

TEST(Rng, RangeCoversAllValuesEventually) {
  SplitMix64 rng(1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.range(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

// -------------------------------------------------------------- diags -----

TEST(Diagnostics, CountsBySeverity) {
  DiagnosticEngine de;
  de.note("n.code", "a note");
  de.warning("w.code", "a warning");
  de.error("e.code", "an error");
  EXPECT_EQ(de.error_count(), 1u);
  EXPECT_EQ(de.warning_count(), 1u);
  EXPECT_TRUE(de.has_errors());
  EXPECT_TRUE(de.has_code("w.code"));
  EXPECT_EQ(de.count_code("e.code"), 1u);
  EXPECT_FALSE(de.has_code("missing"));
}

TEST(Diagnostics, RenderingIncludesLocationAndCode) {
  DiagnosticEngine de;
  de.error("asm.test", "boom", {"file.asm", 12, 3});
  EXPECT_EQ(de.all()[0].to_string(), "file.asm:12:3: error [asm.test]: boom");
}

TEST(Diagnostics, ClearResets) {
  DiagnosticEngine de;
  de.error("e", "x");
  de.clear();
  EXPECT_FALSE(de.has_errors());
  EXPECT_TRUE(de.all().empty());
}

// ---------------------------------------------------------------- disk ----

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("advm_disk_test_" + std::to_string(::getpid()));
  }
  ~DiskTest() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

/// The std::runtime_error message `fn` throws, or "" when it returns.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Writes `content` to a host file, creating its parent directories.
void write_host_file(const std::filesystem::path& path,
                     const std::string& content) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream(path, std::ios::binary) << content;
}

TEST_F(DiskTest, ExportImportRoundTripPreservesTree) {
  VirtualFileSystem vfs;
  vfs.write("/env/Abstraction_Layer/Globals.inc", "PAGE .EQU 8\n");
  vfs.write("/env/TEST_1/test.asm", "_main: HALT\n");
  vfs.write("/env/TESTPLAN.TXT", "plan");
  // Four levels below the root, with siblings at every level.
  vfs.write("/env/a/b/c/deep.txt", "deep");
  vfs.write("/env/a/b/c/deeper.txt", "deeper");
  vfs.write("/env/a/b/mid.txt", "mid");
  vfs.write("/env/a/b2/c2/other.txt", "other");
  vfs.write("/env/a/top.txt", "top");

  EXPECT_EQ(export_to_disk(vfs, "/env", dir_.string()), 8u);
  EXPECT_EQ(read_file((dir_ / "a/b/c/deeper.txt").string()), "deeper");

  VirtualFileSystem back;
  EXPECT_EQ(import_from_disk(back, dir_.string(), "/env"), 8u);
  EXPECT_EQ(hash_tree(vfs, "/env"), hash_tree(back, "/env"));
  EXPECT_EQ(back.list_tree("/env"), vfs.list_tree("/env"));
  EXPECT_EQ(back.read("/env/TEST_1/test.asm"), "_main: HALT\n");
  EXPECT_EQ(back.read("/env/a/b/c/deep.txt"), "deep");
}

TEST_F(DiskTest, ExportCreatesNothingForAnEmptyTree) {
  VirtualFileSystem vfs;
  vfs.write("/elsewhere/file.txt", "x");
  EXPECT_EQ(export_to_disk(vfs, "/env", (dir_ / "out").string()), 0u);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "out"));
}

TEST_F(DiskTest, ExportErrorsNameTheTarget) {
  // A directory where a file must go cannot be opened for writing.
  std::filesystem::create_directories(dir_ / "sub" / "file.txt");
  VirtualFileSystem vfs;
  vfs.write("/env/sub/file.txt", "content");
  EXPECT_EQ(thrown_message([&] { export_to_disk(vfs, "/env", dir_.string()); }),
            "cannot write " + (dir_ / "sub" / "file.txt").string());
}

TEST_F(DiskTest, FileContentsRoundTripByteForByte) {
  const std::string binary = "NUL\0CR\rLF\nCRLF\r\n\xFF\xFE\0"s;
  std::string large(std::size_t{1} << 20, '\0');
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<char>((i * 131 + i / 977) & 0xFF);
  }
  large += "tail past one MiB";

  VirtualFileSystem vfs;
  vfs.write("/env/empty.bin", "");
  vfs.write("/env/binary.bin", binary);
  vfs.write("/env/large.bin", large);
  ASSERT_EQ(export_to_disk(vfs, "/env", dir_.string()), 3u);
  EXPECT_EQ(std::filesystem::file_size(dir_ / "empty.bin"), 0u);
  EXPECT_EQ(std::filesystem::file_size(dir_ / "binary.bin"), binary.size());
  EXPECT_EQ(std::filesystem::file_size(dir_ / "large.bin"), large.size());

  VirtualFileSystem back;
  ASSERT_EQ(import_from_disk(back, dir_.string(), "/env"), 3u);
  ASSERT_TRUE(back.exists("/env/empty.bin"));
  EXPECT_EQ(back.read_required("/env/empty.bin"), "");
  EXPECT_EQ(back.read_required("/env/binary.bin"), binary);
  EXPECT_TRUE(back.read_required("/env/large.bin") == large)
      << "the 1 MiB file did not round-trip";
}

TEST_F(DiskTest, SymlinkedFileImportsAtItsInTreePath) {
  write_host_file(dir_ / "other" / "real.txt", "real content");
  std::filesystem::create_directories(dir_ / "symt" / "sub");
  std::filesystem::create_symlink("../../other/real.txt",
                                  dir_ / "symt" / "sub" / "link.txt");

  VirtualFileSystem vfs;
  EXPECT_EQ(import_from_disk(vfs, (dir_ / "symt").string(), "/SYS"), 1u);
  EXPECT_EQ(vfs.list_tree("/"),
            std::vector<std::string>{"/SYS/sub/link.txt"});
  EXPECT_EQ(vfs.read("/SYS/sub/link.txt"), "real content");
}

TEST_F(DiskTest, DirectorySpellingsImportIdentically) {
  write_host_file(dir_ / "tree" / "TESTPLAN.TXT", "plan");
  write_host_file(dir_ / "tree" / "a" / "b" / "test.asm", "_main: HALT\n");
  write_host_file(dir_ / "tree" / "a" / "Globals.inc", "X .EQU 1\n");

  // Relative spellings resolve against the working directory.
  const std::filesystem::path cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir_);
  std::vector<VirtualFileSystem> imports;
  for (const char* spelling : {"tree", "tree/", "./tree", "tree/."}) {
    imports.emplace_back();
    EXPECT_EQ(import_from_disk(imports.back(), spelling, "/SYS"), 3u)
        << spelling;
  }
  std::filesystem::current_path(cwd);

  const std::vector<std::string> expected = {
      "/SYS/TESTPLAN.TXT", "/SYS/a/Globals.inc", "/SYS/a/b/test.asm"};
  for (const VirtualFileSystem& vfs : imports) {
    EXPECT_EQ(vfs.list_tree("/"), expected);
    EXPECT_EQ(hash_tree(vfs, "/SYS"), hash_tree(imports.front(), "/SYS"));
    EXPECT_EQ(vfs.read("/SYS/a/b/test.asm"), "_main: HALT\n");
  }
}

TEST_F(DiskTest, ReadFailuresThrowCannotRead) {
  std::filesystem::create_directories(dir_ / "a_directory");
  const std::string missing = (dir_ / "missing.txt").string();
  const std::string directory = (dir_ / "a_directory").string();
  // open() fails on a missing file; read() fails (EISDIR) on a directory.
  EXPECT_EQ(thrown_message([&] { (void)read_file(missing); }),
            "cannot read " + missing);
  EXPECT_EQ(thrown_message([&] { (void)read_file(directory); }),
            "cannot read " + directory);
}

TEST_F(DiskTest, ReadFileReadsAPipeToItsEndAcrossShortReads) {
  // A FIFO stats as empty and delivers each write as its own short read:
  // the whole stream must still arrive, in order, with nothing dropped.
  std::filesystem::create_directories(dir_);
  const std::string fifo = (dir_ / "fifo").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::vector<std::string> chunks = {"first,", std::string(5000, 'x'),
                                           "", "\0\xFF,"s, "last"};
  std::thread writer([&] {
    // A reader that stops early must fail the comparison below, not kill
    // the process: a blocked SIGPIPE turns into EPIPE on this thread.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    int fd = -1;
    // O_NONBLOCK fails with ENXIO until the reader has opened the FIFO,
    // so a reader that never comes cannot hang the test.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fd < 0 && std::chrono::steady_clock::now() < deadline) {
      fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) return;
    ::fcntl(fd, F_SETFL, 0);  // blocking writes from here on
    for (const std::string& chunk : chunks) {
      if (!chunk.empty()) {
        (void)!::write(fd, chunk.data(), chunk.size());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(fd);
  });
  std::string content;
  const std::string error = thrown_message([&] { content = read_file(fifo); });
  writer.join();
  EXPECT_EQ(error, "");
  std::string expected;
  for (const std::string& chunk : chunks) expected += chunk;
  EXPECT_EQ(content, expected);
}

TEST_F(DiskTest, ImportMissingDirectoryThrows) {
  VirtualFileSystem vfs;
  EXPECT_THROW(
      import_from_disk(vfs, (dir_ / "nonexistent").string(), "/x"),
      std::runtime_error);
}

TEST_F(DiskTest, ExportOverwritesStaleFiles) {
  VirtualFileSystem vfs;
  vfs.write("/env/file.txt", "v1");
  export_to_disk(vfs, "/env", dir_.string());
  vfs.write("/env/file.txt", "v2-longer-content");
  export_to_disk(vfs, "/env", dir_.string());
  VirtualFileSystem back;
  import_from_disk(back, dir_.string(), "/env");
  EXPECT_EQ(back.read("/env/file.txt"), "v2-longer-content");
}

// ---------------------------------------------------------------- json ----

TEST(Json, BmpEscapesDecodeToUtf8) {
  const auto ascii = json::parse(R"("A")");
  ASSERT_TRUE(ascii.has_value());
  EXPECT_EQ(ascii->as_string(), "A");
  const auto two_byte = json::parse(R"("\u00E9")");
  ASSERT_TRUE(two_byte.has_value());
  EXPECT_EQ(two_byte->as_string(), "\xC3\xA9");  // é
  const auto three_byte = json::parse(R"("\u20ac")");
  ASSERT_TRUE(three_byte.has_value());
  EXPECT_EQ(three_byte->as_string(), "\xE2\x82\xAC");  // €
}

TEST(Json, SurrogatePairCombinesIntoTheAstralCodePoint) {
  // U+1F600 as its escaped surrogate pair must decode to the 4-byte
  // UTF-8 sequence, not two lone 3-byte halves (invalid UTF-8).
  const auto doc = json::parse(R"("\uD83D\uDE00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xF0\x9F\x98\x80");
  // Lowercase hex and a pair inside surrounding text both work.
  const auto mixed = json::parse(R"("ok \ud83d\ude00!")");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->as_string(), "ok \xF0\x9F\x98\x80!");
}

TEST(Json, SurrogatePairRoundTripsWithTheRawUtf8Form) {
  // The writer side never escapes non-ASCII (raw UTF-8 passes through),
  // so the escaped-pair spelling and the raw spelling of the same code
  // point must parse to identical bytes.
  const auto escaped = json::parse(R"("\uD83D\uDE00")");
  const auto raw = json::parse("\"\xF0\x9F\x98\x80\"");
  ASSERT_TRUE(escaped.has_value());
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(escaped->as_string(), raw->as_string());
}

TEST(Json, UnpairedSurrogateHalvesAreATypedParseError) {
  std::string error;
  EXPECT_FALSE(json::parse(R"("\uD83D")", &error).has_value());
  EXPECT_NE(error.find("unpaired high surrogate"), std::string::npos);
  EXPECT_FALSE(json::parse(R"("\uDE00")", &error).has_value());
  EXPECT_NE(error.find("unpaired low surrogate"), std::string::npos);
  // High half followed by a non-escape, a non-\u escape, or another
  // high half: all unpaired.
  EXPECT_FALSE(json::parse(R"("\uD83Dxyz")", &error).has_value());
  EXPECT_FALSE(json::parse(R"("\uD83D\n")", &error).has_value());
  EXPECT_FALSE(json::parse(R"("\uD83D\uD83D")", &error).has_value());
  // Truncated low half.
  EXPECT_FALSE(json::parse(R"("\uD83D\uDE")", &error).has_value());
}

}  // namespace
