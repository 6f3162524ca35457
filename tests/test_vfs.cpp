// Unit tests for ffis::vfs — MemFs / PosixFs semantics, decorators, helpers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "ffis/vfs/passthrough_fs.hpp"
#include "ffis/vfs/posix_fs.hpp"

namespace {

using namespace ffis;
using vfs::OpenMode;
using vfs::Primitive;
using vfs::VfsError;

util::Bytes bytes_of(const std::string& s) { return util::to_bytes(s); }

// --- Backend conformance suite, run against both MemFs and PosixFs ----------

enum class Backend { Mem, Posix };

class BackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::Mem) {
      fs_ = std::make_unique<vfs::MemFs>();
    } else {
      root_ = std::filesystem::temp_directory_path() /
              ("ffis_vfs_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter_++));
      std::filesystem::create_directories(root_);
      fs_ = std::make_unique<vfs::PosixFs>(root_.string());
    }
  }
  void TearDown() override {
    fs_.reset();
    if (!root_.empty()) std::filesystem::remove_all(root_);
  }

  vfs::FileSystem& fs() { return *fs_; }

 private:
  std::unique_ptr<vfs::FileSystem> fs_;
  std::filesystem::path root_;
  static int counter_;
};

int BackendTest::counter_ = 0;

INSTANTIATE_TEST_SUITE_P(Backends, BackendTest, ::testing::Values(Backend::Mem, Backend::Posix),
                         [](const auto& info) {
                           return info.param == Backend::Mem ? "MemFs" : "PosixFs";
                         });

TEST_P(BackendTest, WriteThenReadRoundtrip) {
  vfs::write_file(fs(), "/a.txt", bytes_of("hello"));
  EXPECT_EQ(vfs::read_text_file(fs(), "/a.txt"), "hello");
}

TEST_P(BackendTest, OpenReadMissingFileThrows) {
  EXPECT_THROW(fs().open("/missing", OpenMode::Read), VfsError);
}

TEST_P(BackendTest, WriteModeTruncatesExisting) {
  vfs::write_file(fs(), "/f", bytes_of("0123456789"));
  vfs::write_file(fs(), "/f", bytes_of("ab"));
  EXPECT_EQ(vfs::read_text_file(fs(), "/f"), "ab");
}

TEST_P(BackendTest, ReadWriteModeDoesNotTruncate) {
  vfs::write_file(fs(), "/f", bytes_of("0123456789"));
  {
    vfs::File f(fs(), "/f", OpenMode::ReadWrite);
    f.pwrite(bytes_of("XY"), 2);
  }
  EXPECT_EQ(vfs::read_text_file(fs(), "/f"), "01XY456789");
}

TEST_P(BackendTest, PwriteBeyondEofZeroFillsGap) {
  vfs::File f(fs(), "/gap", OpenMode::Write);
  f.pwrite(bytes_of("end"), 10);
  f.reset();
  const util::Bytes data = vfs::read_file(fs(), "/gap");
  ASSERT_EQ(data.size(), 13u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(std::to_integer<int>(data[i]), 0);
  EXPECT_EQ(util::to_string(util::ByteSpan(data).subspan(10)), "end");
}

TEST_P(BackendTest, PreadPastEofReturnsZero) {
  vfs::write_file(fs(), "/f", bytes_of("abc"));
  vfs::File f(fs(), "/f", OpenMode::Read);
  util::Bytes buf(10);
  EXPECT_EQ(f.pread(buf, 100), 0u);
}

TEST_P(BackendTest, PreadPartialAtEof) {
  vfs::write_file(fs(), "/f", bytes_of("abcdef"));
  vfs::File f(fs(), "/f", OpenMode::Read);
  util::Bytes buf(10);
  EXPECT_EQ(f.pread(buf, 4), 2u);
  EXPECT_EQ(util::to_string(util::ByteSpan(buf).first(2)), "ef");
}

TEST_P(BackendTest, StatReportsSize) {
  vfs::write_file(fs(), "/f", bytes_of("12345"));
  const auto st = fs().stat("/f");
  EXPECT_EQ(st.size, 5u);
  EXPECT_FALSE(st.is_dir);
}

TEST_P(BackendTest, MkdirAndStat) {
  fs().mkdir("/d");
  EXPECT_TRUE(fs().stat("/d").is_dir);
  EXPECT_THROW(fs().mkdir("/d"), VfsError);
}

TEST_P(BackendTest, MkdirsCreatesChain) {
  vfs::mkdirs(fs(), "/a/b/c");
  EXPECT_TRUE(fs().stat("/a/b/c").is_dir);
  vfs::mkdirs(fs(), "/a/b/c");  // idempotent
}

TEST_P(BackendTest, ReaddirSortedNames) {
  fs().mkdir("/d");
  vfs::write_file(fs(), "/d/zz", bytes_of("1"));
  vfs::write_file(fs(), "/d/aa", bytes_of("2"));
  fs().mkdir("/d/mm");
  const auto names = fs().readdir("/d");
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "aa");
  EXPECT_EQ(names[1], "mm");
  EXPECT_EQ(names[2], "zz");
}

TEST_P(BackendTest, UnlinkRemoves) {
  vfs::write_file(fs(), "/f", bytes_of("x"));
  EXPECT_TRUE(fs().exists("/f"));
  fs().unlink("/f");
  EXPECT_FALSE(fs().exists("/f"));
  EXPECT_THROW(fs().unlink("/f"), VfsError);
}

TEST_P(BackendTest, RenameMovesContent) {
  vfs::write_file(fs(), "/src", bytes_of("payload"));
  fs().rename("/src", "/dst");
  EXPECT_FALSE(fs().exists("/src"));
  EXPECT_EQ(vfs::read_text_file(fs(), "/dst"), "payload");
}

TEST_P(BackendTest, RenameReplacesExistingFile) {
  vfs::write_file(fs(), "/src", bytes_of("new"));
  vfs::write_file(fs(), "/dst", bytes_of("old"));
  fs().rename("/src", "/dst");
  EXPECT_FALSE(fs().exists("/src"));
  EXPECT_EQ(vfs::read_text_file(fs(), "/dst"), "new");
}

TEST_P(BackendTest, RenameDirectoryMovesSubtree) {
  vfs::mkdirs(fs(), "/a/b");
  vfs::write_file(fs(), "/a/top", bytes_of("1"));
  vfs::write_file(fs(), "/a/b/deep", bytes_of("22"));
  fs().rename("/a", "/c");
  EXPECT_FALSE(fs().exists("/a"));
  EXPECT_FALSE(fs().exists("/a/b"));
  EXPECT_FALSE(fs().exists("/a/top"));
  EXPECT_TRUE(fs().stat("/c").is_dir);
  EXPECT_TRUE(fs().stat("/c/b").is_dir);
  EXPECT_EQ(vfs::read_text_file(fs(), "/c/top"), "1");
  EXPECT_EQ(vfs::read_text_file(fs(), "/c/b/deep"), "22");
}

TEST_P(BackendTest, RenameDirectoryOntoEmptyDirectory) {
  fs().mkdir("/src");
  vfs::write_file(fs(), "/src/f", bytes_of("x"));
  fs().mkdir("/empty");
  fs().rename("/src", "/empty");
  EXPECT_FALSE(fs().exists("/src"));
  EXPECT_EQ(vfs::read_text_file(fs(), "/empty/f"), "x");
}

TEST_P(BackendTest, RenameDirectoryOntoNonEmptyDirectoryRejected) {
  fs().mkdir("/src");
  vfs::write_file(fs(), "/src/f", bytes_of("x"));
  fs().mkdir("/dst");
  vfs::write_file(fs(), "/dst/occupied", bytes_of("y"));
  EXPECT_THROW(fs().rename("/src", "/dst"), VfsError);
  // Nothing moved.
  EXPECT_EQ(vfs::read_text_file(fs(), "/src/f"), "x");
  EXPECT_EQ(vfs::read_text_file(fs(), "/dst/occupied"), "y");
}

TEST_P(BackendTest, RenameDirectoryIntoOwnSubtreeRejected) {
  vfs::mkdirs(fs(), "/a/b");
  EXPECT_THROW(fs().rename("/a", "/a/b/c"), VfsError);
  EXPECT_TRUE(fs().exists("/a/b"));
}

TEST_P(BackendTest, RenameFileOntoDirectoryRejected) {
  vfs::write_file(fs(), "/f", bytes_of("x"));
  fs().mkdir("/d");
  EXPECT_THROW(fs().rename("/f", "/d"), VfsError);
  EXPECT_EQ(vfs::read_text_file(fs(), "/f"), "x");
}

TEST_P(BackendTest, UnlinkedOpenFileStillReadable) {
  // POSIX semantics: I/O on an unlinked-but-open file keeps working.
  vfs::write_file(fs(), "/f", bytes_of("alive"));
  vfs::File f(fs(), "/f", OpenMode::Read);
  fs().unlink("/f");
  EXPECT_FALSE(fs().exists("/f"));
  util::Bytes buf(5);
  EXPECT_EQ(f.pread(buf, 0), 5u);
  EXPECT_EQ(util::to_string(buf), "alive");
}

TEST_P(BackendTest, OpenHandleFollowsRename) {
  vfs::write_file(fs(), "/f", bytes_of("12345"));
  vfs::File f(fs(), "/f", OpenMode::ReadWrite);
  fs().rename("/f", "/g");
  f.pwrite(bytes_of("X"), 0);
  EXPECT_EQ(vfs::read_text_file(fs(), "/g"), "X2345");
}

TEST_P(BackendTest, TruncateShrinksAndGrows) {
  vfs::write_file(fs(), "/f", bytes_of("123456"));
  fs().truncate("/f", 3);
  EXPECT_EQ(vfs::read_text_file(fs(), "/f"), "123");
  fs().truncate("/f", 5);
  EXPECT_EQ(fs().stat("/f").size, 5u);
}

TEST_P(BackendTest, FtruncateShrinksAndGrowsThroughHandle) {
  vfs::write_file(fs(), "/f", bytes_of("123456"));
  vfs::File f(fs(), "/f", OpenMode::ReadWrite);
  f.ftruncate(3);
  EXPECT_EQ(fs().stat("/f").size, 3u);
  f.ftruncate(5);
  EXPECT_EQ(fs().stat("/f").size, 5u);
  // The grown tail reads as zeros.
  util::Bytes buf(5);
  ASSERT_EQ(f.pread(buf, 0), 5u);
  EXPECT_EQ(buf[0], std::byte{'1'});
  EXPECT_EQ(buf[3], std::byte{0});
  EXPECT_EQ(buf[4], std::byte{0});
}

TEST_P(BackendTest, FtruncateShrinkThenGrowZeroesStaleBytes) {
  vfs::write_file(fs(), "/f", bytes_of("ABCDEFGH"));
  vfs::File f(fs(), "/f", OpenMode::ReadWrite);
  f.ftruncate(2);
  f.ftruncate(8);
  util::Bytes buf(8);
  ASSERT_EQ(f.pread(buf, 0), 8u);
  EXPECT_EQ(util::to_string(util::ByteSpan(buf).subspan(0, 2)), "AB");
  for (std::size_t i = 2; i < 8; ++i) EXPECT_EQ(buf[i], std::byte{0}) << i;
}

TEST_P(BackendTest, FtruncateRejectsReadOnlyHandleUniformly) {
  // Both backends must report the same error code (MemFs natively,
  // PosixFs by mapping the syscall's EINVAL), so portable callers can
  // catch one thing.
  vfs::write_file(fs(), "/ro", bytes_of("x"));
  vfs::File f(fs(), "/ro", OpenMode::Read);
  try {
    f.ftruncate(0);
    FAIL() << "ftruncate on a read-only handle must throw";
  } catch (const VfsError& e) {
    EXPECT_EQ(e.code(), VfsError::Code::InvalidArgument);
  }
}

TEST_P(BackendTest, FtruncateRejectsBadHandle) {
  EXPECT_THROW(fs().ftruncate(vfs::kInvalidHandle, 0), VfsError);
  EXPECT_THROW(fs().ftruncate(99, 0), VfsError);
}

TEST_P(BackendTest, MknodCreatesEmptyFileWithMode) {
  fs().mknod("/node", 0640);
  EXPECT_TRUE(fs().exists("/node"));
  EXPECT_EQ(fs().stat("/node").size, 0u);
  EXPECT_EQ(fs().stat("/node").mode & 0777, 0640u);
  EXPECT_THROW(fs().mknod("/node", 0640), VfsError);
}

TEST_P(BackendTest, ChmodChangesMode) {
  fs().mknod("/node", 0600);
  fs().chmod("/node", 0444);
  EXPECT_EQ(fs().stat("/node").mode & 0777, 0444u);
}

TEST_P(BackendTest, CloseInvalidatesHandle) {
  vfs::write_file(fs(), "/f", bytes_of("x"));
  const auto fh = fs().open("/f", OpenMode::Read);
  fs().close(fh);
  util::Bytes buf(1);
  EXPECT_THROW(fs().pread(fh, buf, 0), VfsError);
  EXPECT_THROW(fs().close(fh), VfsError);
}

TEST_P(BackendTest, FsyncOnOpenHandle) {
  vfs::write_file(fs(), "/f", bytes_of("x"));
  vfs::File f(fs(), "/f", OpenMode::ReadWrite);
  EXPECT_NO_THROW(f.fsync());
}

TEST_P(BackendTest, RelativePathsRejected) {
  EXPECT_THROW(fs().open("relative", OpenMode::Write), VfsError);
}

// --- MemFs specifics -----------------------------------------------------------

TEST(MemFs, NormalizesDuplicateSlashes) {
  vfs::MemFs fs;
  fs.mkdir("/a");
  vfs::write_file(fs, "//a///b", bytes_of("x"));
  EXPECT_TRUE(fs.exists("/a/b"));
}

TEST(MemFs, ParentMustExist) {
  vfs::MemFs fs;
  EXPECT_THROW(fs.open("/no/such/dir/file", OpenMode::Write), VfsError);
}

TEST(MemFs, TotalBytesTracksContent) {
  vfs::MemFs fs;
  EXPECT_EQ(fs.total_bytes(), 0u);
  vfs::write_file(fs, "/f", util::Bytes(100));
  EXPECT_EQ(fs.total_bytes(), 100u);
}

TEST(MemFs, DirectoryOpsRejectedOnFiles) {
  vfs::MemFs fs;
  vfs::write_file(fs, "/f", bytes_of("x"));
  EXPECT_THROW(fs.readdir("/f"), VfsError);
  EXPECT_THROW(fs.open("/f/x", OpenMode::Write), VfsError);
}

TEST(MemFs, UnlinkRejectsDirectory) {
  vfs::MemFs fs;
  fs.mkdir("/d");
  EXPECT_THROW(fs.unlink("/d"), VfsError);
}

TEST(MemFs, SingleThreadModeBehavesIdentically) {
  vfs::MemFs fs(vfs::MemFs::Concurrency::SingleThread);
  vfs::mkdirs(fs, "/a/b");
  vfs::write_file(fs, "/a/b/f", bytes_of("data"));
  EXPECT_EQ(vfs::read_text_file(fs, "/a/b/f"), "data");
  EXPECT_EQ(fs.total_bytes(), 4u);
  EXPECT_THROW(fs.open("/missing", OpenMode::Read), VfsError);
}

// --- MemFs fork / copy-on-write ---------------------------------------------

TEST(MemFsFork, SharesPayloadsReadOnly) {
  vfs::MemFs parent;
  vfs::mkdirs(parent, "/d");
  vfs::write_file(parent, "/d/a", util::Bytes(1000));
  vfs::write_file(parent, "/b", util::Bytes(500));
  ASSERT_EQ(parent.cow_shared_bytes(), 0u);

  const vfs::MemFs child = parent.fork();
  // Fork is O(#files): every payload is shared, none copied.
  EXPECT_EQ(parent.total_bytes(), 1500u);
  EXPECT_EQ(child.total_bytes(), 1500u);
  EXPECT_EQ(parent.cow_shared_bytes(), 1500u);
  EXPECT_EQ(child.cow_shared_bytes(), 1500u);
}

TEST(MemFsFork, WriteInForkDetachesAndIsolates) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/f", bytes_of("original"));
  vfs::MemFs child = parent.fork();

  vfs::write_file(child, "/f", bytes_of("CHANGED!"));
  EXPECT_EQ(vfs::read_text_file(parent, "/f"), "original");
  EXPECT_EQ(vfs::read_text_file(child, "/f"), "CHANGED!");
  // The write detached the payload: nothing is shared any more.
  EXPECT_EQ(parent.cow_shared_bytes(), 0u);
  EXPECT_EQ(child.cow_shared_bytes(), 0u);
}

TEST(MemFsFork, WriteInParentDetachesAndIsolates) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/f", bytes_of("original"));
  vfs::MemFs child = parent.fork();

  {
    vfs::File f(parent, "/f", OpenMode::ReadWrite);
    f.pwrite(bytes_of("X"), 0);
  }
  EXPECT_EQ(vfs::read_text_file(parent, "/f"), "Xriginal");
  EXPECT_EQ(vfs::read_text_file(child, "/f"), "original");
}

TEST(MemFsFork, TruncateUnlinkRenameAreIsolated) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/t", bytes_of("123456"));
  vfs::write_file(parent, "/u", bytes_of("gone"));
  vfs::write_file(parent, "/r", bytes_of("moved"));
  vfs::MemFs child = parent.fork();

  child.truncate("/t", 3);
  child.unlink("/u");
  child.rename("/r", "/r2");
  vfs::write_file(child, "/new", bytes_of("fork-only"));

  EXPECT_EQ(vfs::read_text_file(parent, "/t"), "123456");
  EXPECT_EQ(vfs::read_text_file(parent, "/u"), "gone");
  EXPECT_EQ(vfs::read_text_file(parent, "/r"), "moved");
  EXPECT_FALSE(parent.exists("/r2"));
  EXPECT_FALSE(parent.exists("/new"));

  EXPECT_EQ(vfs::read_text_file(child, "/t"), "123");
  EXPECT_FALSE(child.exists("/u"));
  EXPECT_EQ(vfs::read_text_file(child, "/r2"), "moved");
  // A renamed file still shares its (untouched) payload with the parent.
  EXPECT_EQ(child.cow_shared_bytes(), 5u);
}

TEST(MemFsFork, TotalBytesTracksDetachedCopies) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/a", util::Bytes(100));
  vfs::write_file(parent, "/b", util::Bytes(50));
  vfs::MemFs child = parent.fork();

  // Extending a shared file in the fork: the fork sees the new size, the
  // parent keeps the old one.
  {
    vfs::File f(child, "/a", OpenMode::ReadWrite);
    f.pwrite(util::Bytes(10), 100);
  }
  EXPECT_EQ(parent.total_bytes(), 150u);
  EXPECT_EQ(child.total_bytes(), 160u);
  EXPECT_EQ(parent.cow_shared_bytes(), 50u);  // only /b still shared
}

TEST(MemFsFork, ParentHandleStaysValidAcrossFork) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/f", bytes_of("before"));
  vfs::File handle(parent, "/f", OpenMode::ReadWrite);
  vfs::MemFs child = parent.fork();

  // Writing through the pre-fork handle must still trigger COW detach.
  handle.pwrite(bytes_of("AFTER!"), 0);
  EXPECT_EQ(vfs::read_text_file(parent, "/f"), "AFTER!");
  EXPECT_EQ(vfs::read_text_file(child, "/f"), "before");

  util::Bytes buf(6);
  EXPECT_EQ(handle.pread(buf, 0), 6u);
  EXPECT_EQ(util::to_string(buf), "AFTER!");
}

TEST(MemFsFork, ForkStartsWithNoOpenHandles) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/f", bytes_of("x"));
  const auto fh = parent.open("/f", OpenMode::Read);
  vfs::MemFs child = parent.fork();
  // The parent's handle id is not open in the fork.
  util::Bytes buf(1);
  EXPECT_THROW((void)child.pread(fh, buf, 0), VfsError);
  parent.close(fh);
}

TEST(MemFsFork, ForkOfForkSharesTransitively) {
  vfs::MemFs a;
  vfs::write_file(a, "/f", util::Bytes(64));
  vfs::MemFs b = a.fork();
  vfs::MemFs c = b.fork(vfs::MemFs::Concurrency::SingleThread);
  EXPECT_EQ(c.total_bytes(), 64u);
  vfs::write_file(c, "/f", util::Bytes(8));
  EXPECT_EQ(a.total_bytes(), 64u);
  EXPECT_EQ(b.total_bytes(), 64u);
  EXPECT_EQ(c.total_bytes(), 8u);
  // a and b still share; c detached.
  EXPECT_EQ(a.cow_shared_bytes(), 64u);
  EXPECT_EQ(c.cow_shared_bytes(), 0u);
}

TEST(MemFs, FtruncateWorksOnUnlinkedButOpenFile) {
  vfs::MemFs fs;
  vfs::write_file(fs, "/f", bytes_of("123456"));
  vfs::File f(fs, "/f", OpenMode::ReadWrite);
  fs.unlink("/f");
  // The path-based truncate can no longer see the file...
  EXPECT_THROW(fs.truncate("/f", 3), VfsError);
  // ...but the handle-based one follows POSIX and keeps working.
  f.ftruncate(3);
  util::Bytes buf(8);
  EXPECT_EQ(f.pread(buf, 0), 3u);
  EXPECT_EQ(util::to_string(util::ByteSpan(buf).subspan(0, 3)), "123");
}

// --- ExtentStore -------------------------------------------------------------

TEST(ExtentStore, ReadWriteRoundtripAcrossChunkBoundaries) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  const util::Bytes payload = bytes_of("The quick brown fox jumps over the lazy dog");
  store.write(3, payload, stats);
  EXPECT_EQ(store.size(), 3 + payload.size());

  util::Bytes buf(payload.size());
  EXPECT_EQ(store.read(3, buf), payload.size());
  EXPECT_EQ(buf, payload);
  // The 3-byte gap before the payload reads as zeros.
  util::Bytes head(3);
  EXPECT_EQ(store.read(0, head), 3u);
  EXPECT_EQ(head, util::Bytes(3));
}

TEST(ExtentStore, HolesReadAsZeroAndCostNoChunks) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  store.write(64, bytes_of("end"), stats);
  EXPECT_EQ(store.size(), 67u);
  // Only the chunk actually written is allocated; the gap is a hole.
  EXPECT_EQ(store.allocated_chunks(), 1u);
  EXPECT_EQ(stats.chunks_allocated, 1u);
  util::Bytes buf(67);
  EXPECT_EQ(store.read(0, buf), 67u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(buf[i], std::byte{0}) << i;
  EXPECT_EQ(util::to_string(util::ByteSpan(buf).subspan(64)), "end");
}

TEST(ExtentStore, SmallFilesCostTheirSizeNotAFullExtent) {
  vfs::ExtentStore store;  // default 64 KiB chunks
  vfs::FsStats stats;
  store.write(0, bytes_of("tiny"), stats);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.allocated_chunks(), 1u);
  // shared_bytes counts stored bytes; nothing shared yet.
  EXPECT_EQ(store.shared_bytes(), 0u);
  vfs::ExtentStore forked = store;
  EXPECT_EQ(store.shared_bytes(), 4u);  // the tail chunk holds 4 bytes, not 64 KiB
  EXPECT_EQ(forked.shared_bytes(), 4u);
}

TEST(ExtentStore, CopyWritesDetachOnlyTouchedChunks) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  store.write(0, util::Bytes(64, std::byte{0xAA}), stats);  // 8 full chunks
  EXPECT_EQ(stats.chunks_allocated, 8u);

  vfs::ExtentStore forked = store;
  vfs::FsStats fork_stats;
  forked.write(20, bytes_of("XY"), fork_stats);  // inside chunk 2
  EXPECT_EQ(fork_stats.chunk_detaches, 1u);
  // The detach preserves only the bytes the write does not overwrite:
  // [16,20) before "XY" and [22,24) after it — 6 of the chunk's 8 bytes.
  EXPECT_EQ(fork_stats.cow_bytes_copied, 6u);
  EXPECT_EQ(fork_stats.chunks_allocated, 0u);
  // 7 of 8 chunks still shared both ways.
  EXPECT_EQ(store.shared_bytes(), 56u);
  EXPECT_EQ(forked.shared_bytes(), 56u);

  // The original is untouched; the fork sees the write.
  util::Bytes a(2), b(2);
  store.read(20, a);
  forked.read(20, b);
  EXPECT_EQ(util::to_string(b), "XY");
  EXPECT_EQ(a, util::Bytes(2, std::byte{0xAA}));
}

TEST(ExtentStore, FullChunkOverwriteDetachesWithoutCopying) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  store.write(0, util::Bytes(24, std::byte{0xAA}), stats);  // 3 full chunks
  vfs::ExtentStore forked = store;
  vfs::FsStats fork_stats;
  // Rewriting whole extents in place: the detach must not copy bytes that
  // the write immediately replaces.
  forked.write(0, util::Bytes(16, std::byte{0xBB}), fork_stats);
  EXPECT_EQ(fork_stats.chunk_detaches, 2u);
  EXPECT_EQ(fork_stats.cow_bytes_copied, 0u);
  util::Bytes buf(24);
  EXPECT_EQ(forked.read(0, buf), 24u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(buf[i], std::byte{0xBB}) << i;
  for (std::size_t i = 16; i < 24; ++i) EXPECT_EQ(buf[i], std::byte{0xAA}) << i;
  store.read(0, buf);
  EXPECT_EQ(buf, util::Bytes(24, std::byte{0xAA}));  // parent untouched
}

TEST(ExtentStore, ResizeShrinkDropsChunksAndZeroesTail) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  store.write(0, util::Bytes(30, std::byte{0x55}), stats);
  store.resize(10, stats);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.allocated_chunks(), 2u);  // chunks 2..3 dropped
  store.resize(30, stats);  // grow back: the tail must be zeros now
  util::Bytes buf(30);
  EXPECT_EQ(store.read(0, buf), 30u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(buf[i], std::byte{0x55}) << i;
  for (std::size_t i = 10; i < 30; ++i) EXPECT_EQ(buf[i], std::byte{0}) << i;
}

TEST(ExtentStore, ResizeShrinkOnSharedTailDetaches) {
  vfs::ExtentStore store(8);
  vfs::FsStats stats;
  store.write(0, util::Bytes(16, std::byte{0x77}), stats);
  vfs::ExtentStore forked = store;
  vfs::FsStats fork_stats;
  forked.resize(4, fork_stats);  // trims shared chunk 0 -> COW detach
  EXPECT_EQ(fork_stats.chunk_detaches, 1u);
  EXPECT_EQ(fork_stats.cow_bytes_copied, 4u);
  // Parent unaffected.
  EXPECT_EQ(store.size(), 16u);
  util::Bytes buf(16);
  EXPECT_EQ(store.read(0, buf), 16u);
  EXPECT_EQ(buf, util::Bytes(16, std::byte{0x77}));
}

// --- MemFs storage-layer stats ----------------------------------------------

TEST(MemFsStats, PostForkFirstWriteIsOChunkNotOFile) {
  // The acceptance bar for the extent refactor: a single small pwrite into a
  // forked >= 4 MiB file detaches at most 2 extents (1 unless the write
  // crosses a chunk boundary), so post-fork first-write cost is O(chunk).
  constexpr std::size_t kFileSize = 4 * 1024 * 1024;
  vfs::MemFs parent;
  vfs::write_file(parent, "/plotfile", util::Bytes(kFileSize, std::byte{0x42}));

  vfs::MemFs child = parent.fork();
  EXPECT_EQ(child.stats().chunk_detaches, 0u);  // forks start with zeroed stats

  {
    vfs::File f(child, "/plotfile", OpenMode::ReadWrite);
    f.pwrite(bytes_of("tiny update"), 1'000'000);
  }
  const vfs::FsStats stats = child.stats();
  EXPECT_GE(stats.chunk_detaches, 1u);
  EXPECT_LE(stats.chunk_detaches, 2u);
  EXPECT_LE(stats.cow_bytes_copied, 2u * child.chunk_size());
  EXPECT_LT(stats.cow_bytes_copied, kFileSize / 8);  // nowhere near O(file)
  // Everything but the touched extent stays shared.
  EXPECT_GE(child.cow_shared_bytes(), kFileSize - 2u * child.chunk_size());
  // Both sides still read their own truth.
  EXPECT_EQ(vfs::read_file(parent, "/plotfile"), util::Bytes(kFileSize, std::byte{0x42}));
  util::Bytes probe(11);
  {
    vfs::File f(child, "/plotfile", OpenMode::Read);
    ASSERT_EQ(f.pread(probe, 1'000'000), probe.size());
  }
  EXPECT_EQ(util::to_string(probe), "tiny update");
}

TEST(MemFsStats, ChunkSizeIsConfigurableAndInherited) {
  vfs::MemFs fs(vfs::MemFs::Options{.chunk_size = 1024});
  EXPECT_EQ(fs.chunk_size(), 1024u);
  vfs::write_file(fs, "/f", util::Bytes(10 * 1024));
  EXPECT_EQ(fs.stats().chunks_allocated, 10u);
  EXPECT_EQ(fs.allocated_chunks(), 10u);

  vfs::MemFs child = fs.fork();
  EXPECT_EQ(child.chunk_size(), 1024u);  // extents are shared: geometry must match
  {
    vfs::File f(child, "/f", OpenMode::ReadWrite);
    f.pwrite(util::Bytes(1), 0);
  }
  EXPECT_EQ(child.stats().chunk_detaches, 1u);
  // Partial-copy detach: the 1-byte write at offset 0 is excluded from the
  // copy, so only the remaining 1023 bytes of the extent are preserved.
  EXPECT_EQ(child.stats().cow_bytes_copied, 1023u);
}

TEST(MemFsStats, RejectsZeroChunkSize) {
  EXPECT_THROW(vfs::MemFs(vfs::MemFs::Options{.chunk_size = 0}), VfsError);
}

TEST(MemFsStats, OpenForWriteTruncationIsCowFree) {
  vfs::MemFs parent;
  vfs::write_file(parent, "/f", util::Bytes(512 * 1024));
  vfs::MemFs child = parent.fork();
  // Rewriting the whole file drops the shared extents instead of copying.
  vfs::write_file(child, "/f", util::Bytes(100));
  EXPECT_EQ(child.stats().chunk_detaches, 0u);
  EXPECT_EQ(child.stats().cow_bytes_copied, 0u);
  EXPECT_EQ(parent.total_bytes(), 512u * 1024u);
  EXPECT_EQ(child.total_bytes(), 100u);
}

TEST(MemFsStats, SparseFileReportsLogicalSizeAndFewChunks) {
  vfs::MemFs fs(vfs::MemFs::Options{.chunk_size = 4096});
  {
    vfs::File f(fs, "/sparse", OpenMode::Write);
    f.pwrite(bytes_of("x"), 1'000'000);
  }
  EXPECT_EQ(fs.stat("/sparse").size, 1'000'001u);
  EXPECT_EQ(fs.total_bytes(), 1'000'001u);  // logical size
  EXPECT_EQ(fs.allocated_chunks(), 1u);     // holes cost nothing
  EXPECT_LE(fs.stored_bytes(), 4096u);      // actual footprint: one extent
  util::Bytes buf(16);
  {
    vfs::File f(fs, "/sparse", OpenMode::Read);
    EXPECT_EQ(f.pread(buf, 0), 16u);
  }
  EXPECT_EQ(buf, util::Bytes(16));
}

// --- PosixFs specifics -----------------------------------------------------------

TEST(PosixFs, RejectsDotDotPaths) {
  const auto root = std::filesystem::temp_directory_path() / "ffis_posix_dotdot";
  std::filesystem::create_directories(root);
  vfs::PosixFs fs(root.string());
  EXPECT_THROW(fs.open("/../escape", OpenMode::Write), VfsError);
  std::filesystem::remove_all(root);
}

TEST(PosixFs, RequiresExistingRoot) {
  EXPECT_THROW(vfs::PosixFs("/no/such/ffis/root"), VfsError);
}

// --- Primitive names -------------------------------------------------------------

TEST(Primitives, NamesRoundtrip) {
  for (std::size_t i = 0; i < vfs::kPrimitiveCount; ++i) {
    const auto p = static_cast<Primitive>(i);
    EXPECT_EQ(vfs::parse_primitive(vfs::primitive_name(p)), p);
  }
}

TEST(Primitives, PaperSpellingsAccepted) {
  EXPECT_EQ(vfs::parse_primitive("FFIS_write"), Primitive::Pwrite);
  EXPECT_EQ(vfs::parse_primitive("FFIS_mknod"), Primitive::Mknod);
  EXPECT_EQ(vfs::parse_primitive("FFIS_chmod"), Primitive::Chmod);
  EXPECT_EQ(vfs::parse_primitive("read"), Primitive::Pread);
  EXPECT_THROW(vfs::parse_primitive("bogus"), VfsError);
}

// --- CountingFs ---------------------------------------------------------------------

TEST(CountingFs, CountsPrimitivesAndBytes) {
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);

  vfs::write_file(counting, "/f", bytes_of("0123456789"));
  EXPECT_EQ(counting.count(Primitive::Create), 1u);
  EXPECT_EQ(counting.count(Primitive::Pwrite), 1u);
  EXPECT_EQ(counting.count(Primitive::Close), 1u);
  EXPECT_EQ(counting.bytes_written(), 10u);

  (void)vfs::read_file(counting, "/f");
  EXPECT_EQ(counting.count(Primitive::Open), 1u);
  EXPECT_GE(counting.count(Primitive::Pread), 1u);
  EXPECT_EQ(counting.bytes_read(), 10u);

  counting.mknod("/n", 0600);
  counting.chmod("/n", 0644);
  counting.unlink("/n");
  EXPECT_EQ(counting.count(Primitive::Mknod), 1u);
  EXPECT_EQ(counting.count(Primitive::Chmod), 1u);
  EXPECT_EQ(counting.count(Primitive::Unlink), 1u);

  counting.reset();
  EXPECT_EQ(counting.count(Primitive::Pwrite), 0u);
  EXPECT_EQ(counting.bytes_written(), 0u);
}

TEST(CountingFs, ForwardsResults) {
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  vfs::write_file(counting, "/f", bytes_of("data"));
  // The write is visible through the backing store directly.
  EXPECT_EQ(vfs::read_text_file(backing, "/f"), "data");
}

TEST(PassthroughFs, ForwardsEverything) {
  vfs::MemFs backing;
  vfs::PassthroughFs pass(backing);
  vfs::write_file(pass, "/f", bytes_of("x"));
  pass.mkdir("/d");
  pass.rename("/f", "/d/f");
  EXPECT_TRUE(backing.exists("/d/f"));
  EXPECT_EQ(pass.readdir("/d").size(), 1u);
  EXPECT_EQ(&pass.inner(), static_cast<vfs::FileSystem*>(&backing));
}

}  // namespace
