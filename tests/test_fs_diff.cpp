// Extent-identity diff tests: ExtentStore::diff (pointer fast path, memcmp
// fallback, holes, resize shrink/grow, geometry mismatch) and
// MemFs::diff_tree (created/deleted/renamed paths, metadata changes,
// fork-derived pointer sharing, the clean-tree fast path the Benign
// classification shortcut rests on).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/fs_diff.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using vfs::ByteRange;
using vfs::ExtentStore;
using vfs::FsDiff;
using vfs::FsStats;
using vfs::MemFs;

util::Bytes bytes_of(const std::string& s) { return util::to_bytes(s); }

void write_at(ExtentStore& store, std::uint64_t offset, const std::string& s) {
  FsStats stats;
  store.write(offset, bytes_of(s), stats);
}

// --- ExtentStore::diff -------------------------------------------------------

TEST(ExtentDiff, CopiedStoreIsCleanByPointerIdentity) {
  ExtentStore a(8);
  write_at(a, 0, "0123456789abcdef");  // two full chunks
  const ExtentStore b = a;             // fork: shares every chunk
  EXPECT_TRUE(b.diff(a).empty());
  EXPECT_TRUE(a.diff(b).empty());
}

TEST(ExtentDiff, WriteAfterCopyDirtiesOnlyTouchedChunks) {
  ExtentStore base(8);
  write_at(base, 0, "0123456789abcdefXYZWVUTS");  // chunks 0..2
  ExtentStore fork = base;
  write_at(fork, 9, "!");  // detaches chunk 1 only
  const auto ranges = fork.diff(base);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (ByteRange{8, 8}));  // chunk-granular superset
}

TEST(ExtentDiff, RewrittenIdenticalBytesAreCleanViaMemcmp) {
  // The checkpoint-path signature: a continuation rewrites a chunk with the
  // exact same bytes into a *fresh* extent.  Pointer identity fails, the
  // stored-byte comparison must still prove it clean.
  ExtentStore base(8);
  write_at(base, 0, "0123456789abcdef");
  ExtentStore fork = base;
  write_at(fork, 0, "0123");  // detach + same content
  EXPECT_TRUE(fork.diff(base).empty());
}

TEST(ExtentDiff, HoleEqualsExplicitZeros) {
  // A hole reads as zeros; an allocated all-zero chunk is bit-identical to
  // it, so the diff must not report it dirty (and vice versa).
  ExtentStore with_hole(8);
  FsStats stats;
  with_hole.resize(16, stats);  // [0,16) is one big hole
  ExtentStore with_zeros(8);
  with_zeros.write(0, util::Bytes(16, std::byte{0}), stats);
  EXPECT_TRUE(with_zeros.diff(with_hole).empty());
  EXPECT_TRUE(with_hole.diff(with_zeros).empty());

  with_zeros.write(12, bytes_of("z"), stats);
  const auto ranges = with_zeros.diff(with_hole);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (ByteRange{8, 8}));
}

TEST(ExtentDiff, ShortChunkUnstoredSuffixReadsAsZero) {
  // A short chunk (unstored suffix) vs a full chunk whose suffix holds
  // explicit zeros: logically equal at the same size.
  ExtentStore a(8);
  FsStats stats;
  a.write(0, bytes_of("abc"), stats);  // stored 3 bytes
  a.resize(8, stats);                  // logical size 8, suffix unstored
  ExtentStore b(8);
  b.write(0, bytes_of("abc"), stats);
  b.write(3, util::Bytes(5, std::byte{0}), stats);  // stored 8 bytes
  EXPECT_TRUE(a.diff(b).empty());
  EXPECT_TRUE(b.diff(a).empty());
}

TEST(ExtentDiff, SizeChangeDirtiesTheTail) {
  ExtentStore base(8);
  write_at(base, 0, "0123456789abcdef");
  ExtentStore fork = base;
  FsStats stats;
  fork.resize(10, stats);  // shrink: [10,16) differs
  auto ranges = fork.diff(base);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.back().end(), 16u);
  EXPECT_LE(ranges.back().offset, 10u);

  // Grow-after-shrink exposes a zero tail where the base stored data.
  fork.resize(16, stats);
  ranges = fork.diff(base);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (ByteRange{8, 8}));  // chunk 1 differs (zeros vs "abcdef")

  // Growing past the base's size dirties the extension too.
  fork.resize(20, stats);
  ranges = fork.diff(base);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.back().end(), 20u);
}

TEST(ExtentDiff, AdjacentDirtyChunksMergeIntoOneRange) {
  ExtentStore base(8);
  write_at(base, 0, std::string(32, 'x'));
  ExtentStore fork = base;
  write_at(fork, 4, "YYYYYYYYYYYY");  // spans chunks 0, 1
  const auto ranges = fork.diff(base);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (ByteRange{0, 16}));
}

TEST(ExtentDiff, DifferingChunkSizesRejected) {
  ExtentStore a(8);
  ExtentStore b(16);
  EXPECT_THROW((void)a.diff(b), std::invalid_argument);
  try {
    (void)a.diff(b);
    FAIL() << "diff with mismatched geometry must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chunk sizes differ"), std::string::npos);
  }
}

// --- MemFs::diff_tree --------------------------------------------------------

TEST(TreeDiff, ForkIsCleanUntilTouched) {
  MemFs base(MemFs::Options{.chunk_size = 16});
  vfs::write_text_file(base, "/a.dat", "hello world, this spans chunks maybe");
  vfs::mkdirs(base, "/dir");
  vfs::write_text_file(base, "/dir/b.dat", "second file");

  MemFs fork = base.fork();
  EXPECT_TRUE(fork.diff_tree(base).empty());

  vfs::write_text_file(fork, "/dir/b.dat", "second file");  // rewrite, same bytes
  EXPECT_TRUE(fork.diff_tree(base).empty());

  vfs::write_text_file(fork, "/dir/b.dat", "second FILE");
  const FsDiff diff = fork.diff_tree(base);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.changed[0].path, "/dir/b.dat");
  EXPECT_TRUE(diff.touches("/dir/b.dat"));
  EXPECT_FALSE(diff.touches("/a.dat"));
  EXPECT_NE(diff.find("/dir/b.dat"), nullptr);
  EXPECT_EQ(diff.find("/a.dat"), nullptr);
}

TEST(TreeDiff, CreatedAndDeletedPaths) {
  MemFs base;
  vfs::write_text_file(base, "/keep", "k");
  vfs::write_text_file(base, "/gone", "g");
  MemFs fork = base.fork();
  fork.unlink("/gone");
  vfs::write_text_file(fork, "/new", "n");
  fork.mkdir("/newdir");

  const FsDiff diff = fork.diff_tree(base);
  EXPECT_EQ(diff.created, (std::vector<std::string>{"/new", "/newdir"}));
  EXPECT_EQ(diff.deleted, (std::vector<std::string>{"/gone"}));
  EXPECT_TRUE(diff.changed.empty());
  EXPECT_TRUE(diff.renamed.empty());
  EXPECT_TRUE(diff.touches("/new"));
  EXPECT_TRUE(diff.touches("/gone"));
}

TEST(TreeDiff, RenameBetweenSnapshotAndDiffIsDetected) {
  MemFs base;
  vfs::write_text_file(base, "/old.dat", "payload that stays shared");
  MemFs fork = base.fork();
  fork.rename("/old.dat", "/new.dat");

  const FsDiff diff = fork.diff_tree(base);
  EXPECT_TRUE(diff.created.empty());
  EXPECT_TRUE(diff.deleted.empty());
  ASSERT_EQ(diff.renamed.size(), 1u);
  EXPECT_EQ(diff.renamed[0].first, "/old.dat");
  EXPECT_EQ(diff.renamed[0].second, "/new.dat");
  EXPECT_TRUE(diff.touches("/old.dat"));
  EXPECT_TRUE(diff.touches("/new.dat"));
  EXPECT_FALSE(diff.empty());
}

TEST(TreeDiff, RenamePlusRewriteReportsCreatePlusDelete) {
  // Once the moved file's extents are rewritten the rename cannot be
  // witnessed structurally; the conservative report is create + delete.
  MemFs base;
  vfs::write_text_file(base, "/old.dat", "original payload");
  MemFs fork = base.fork();
  fork.rename("/old.dat", "/new.dat");
  vfs::write_text_file(fork, "/new.dat", "rewritten payload");

  const FsDiff diff = fork.diff_tree(base);
  EXPECT_TRUE(diff.renamed.empty());
  EXPECT_EQ(diff.created, (std::vector<std::string>{"/new.dat"}));
  EXPECT_EQ(diff.deleted, (std::vector<std::string>{"/old.dat"}));
}

TEST(TreeDiff, UnlinkAfterSnapshotWithOpenHandleStillReportsDeleted) {
  MemFs base;
  vfs::write_text_file(base, "/f", "data");
  MemFs fork = base.fork();
  const vfs::FileHandle fh = fork.open("/f", vfs::OpenMode::Read);
  fork.unlink("/f");  // handle keeps the node alive, path is gone
  const FsDiff diff = fork.diff_tree(base);
  EXPECT_EQ(diff.deleted, (std::vector<std::string>{"/f"}));
  fork.close(fh);
}

TEST(TreeDiff, TruncateShrinkAndGrowAreDirty) {
  MemFs base(MemFs::Options{.chunk_size = 8});
  vfs::write_text_file(base, "/f", "0123456789abcdef");
  {
    MemFs fork = base.fork();
    fork.truncate("/f", 10);
    const FsDiff diff = fork.diff_tree(base);
    ASSERT_EQ(diff.changed.size(), 1u);
    EXPECT_EQ(diff.changed[0].base_size, 16u);
    EXPECT_EQ(diff.changed[0].size, 10u);
    ASSERT_FALSE(diff.changed[0].ranges.empty());
    EXPECT_EQ(diff.changed[0].ranges.back().end(), 16u);
  }
  {
    MemFs fork = base.fork();
    fork.truncate("/f", 24);  // grow: hole tail vs nothing
    const FsDiff diff = fork.diff_tree(base);
    ASSERT_EQ(diff.changed.size(), 1u);
    EXPECT_EQ(diff.changed[0].ranges.back().end(), 24u);
  }
}

TEST(TreeDiff, ModeChangeIsMetadataOnly) {
  MemFs base;
  vfs::write_text_file(base, "/f", "data");
  MemFs fork = base.fork();
  fork.chmod("/f", 0600);
  const FsDiff diff = fork.diff_tree(base);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_TRUE(diff.changed[0].metadata_changed);
  EXPECT_TRUE(diff.changed[0].ranges.empty());
  EXPECT_FALSE(diff.empty());
}

TEST(TreeDiff, DifferingChunkSizesRejectedWithClearError) {
  MemFs small(MemFs::Options{.chunk_size = 8});
  MemFs big(MemFs::Options{.chunk_size = 64});
  vfs::write_text_file(small, "/f", "data");
  vfs::write_text_file(big, "/f", "data");
  try {
    (void)small.diff_tree(big);
    FAIL() << "diff_tree with mismatched geometry must throw";
  } catch (const vfs::VfsError& e) {
    EXPECT_EQ(e.code(), vfs::VfsError::Code::InvalidArgument);
    EXPECT_NE(std::string(e.what()).find("/f"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("chunk size"), std::string::npos);
  }
}

TEST(TreeDiff, UnrelatedTreesStillDiffCorrectlyByContent) {
  // No shared extents at all (independent trees): everything falls back to
  // memcmp, which must still prove equal trees clean.
  MemFs a, b;
  vfs::write_text_file(a, "/f", "same bytes");
  vfs::write_text_file(b, "/f", "same bytes");
  EXPECT_TRUE(a.diff_tree(b).empty());
  vfs::write_text_file(a, "/f", "diff bytes");
  EXPECT_FALSE(a.diff_tree(b).empty());
}

}  // namespace
