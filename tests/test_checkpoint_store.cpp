// Persistent checkpoint store tests: snapshot-codec round-trip bit-identity
// (including chunk sharing, geometry validation, zero-copy decode
// aliasing and structural compaction), store entry integrity (checksum /
// truncation / version-bump rejection with silent rebuild), the bounded
// cache tier (LRU eviction order, lease pinning, GC/compaction, kill-point
// crash fuzzing), cold-vs-warm engine tally equality at multiple thread
// counts, and concurrent engines sharing one store directory — including
// under a budget tight enough to force continuous eviction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/util/mapped_file.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "ffis/vfs/snapshot_codec.hpp"

namespace {

using namespace ffis;
namespace stdfs = std::filesystem;

// --- fixtures ----------------------------------------------------------------

/// Unique scratch directory per test, removed on teardown.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((stdfs::temp_directory_path() /
               ("ffis-store-test-" + tag + "-" + std::to_string(::getpid())))
                  .string()) {
    stdfs::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    stdfs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A fast stage-resumable application that opts into persistence.
class PersistableToyApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "ptoy"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run(const core::RunContext& ctx) const override {
    run_prefix(ctx, 2);
    run_from(ctx, 2);
  }
  void run_prefix(const core::RunContext& ctx, int stage) const override {
    vfs::write_text_file(ctx.fs, "/header", "MAGIC");
    for (int s = 1; s < stage; ++s) do_stage(ctx, s);
  }
  void run_from(const core::RunContext& ctx, int stage) const override {
    for (int s = stage; s <= 2; ++s) do_stage(ctx, s);
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/stage2");
    result.report = "toy";
    result.metrics["bytes"] = static_cast<double>(result.comparison_blob.size());
    return result;
  }
  [[nodiscard]] core::Outcome classify(const core::AnalysisResult&,
                                       const core::AnalysisResult&) const override {
    return core::Outcome::Detected;
  }

  [[nodiscard]] std::string state_fingerprint() const override { return "ptoy/1"; }
  [[nodiscard]] util::Bytes serialize_state(std::uint64_t app_seed) const override {
    util::Bytes out;
    util::ByteWriter w(out);
    w.str("ptoy-state");
    w.u64(app_seed);
    return out;
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    try {
      util::ByteReader r(state);
      if (r.str() != "ptoy-state" || r.u64() != app_seed) return false;
      restores_.fetch_add(1, std::memory_order_relaxed);
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
  [[nodiscard]] std::uint64_t restores() const { return restores_.load(); }

 private:
  void do_stage(const core::RunContext& ctx, int stage) const {
    ctx.enter_stage(stage);
    util::Rng rng(ctx.app_seed * 131 + static_cast<std::uint64_t>(stage));
    vfs::File f(ctx.fs, std::string("/stage") + std::to_string(stage),
                vfs::OpenMode::Write);
    util::Bytes chunk(192);
    for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
    (void)f.pwrite(chunk, 0);
    ctx.leave_stage(stage);
  }

  mutable std::atomic<std::uint64_t> restores_{0};
};

/// A representative tree: directories, an empty file, a sparse file with a
/// hole and a short tail, a mid-chunk-sized file, and a file spanning ten
/// 64-byte extents.
vfs::MemFs::Options tree_options() {
  vfs::MemFs::Options options;
  options.chunk_size = 64;
  return options;
}

void populate_tree(vfs::MemFs& fs) {
  fs.mkdir("/dir");
  fs.mkdir("/dir/sub");
  vfs::write_text_file(fs, "/dir/hello", "hello world");
  fs.mknod("/empty", 0600);
  {
    vfs::File f(fs, "/dir/sub/sparse", vfs::OpenMode::Write);
    util::Bytes data(40, std::byte{0xab});
    (void)f.pwrite(data, 0);
    (void)f.pwrite(data, 300);  // hole between 40 and 300, short tail at 340
  }
  {
    vfs::File f(fs, "/file.big", vfs::OpenMode::Write);
    util::Bytes data(600);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
    (void)f.pwrite(data, 0);
  }
  fs.chmod("/dir/hello", 0400);
}

void expect_trees_identical(const vfs::MemFs& a, const vfs::MemFs& b) {
  EXPECT_TRUE(a.diff_tree(b).empty());
  EXPECT_TRUE(b.diff_tree(a).empty());
}

// --- snapshot codec ----------------------------------------------------------

TEST(SnapshotCodec, RoundTripBitIdentity) {
  vfs::MemFs original(tree_options());
  populate_tree(original);
  const util::Bytes blob = vfs::SnapshotCodec::encode(original);
  EXPECT_EQ(vfs::SnapshotCodec::tree_count(blob), 1u);

  vfs::MemFs decoded(tree_options());
  vfs::SnapshotCodec::decode(blob, decoded);
  expect_trees_identical(original, decoded);
  EXPECT_EQ(decoded.stat("/dir/hello").mode, 0400u);
  EXPECT_EQ(decoded.stat("/empty").size, 0u);
  EXPECT_EQ(decoded.stat("/dir/sub/sparse").size, 340u);
  EXPECT_EQ(vfs::read_text_file(decoded, "/dir/hello"), "hello world");
  // Sparse geometry survives: the hole stores nothing.
  EXPECT_EQ(decoded.stored_bytes(), original.stored_bytes());
  EXPECT_EQ(decoded.allocated_chunks(), original.allocated_chunks());
}

TEST(SnapshotCodec, SharingSurvivesRoundTrip) {
  vfs::MemFs parent(tree_options());
  populate_tree(parent);
  vfs::MemFs child = parent.fork();
  {
    vfs::File f(child, "/file.big", vfs::OpenMode::ReadWrite);
    const util::Bytes patch(8, std::byte{0xff});
    (void)f.pwrite(patch, 300);  // detaches one 64-byte extent
  }

  const vfs::MemFs* trees[] = {&parent, &child};
  const util::Bytes blob = vfs::SnapshotCodec::encode(trees);

  vfs::MemFs decoded_parent(tree_options());
  vfs::MemFs decoded_child(tree_options());
  vfs::MemFs* targets[] = {&decoded_parent, &decoded_child};
  vfs::SnapshotCodec::decode(blob, targets);

  expect_trees_identical(parent, decoded_parent);
  expect_trees_identical(child, decoded_child);
  // The decoded pair shares every extent the original pair shared — the
  // untouched files show up as COW-shared bytes between the two trees.
  EXPECT_GT(decoded_parent.cow_shared_bytes(), 0u);
  // And the diff between the decoded trees matches the original diff.
  const vfs::FsDiff original_diff = child.diff_tree(parent);
  const vfs::FsDiff decoded_diff = decoded_child.diff_tree(decoded_parent);
  ASSERT_EQ(decoded_diff.changed.size(), original_diff.changed.size());
  ASSERT_EQ(original_diff.changed.size(), 1u);
  EXPECT_EQ(decoded_diff.changed[0].path, "/file.big");
  EXPECT_EQ(decoded_diff.changed[0].ranges, original_diff.changed[0].ranges);
}

TEST(SnapshotCodec, ContentAddressingDeduplicatesEqualChunks) {
  vfs::MemFs fs(vfs::MemFs::Options{.concurrency = vfs::MemFs::Concurrency::MultiThread,
                                    .chunk_size = 64});
  const util::Bytes payload(64 * 8, std::byte{0x5a});
  {
    vfs::File a(fs, "/a", vfs::OpenMode::Write);
    (void)a.pwrite(payload, 0);
    vfs::File b(fs, "/b", vfs::OpenMode::Write);
    (void)b.pwrite(payload, 0);
  }
  const util::Bytes blob = vfs::SnapshotCodec::encode(fs);
  // Two identical 512-byte files encode their chunks once: well under the
  // 1024 payload bytes plus bookkeeping that a dedup-free layout would need.
  EXPECT_LT(blob.size(), payload.size() + 512);

  vfs::MemFs decoded(vfs::MemFs::Options{
      .concurrency = vfs::MemFs::Concurrency::MultiThread, .chunk_size = 64});
  vfs::SnapshotCodec::decode(blob, decoded);
  expect_trees_identical(fs, decoded);
  // Both decoded files reference the same materialized chunks.
  EXPECT_GT(decoded.cow_shared_bytes(), 0u);
}

TEST(SnapshotCodec, GeometryMismatchNamesThePath) {
  vfs::MemFs original(tree_options());
  populate_tree(original);
  const util::Bytes blob = vfs::SnapshotCodec::encode(original);

  // A target on another extent size would rebuild every file on the wrong
  // grid.  The error must say which file: the first one in path order.
  vfs::MemFs::Options other_geometry;
  other_geometry.chunk_size = 128;
  vfs::MemFs target(other_geometry);
  try {
    vfs::SnapshotCodec::decode(blob, target);
    FAIL() << "decode accepted mismatched geometry";
  } catch (const vfs::VfsError& e) {
    EXPECT_NE(std::string(e.what()).find("/dir/hello"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("64-byte extents"), std::string::npos) << e.what();
  }
}

TEST(SnapshotCodec, TruncatedAndCorruptBlobsThrow) {
  vfs::MemFs original(tree_options());
  populate_tree(original);
  const util::Bytes blob = vfs::SnapshotCodec::encode(original);

  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, std::size_t{20},
                                 blob.size() / 2, blob.size() - 1}) {
    util::Bytes truncated(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(keep));
    vfs::MemFs target(tree_options());
    EXPECT_THROW(vfs::SnapshotCodec::decode(truncated, target), vfs::VfsError)
        << "accepted a blob truncated to " << keep << " bytes";
  }

  util::Bytes bad_magic = blob;
  bad_magic[0] = std::byte{'X'};
  vfs::MemFs target(tree_options());
  EXPECT_THROW(vfs::SnapshotCodec::decode(bad_magic, target), vfs::VfsError);

  // A non-empty target is rejected too.
  vfs::MemFs dirty(tree_options());
  dirty.mkdir("/oops");
  EXPECT_THROW(vfs::SnapshotCodec::decode(blob, dirty), vfs::VfsError);
}

// --- snapshot codec: compaction and zero-copy decode -------------------------

/// Hand-encodes a single-tree blob whose chunk table carries `dead_chunks`
/// entries no slot references, followed by the one live 64-byte chunk of
/// "/f".  The real encoder never emits unreferenced chunks, so compaction
/// (and the store GC built on it) can only be exercised with a hand-built
/// blob.  Putting the dead entries FIRST forces compact() to renumber the
/// surviving reference, not just truncate the table.
util::Bytes blob_with_dead_chunks(int dead_chunks) {
  util::Bytes out;
  util::ByteWriter w(out);
  util::put_signature(w.out(), "FFSNAP");
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  w.u32(1);  // one tree
  w.u64(static_cast<std::uint64_t>(dead_chunks) + 1);
  for (int i = 0; i < dead_chunks; ++i) {
    const util::Bytes dead(48, static_cast<std::byte>(0xd0 + i));
    w.blob(dead);
  }
  util::Bytes live(64);
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = static_cast<std::byte>(i * 3);
  w.blob(live);
  w.u64(2);  // two nodes
  w.str("/");
  w.u8(1);  // directory
  w.u32(0755);
  w.str("/f");
  w.u8(0);  // file
  w.u32(0644);
  w.u64(64);  // extent size
  w.u64(64);  // logical size
  w.u64(1);   // one slot...
  w.u64(static_cast<std::uint64_t>(dead_chunks) + 1);  // ...naming the LAST entry
  return out;
}

vfs::MemFs::Options chunk64_options() {
  vfs::MemFs::Options options;
  options.chunk_size = 64;
  return options;
}

TEST(SnapshotCodec, CompactDropsUnreferencedChunksAndRenumbers) {
  const util::Bytes bloated = blob_with_dead_chunks(3);
  vfs::MemFs direct(chunk64_options());
  vfs::SnapshotCodec::decode(bloated, direct);  // sanity: the blob is valid

  const auto compacted = vfs::SnapshotCodec::compact(bloated);
  ASSERT_TRUE(compacted.has_value());
  EXPECT_LT(compacted->size(), bloated.size());

  vfs::MemFs from_compacted(chunk64_options());
  vfs::SnapshotCodec::decode(*compacted, from_compacted);
  expect_trees_identical(direct, from_compacted);
  EXPECT_EQ(vfs::read_file(from_compacted, "/f"), vfs::read_file(direct, "/f"));

  // Idempotent: the rewrite left nothing to drop.
  EXPECT_FALSE(vfs::SnapshotCodec::compact(*compacted).has_value());
}

TEST(SnapshotCodec, CompactIsANoOpOnEncoderOutput) {
  // The encoder only emits referenced chunks, so its blobs are born compact.
  vfs::MemFs original(tree_options());
  populate_tree(original);
  EXPECT_FALSE(
      vfs::SnapshotCodec::compact(vfs::SnapshotCodec::encode(original)).has_value());
}

TEST(SnapshotCodec, ZeroCopyDecodePreservesSharingAndDiffs) {
  vfs::MemFs parent(tree_options());
  populate_tree(parent);
  vfs::MemFs child = parent.fork();
  {
    vfs::File f(child, "/file.big", vfs::OpenMode::ReadWrite);
    const util::Bytes patch(8, std::byte{0xff});
    (void)f.pwrite(patch, 300);
  }
  const vfs::MemFs* trees[] = {&parent, &child};
  // Heap backing standing in for a file mapping — same ownership contract.
  const auto owned = std::make_shared<util::Bytes>(vfs::SnapshotCodec::encode(trees));

  vfs::MemFs decoded_parent(tree_options());
  vfs::MemFs decoded_child(tree_options());
  vfs::MemFs* targets[] = {&decoded_parent, &decoded_child};
  vfs::SnapshotCodec::decode(util::ByteSpan(*owned), targets, owned);

  expect_trees_identical(parent, decoded_parent);
  expect_trees_identical(child, decoded_child);
  // Aliased chunks are shared-by-construction, so pointer identity between
  // the two trees — diff_tree's fast path — survives exactly as when copying.
  EXPECT_GT(decoded_parent.cow_shared_bytes(), 0u);
  const vfs::FsDiff diff = decoded_child.diff_tree(decoded_parent);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.changed[0].path, "/file.big");

  // A null backing cannot own the aliased bytes: the overload must refuse.
  vfs::MemFs fresh_a(tree_options());
  vfs::MemFs fresh_b(tree_options());
  vfs::MemFs* fresh[] = {&fresh_a, &fresh_b};
  EXPECT_THROW(vfs::SnapshotCodec::decode(util::ByteSpan(*owned), fresh,
                                          std::shared_ptr<const void>()),
               vfs::VfsError);
}

TEST(SnapshotCodec, ZeroCopyWriteDetachesOutOfTheBacking) {
  vfs::MemFs original(tree_options());
  populate_tree(original);
  const auto owned = std::make_shared<util::Bytes>(vfs::SnapshotCodec::encode(original));
  const util::Bytes pristine = *owned;

  vfs::MemFs decoded(tree_options());
  vfs::MemFs* targets[] = {&decoded};
  vfs::SnapshotCodec::decode(util::ByteSpan(*owned), targets, owned);

  // Writing through an aliased extent must COW-detach a private copy first;
  // the backing blob stays byte-identical (with mmap backing the pages are
  // PROT_READ, so a missed detach faults instead of corrupting the store).
  {
    vfs::File f(decoded, "/dir/hello", vfs::OpenMode::ReadWrite);
    const util::Bytes patch = util::to_bytes("HELLO");
    (void)f.pwrite(patch, 0);
  }
  EXPECT_EQ(vfs::read_text_file(decoded, "/dir/hello"), "HELLO world");
  EXPECT_EQ(*owned, pristine);
  // Untouched files still read straight out of the backing.
  EXPECT_EQ(vfs::read_file(decoded, "/file.big"), vfs::read_file(original, "/file.big"));
}

TEST(SnapshotCodec, MappedBackingSurvivesUnlink) {
  const StoreDir dir("mmap-unlink");
  stdfs::create_directories(dir.path());
  const std::string path = dir.path() + "/blob.bin";
  vfs::MemFs original(tree_options());
  populate_tree(original);
  {
    const util::Bytes blob = vfs::SnapshotCodec::encode(original);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  auto mapped = util::MappedFile::map(path);
  ASSERT_NE(mapped, nullptr);
  vfs::MemFs decoded(tree_options());
  vfs::MemFs* targets[] = {&decoded};
  vfs::SnapshotCodec::decode(mapped->bytes(), targets, mapped);

  // Drop our handle on the mapping and the file's name: the decoded chunks'
  // keepalives are now the only owners, and POSIX keeps the inode alive for
  // them.  This is exactly what GC/eviction does under a live run — ASan
  // (and the kernel) flag any use-after-munmap here.
  mapped.reset();
  stdfs::remove(path);
  expect_trees_identical(original, decoded);
  EXPECT_EQ(vfs::read_text_file(decoded, "/dir/hello"), "hello world");
}

// --- checkpoint store --------------------------------------------------------

core::CheckpointStore::Key toy_key(const PersistableToyApp& app, std::uint64_t seed,
                                   int stage, const vfs::MemFs::Options& options = {}) {
  return core::CheckpointStore::Key::of(app, seed, stage, options);
}

TEST(CheckpointStore, CheckpointRoundTrip) {
  const StoreDir dir("ckpt-roundtrip");
  const core::CheckpointStore store(dir.path());
  const PersistableToyApp app;
  const std::uint64_t seed = 77;

  const auto checkpoint = core::Checkpoint::capture(app, seed, 2);
  const auto golden_tree = checkpoint->grow_golden_tree(app, seed);
  const util::Bytes state = app.serialize_state(seed);
  ASSERT_TRUE(store.save_checkpoint(toy_key(app, seed, 2), *checkpoint,
                                    golden_tree.get(), state));

  const auto loaded = store.load_checkpoint(toy_key(app, seed, 2), {});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint->stage(), 2);
  EXPECT_EQ(loaded->app_state, state);
  expect_trees_identical(loaded->checkpoint->fs(), checkpoint->fs());
  ASSERT_NE(loaded->golden_tree, nullptr);
  expect_trees_identical(*loaded->golden_tree, *golden_tree);
  // The loaded golden tree still shares the prefix with the loaded
  // checkpoint snapshot (pointer identity restored by the codec), so a run
  // forked from the loaded checkpoint diffs its prefix by pointer equality.
  EXPECT_GT(loaded->checkpoint->cow_shared_bytes(), 0u);

  // Declining the golden tree skips its materialization but still loads the
  // snapshot and app state.
  const auto no_tree =
      store.load_checkpoint(toy_key(app, seed, 2), {}, /*want_golden_tree=*/false);
  ASSERT_TRUE(no_tree.has_value());
  EXPECT_EQ(no_tree->golden_tree, nullptr);
  EXPECT_EQ(no_tree->app_state, state);
  expect_trees_identical(no_tree->checkpoint->fs(), checkpoint->fs());
}

TEST(CheckpointStore, GoldenRoundTrip) {
  const StoreDir dir("golden-roundtrip");
  const core::CheckpointStore store(dir.path());
  const PersistableToyApp app;

  vfs::MemFs tree;
  core::RunContext ctx{.fs = tree, .app_seed = 5, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const core::AnalysisResult analysis = app.analyze(tree);

  ASSERT_TRUE(store.save_golden(toy_key(app, 5, -1), analysis, &tree));
  const auto loaded = store.load_golden(toy_key(app, 5, -1), {});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->analysis->comparison_blob, analysis.comparison_blob);
  EXPECT_EQ(loaded->analysis->report, analysis.report);
  EXPECT_EQ(loaded->analysis->metrics, analysis.metrics);
  ASSERT_NE(loaded->tree, nullptr);
  expect_trees_identical(*loaded->tree, tree);
}

TEST(CheckpointStore, UnpersistableApplicationIsSkipped) {
  const StoreDir dir("unpersistable");
  const core::CheckpointStore store(dir.path());
  const PersistableToyApp app;
  core::CheckpointStore::Key key = toy_key(app, 1, 2);
  key.app_fingerprint.clear();  // what a default Application reports

  const auto checkpoint = core::Checkpoint::capture(app, 1, 2);
  EXPECT_FALSE(store.save_checkpoint(key, *checkpoint, nullptr, {}));
  EXPECT_FALSE(store.load_checkpoint(key, {}).has_value());
  EXPECT_TRUE(stdfs::is_empty(dir.path()));
}

class CheckpointStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<StoreDir>("corruption");
    store_ = std::make_unique<core::CheckpointStore>(dir_->path());
    checkpoint_ = core::Checkpoint::capture(app_, kSeed, 2);
    ASSERT_TRUE(store_->save_checkpoint(key(), *checkpoint_, nullptr,
                                        app_.serialize_state(kSeed)));
    path_ = store_->entry_path(key());
    ASSERT_TRUE(stdfs::exists(path_));
  }

  [[nodiscard]] core::CheckpointStore::Key key() const { return toy_key(app_, kSeed, 2); }

  [[nodiscard]] util::Bytes read_entry() const {
    std::ifstream in(path_, std::ios::binary);
    std::string raw((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return util::to_bytes(raw);
  }
  void write_entry(const util::Bytes& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  /// The store must reject the tampered entry, then transparently rebuild
  /// (save + load) over it.
  void expect_rejected_then_rebuilt() {
    EXPECT_FALSE(store_->load_checkpoint(key(), {}).has_value());
    ASSERT_TRUE(store_->save_checkpoint(key(), *checkpoint_, nullptr,
                                        app_.serialize_state(kSeed)));
    const auto reloaded = store_->load_checkpoint(key(), {});
    ASSERT_TRUE(reloaded.has_value());
    expect_trees_identical(reloaded->checkpoint->fs(), checkpoint_->fs());
  }

  static constexpr std::uint64_t kSeed = 9;
  PersistableToyApp app_;
  std::unique_ptr<StoreDir> dir_;
  std::unique_ptr<core::CheckpointStore> store_;
  std::shared_ptr<const core::Checkpoint> checkpoint_;
  std::string path_;
};

TEST_F(CheckpointStoreCorruption, FlippedByteIsRejectedAndRebuilt) {
  util::Bytes data = read_entry();
  data[data.size() / 2] ^= std::byte{0x40};
  write_entry(data);
  expect_rejected_then_rebuilt();
}

TEST_F(CheckpointStoreCorruption, TruncationIsRejectedAndRebuilt) {
  util::Bytes data = read_entry();
  data.resize(data.size() / 3);
  write_entry(data);
  expect_rejected_then_rebuilt();
}

TEST_F(CheckpointStoreCorruption, EmptyFileIsRejectedAndRebuilt) {
  write_entry({});
  expect_rejected_then_rebuilt();
}

TEST_F(CheckpointStoreCorruption, VersionBumpIsRejectedAndRebuilt) {
  // Bump the store-format version field (u32 right after the 6-byte magic)
  // and re-seal the checksum, simulating an entry from a future build: the
  // checksum passes, the version check must still reject it.
  util::Bytes data = read_entry();
  ASSERT_GE(data.size(), 18u);
  data.resize(data.size() - 8);  // strip the old checksum
  util::put_le_at(data, 6, core::CheckpointStore::kFormatVersion + 1, 4);
  util::ByteWriter w(data);
  w.u64(util::fnv1a64(util::ByteSpan(data)));
  write_entry(data);
  expect_rejected_then_rebuilt();
}

// --- bounded cache tier: mmap decode, LRU eviction, leases, GC ---------------

/// Saves one toy checkpoint entry (no golden tree) and returns its path.
std::string save_toy_entry(const core::CheckpointStore& store,
                           const PersistableToyApp& app, std::uint64_t seed) {
  const auto checkpoint = core::Checkpoint::capture(app, seed, 2);
  EXPECT_TRUE(store.save_checkpoint(toy_key(app, seed, 2), *checkpoint, nullptr,
                                    app.serialize_state(seed)));
  return store.entry_path(toy_key(app, seed, 2));
}

/// Hand-writes a VALID golden entry for (app, seed) whose snapshot blob
/// carries unreferenced chunks (see blob_with_dead_chunks) and returns its
/// path.  GC must load it, compact the blob, and republish it smaller.
std::string write_compactable_golden_entry(const core::CheckpointStore& store,
                                           const PersistableToyApp& app,
                                           std::uint64_t seed) {
  const core::CheckpointStore::Key key = toy_key(app, seed, -1, chunk64_options());
  util::Bytes payload;
  util::ByteWriter w(payload);
  util::put_signature(w.out(), "FFCKPT");
  w.u32(core::CheckpointStore::kFormatVersion);
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  w.u8(2);  // golden entry
  w.str(key.app_name);
  w.str(key.app_fingerprint);
  w.u64(key.app_seed);
  w.i32(-1);
  w.u64(key.chunk_size);
  w.blob(util::to_bytes("golden-comparison-blob"));  // analysis.comparison_blob
  w.str("handmade");                                 // analysis.report
  w.u64(1);                                          // one metric
  w.str("bytes");
  w.f64(64.0);
  w.u8(1);  // has tree
  w.blob(blob_with_dead_chunks(4));
  w.u64(util::fnv1a64(payload));

  const std::string path = store.entry_path(key);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  return path;
}

TEST(CheckpointStore, EvictionAndGcNeverInvalidateALoadedEntry) {
  const StoreDir dir("mmap-live-entry");
  const PersistableToyApp app;
  const core::CheckpointStore store(dir.path());
  const std::string path = save_toy_entry(store, app, 5);
  const auto reference = core::Checkpoint::capture(app, 5, 2);

  const auto loaded = store.load_checkpoint(toy_key(app, 5, 2), {});
  ASSERT_TRUE(loaded.has_value());
  // Unlink the entry behind the store's back (what eviction does) and run a
  // GC pass: the mapping pins the inode, so the live tree keeps reading.
  stdfs::remove(path);
  (void)store.gc();
  expect_trees_identical(loaded->checkpoint->fs(), reference->fs());
  // And a fork of the loaded tree is freely writable (COW detach).
  vfs::MemFs scratch = loaded->checkpoint->fs().fork();
  vfs::write_text_file(scratch, "/extra", "post-unlink write");
  EXPECT_EQ(vfs::read_text_file(scratch, "/extra"), "post-unlink write");
}

TEST(CheckpointStore, BudgetEvictsLeastRecentlyUsedFirst) {
  const StoreDir dir("lru-order");
  const PersistableToyApp app;
  std::vector<std::string> paths;
  std::uint64_t per_entry = 0;
  {
    const core::CheckpointStore store(dir.path());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      paths.push_back(save_toy_entry(store, app, seed));
      per_entry = std::max<std::uint64_t>(per_entry, stdfs::file_size(paths.back()));
    }
    // A load hit refreshes recency: seed 1 jumps from coldest to hottest.
    ASSERT_TRUE(store.load_checkpoint(toy_key(app, 1, 2), {}).has_value());
  }

  // Re-open with room for roughly two and a half entries: the sweep stops
  // at the low-water mark, so the two coldest (seeds 2, 3) go and the
  // freshly-touched seed 1 and last-saved seed 4 stay.
  core::CheckpointStore::Options options;
  options.budget_bytes = per_entry * 2 + per_entry / 2;
  const core::CheckpointStore bounded(dir.path(), options);
  EXPECT_TRUE(stdfs::exists(paths[0]));
  EXPECT_FALSE(stdfs::exists(paths[1]));
  EXPECT_FALSE(stdfs::exists(paths[2]));
  EXPECT_TRUE(stdfs::exists(paths[3]));
  EXPECT_EQ(bounded.stats().evictions, 2u);
  EXPECT_GT(bounded.stats().bytes_evicted, 0u);
  EXPECT_LE(bounded.total_bytes(), options.budget_bytes);

  // Evicted keys are plain misses; survivors still load.
  EXPECT_FALSE(bounded.load_checkpoint(toy_key(app, 2, 2), {}).has_value());
  EXPECT_TRUE(bounded.load_checkpoint(toy_key(app, 1, 2), {}).has_value());
}

TEST(CheckpointStore, LeasedEntriesAreNeverEvicted) {
  const StoreDir dir("lease-pin");
  const PersistableToyApp app;
  core::CheckpointStore::Lease pin;
  std::string path_a;
  std::string path_b;
  std::uint64_t per_entry = 0;
  {
    const core::CheckpointStore store(dir.path());
    path_a = save_toy_entry(store, app, 1);
    path_b = save_toy_entry(store, app, 2);
    per_entry = stdfs::file_size(path_a);
    pin = store.lease(toy_key(app, 1, 2));
  }

  // A budget below one entry cannot be met: the unleased B goes, the leased
  // A survives, and since eviction alone cannot satisfy the budget the
  // automatic GC pass kicks in.
  core::CheckpointStore::Options options;
  options.budget_bytes = per_entry / 2;
  const core::CheckpointStore bounded(dir.path(), options);
  EXPECT_TRUE(stdfs::exists(path_a));
  EXPECT_FALSE(stdfs::exists(path_b));
  EXPECT_GE(bounded.stats().evictions, 1u);
  EXPECT_GE(bounded.stats().gc_runs, 1u);
  ASSERT_TRUE(bounded.load_checkpoint(toy_key(app, 1, 2), {}).has_value());

  // Dropping the lease re-exposes A: the next save's sweep evicts it.
  pin = {};
  const std::string path_c = save_toy_entry(bounded, app, 3);
  EXPECT_FALSE(stdfs::exists(path_a));
  EXPECT_TRUE(stdfs::exists(path_c));  // the just-saved entry is never a victim
}

TEST(CheckpointStore, GcCompactsEntriesWithUnreferencedChunks) {
  const StoreDir dir("gc-compaction");
  const PersistableToyApp app;
  const core::CheckpointStore store(dir.path());
  const core::CheckpointStore::Key key = toy_key(app, 11, -1, chunk64_options());
  const std::string path = write_compactable_golden_entry(store, app, 11);
  const std::uint64_t before = stdfs::file_size(path);

  // The bloated entry is valid and loads.
  const auto bloated = store.load_golden(key, chunk64_options());
  ASSERT_TRUE(bloated.has_value());
  ASSERT_NE(bloated->tree, nullptr);

  const auto gc = store.gc();
  EXPECT_EQ(gc.temp_files_removed, 0u);
  EXPECT_EQ(gc.invalid_entries_removed, 0u);
  EXPECT_EQ(gc.entries_compacted, 1u);
  EXPECT_EQ(gc.entries_kept, 1u);
  const std::uint64_t after = stdfs::file_size(path);
  EXPECT_LT(after, before);
  // GC reads entries through the mapping; its accounting must still be
  // exactly the file shrinkage.
  EXPECT_EQ(gc.bytes_reclaimed, before - after);
  EXPECT_EQ(store.stats().gc_runs, 1u);

  // The rewritten entry still loads, bit-identical to the bloated one.
  const auto reloaded = store.load_golden(key, chunk64_options());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->analysis->report, "handmade");
  EXPECT_EQ(reloaded->analysis->comparison_blob, bloated->analysis->comparison_blob);
  ASSERT_NE(reloaded->tree, nullptr);
  expect_trees_identical(*reloaded->tree, *bloated->tree);

  // A second pass finds nothing left to reclaim.
  const auto again = store.gc();
  EXPECT_EQ(again.entries_compacted, 0u);
  EXPECT_EQ(again.entries_kept, 1u);
}

TEST(CheckpointStore, GcSweepsTempFilesAndInvalidEntries) {
  const StoreDir dir("gc-sweep");
  const PersistableToyApp app;
  const core::CheckpointStore store(dir.path());
  const std::string kept = save_toy_entry(store, app, 1);

  const auto drop_file = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir.path() + "/" + name) << text;
  };
  drop_file("ptoy-s9-st2-0123456789abcdef.ffck.tmp-999-1", "orphaned partial write");
  drop_file("garbage-s1-st1-ffffffffffffffff.ffck", "not a checkpoint entry");

  const auto gc = store.gc();
  EXPECT_EQ(gc.temp_files_removed, 1u);
  EXPECT_EQ(gc.invalid_entries_removed, 1u);
  EXPECT_EQ(gc.entries_kept, 1u);
  EXPECT_GT(gc.bytes_reclaimed, 0u);
  EXPECT_TRUE(stdfs::exists(kept));
  // Only the valid entry remains on disk.
  std::size_t files = 0;
  for (const auto& entry : stdfs::directory_iterator(dir.path())) {
    ++files;
    EXPECT_EQ(entry.path().string(), kept);
  }
  EXPECT_EQ(files, 1u);
  EXPECT_TRUE(store.load_checkpoint(toy_key(app, 1, 2), {}).has_value());
}

// --- crash-point fuzz --------------------------------------------------------

/// Deliberately NOT derived from std::exception: the store treats bad files
/// as misses by catching std::exception internally, and a simulated crash
/// must tear through those handlers like a real one would.
struct TestCrash {
  std::string point;
};

/// A deterministic workload touching every kill point: a store opened over
/// pre-seeded junk (orphan temp file, garbage entry), saves under a budget
/// tight enough to force eviction on every save, a load, and a GC pass over
/// refreshed junk plus a hand-built compactable entry.
void run_store_workload(const std::string& dir_path) {
  const PersistableToyApp app;
  stdfs::create_directories(dir_path);
  const auto drop_file = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir_path + "/" + name) << text;
  };
  drop_file("ptoy-s9-st2-0123456789abcdef.ffck.tmp-999-1", "orphaned partial write");
  drop_file("garbage-s1-st1-ffffffffffffffff.ffck", "not a checkpoint entry");

  core::CheckpointStore::Options options;
  options.budget_bytes = 600;
  const core::CheckpointStore store(dir_path, options);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto checkpoint = core::Checkpoint::capture(app, seed, 2);
    (void)store.save_checkpoint(toy_key(app, seed, 2), *checkpoint, nullptr,
                                app.serialize_state(seed));
  }
  (void)store.load_checkpoint(toy_key(app, 3, 2), {});

  // Refresh the junk (the budget sweeps above may have evicted the garbage
  // entry already) so the GC pass exercises every one of its kill points.
  drop_file("ptoy-s8-st2-aaaaaaaaaaaaaaaa.ffck.tmp-999-2", "orphaned partial write");
  drop_file("garbage-s2-st1-eeeeeeeeeeeeeeee.ffck", "still not a checkpoint");
  write_compactable_golden_entry(store, app, 11);
  (void)store.gc();
}

/// Reopens `dir_path` as a fresh process would and proves the store is
/// fully usable: loads either miss or return valid data, a GC pass leaves
/// no temp files behind, and a save + load round trip works.
void expect_store_recovers(const std::string& dir_path) {
  const PersistableToyApp app;
  const core::CheckpointStore store(dir_path);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto loaded = store.load_checkpoint(toy_key(app, seed, 2), {});
    if (loaded.has_value()) {
      const auto expected = core::Checkpoint::capture(app, seed, 2);
      expect_trees_identical(loaded->checkpoint->fs(), expected->fs());
      EXPECT_EQ(loaded->app_state, app.serialize_state(seed));
    }
  }
  (void)store.gc();
  for (const auto& entry : stdfs::directory_iterator(dir_path)) {
    EXPECT_EQ(entry.path().string().find(".tmp-"), std::string::npos) << entry.path();
  }
  const auto checkpoint = core::Checkpoint::capture(app, 50, 2);
  ASSERT_TRUE(store.save_checkpoint(toy_key(app, 50, 2), *checkpoint, nullptr,
                                    app.serialize_state(50)));
  const auto reloaded = store.load_checkpoint(toy_key(app, 50, 2), {});
  ASSERT_TRUE(reloaded.has_value());
  expect_trees_identical(reloaded->checkpoint->fs(), checkpoint->fs());
}

TEST(CheckpointStoreCrashFuzz, KilledAtEveryPointLeavesAValidStore) {
  // Pass 1: count the kill points a clean run of the workload crosses.
  core::CheckpointStore::reset_shared_state_for_testing();
  int total = 0;
  core::CheckpointStore::set_test_hook([&](const char*) { ++total; });
  {
    const StoreDir dir("crash-count");
    run_store_workload(dir.path());
  }
  core::CheckpointStore::set_test_hook(nullptr);
  // The workload must cross every kind of kill point at least once: two
  // per save (temp write, rename), eviction unlinks, and the three GC steps.
  ASSERT_GE(total, 10);

  // Pass 2: replay the workload on a fresh directory, crashing at the nth
  // point, then "reboot" (reset the in-process index, as a new process
  // would start) and prove the on-disk store recovered.
  for (int n = 1; n <= total; ++n) {
    core::CheckpointStore::reset_shared_state_for_testing();
    const StoreDir dir("crash-" + std::to_string(n));
    int remaining = n;
    std::string died_at = "(ran to completion)";
    core::CheckpointStore::set_test_hook([&](const char* point) {
      if (--remaining == 0) throw TestCrash{point};
    });
    try {
      run_store_workload(dir.path());
    } catch (const TestCrash& crash) {
      died_at = crash.point;
    }
    core::CheckpointStore::set_test_hook(nullptr);
    core::CheckpointStore::reset_shared_state_for_testing();

    SCOPED_TRACE("kill point " + std::to_string(n) + " of " + std::to_string(total) +
                 ": " + died_at);
    expect_store_recovers(dir.path());
  }
  core::CheckpointStore::reset_shared_state_for_testing();
}

// --- engine integration ------------------------------------------------------

nyx::NyxConfig small_nyx_config() {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 2;
  return config;
}

exp::ExperimentPlan nyx_plan(const core::Application& app, std::uint64_t runs) {
  return exp::PlanBuilder()
      .runs(runs)
      .seed(42)
      .app(app)
      .faults({"BF", "SHORN_WRITE@pwrite"})
      .stage(2)
      .product()
      .build();
}

void expect_equal_tallies(const exp::ExperimentReport& a, const exp::ExperimentReport& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_TRUE(a.cells[i].error.empty()) << a.cells[i].error;
    ASSERT_TRUE(b.cells[i].error.empty()) << b.cells[i].error;
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      const auto outcome = static_cast<core::Outcome>(o);
      EXPECT_EQ(a.cells[i].tally.count(outcome), b.cells[i].tally.count(outcome))
          << "cell " << i << " outcome " << o;
    }
  }
}

TEST(EngineCheckpointStore, WarmStartSkipsPrefixWithIdenticalTallies) {
  const StoreDir dir("engine-warm");
  constexpr std::uint64_t kRuns = 12;

  // Cold process: no entries yet — everything executes, then persists.
  nyx::NyxApp cold_app(small_nyx_config());
  exp::EngineOptions options;
  options.threads = 2;
  options.checkpoint_dir = dir.path();
  exp::Engine cold_engine(options);
  const auto cold = cold_engine.run(nyx_plan(cold_app, kRuns));
  EXPECT_EQ(cold.golden_executions, 1u);
  EXPECT_EQ(cold.checkpoint_builds, 1u);  // both cells share one (app, seed, stage)
  EXPECT_EQ(cold.checkpoints_loaded, 0u);
  EXPECT_EQ(cold.checkpoints_persisted, 1u);
  EXPECT_EQ(cold.goldens_loaded, 0u);
  EXPECT_EQ(cold.goldens_persisted, 1u);
  for (const auto& cell : cold.cells) EXPECT_FALSE(cell.checkpoint_loaded);

  // Warm "process" (fresh engine AND fresh app instance, so in-memory
  // caches are cold): zero golden executions, zero prefix captures — the
  // zero-prefix-stages signature — at 1 and 4 threads, bit-identical.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    nyx::NyxApp warm_app(small_nyx_config());
    exp::EngineOptions warm_options = options;
    warm_options.threads = threads;
    exp::Engine warm_engine(warm_options);
    const auto warm = warm_engine.run(nyx_plan(warm_app, kRuns));
    EXPECT_EQ(warm.golden_executions, 0u) << threads << " threads";
    EXPECT_EQ(warm.checkpoint_builds, 0u) << threads << " threads";
    EXPECT_EQ(warm.goldens_loaded, 1u);
    EXPECT_EQ(warm.checkpoints_loaded, 1u);
    EXPECT_EQ(warm.checkpoints_persisted, 0u);
    for (const auto& cell : warm.cells) {
      EXPECT_TRUE(cell.checkpointed);
      EXPECT_TRUE(cell.checkpoint_loaded);
    }
    expect_equal_tallies(cold, warm);
  }
}

TEST(EngineCheckpointStore, WarmStartMatchesStorelessRun) {
  // The store must change nothing but time: a run without any store and a
  // warm run from a populated store produce bit-identical tallies.
  const StoreDir dir("engine-vs-storeless");
  constexpr std::uint64_t kRuns = 10;

  nyx::NyxApp plain_app(small_nyx_config());
  exp::EngineOptions plain_options;
  plain_options.threads = 2;
  const auto plain = exp::Engine(plain_options).run(nyx_plan(plain_app, kRuns));

  exp::EngineOptions store_options = plain_options;
  store_options.checkpoint_dir = dir.path();
  nyx::NyxApp cold_app(small_nyx_config());
  const auto cold = exp::Engine(store_options).run(nyx_plan(cold_app, kRuns));
  nyx::NyxApp warm_app(small_nyx_config());
  const auto warm = exp::Engine(store_options).run(nyx_plan(warm_app, kRuns));

  expect_equal_tallies(plain, cold);
  expect_equal_tallies(plain, warm);
  EXPECT_EQ(warm.checkpoints_loaded, 1u);
}

TEST(EngineCheckpointStore, RestoresApplicationState) {
  const StoreDir dir("engine-appstate");
  const PersistableToyApp cold_app;
  exp::EngineOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir.path();

  const auto plan_for = [](const core::Application& app) {
    return exp::PlanBuilder().runs(4).seed(7).app(app).fault("BF").stage(2).product().build();
  };
  (void)exp::Engine(options).run(plan_for(cold_app));
  EXPECT_EQ(cold_app.restores(), 0u);

  const PersistableToyApp warm_app;
  const auto warm = exp::Engine(options).run(plan_for(warm_app));
  EXPECT_EQ(warm.checkpoints_loaded, 1u);
  EXPECT_EQ(warm_app.restores(), 1u);
}

TEST(EngineCheckpointStore, TreelessEntryIsUpgradedOnceThenFullyWarm) {
  // Stores written before every cell classified by diff can hold checkpoint
  // entries without golden trees.  The engine must (a) still load them and
  // grow the tree from the snapshot (suffix-only, no prefix), (b) write the
  // upgraded entry back, so (c) the next process is fully warm.
  const StoreDir dir("engine-upgrade");
  constexpr std::uint64_t kRuns = 8;

  nyx::NyxApp cold_app(small_nyx_config());
  const auto plan = nyx_plan(cold_app, kRuns);
  const std::uint64_t app_seed = plan.cells()[0].app_seed();
  const core::CheckpointStore store(dir.path());
  ASSERT_TRUE(store.save_checkpoint(core::CheckpointStore::Key::of(cold_app, app_seed, 2, {}),
                                    *core::Checkpoint::capture(cold_app, app_seed, 2),
                                    /*golden_tree=*/nullptr, cold_app.serialize_state(app_seed)));
  const auto reference = exp::reference_run(plan);

  exp::EngineOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir.path();
  nyx::NyxApp upgrade_app(small_nyx_config());
  const auto upgraded = exp::Engine(options).run(nyx_plan(upgrade_app, kRuns));
  EXPECT_EQ(upgraded.checkpoints_loaded, 1u);
  EXPECT_EQ(upgraded.checkpoint_builds, 0u);
  EXPECT_EQ(upgraded.checkpoints_persisted, 1u);  // the upgrade write-back
  expect_equal_tallies(reference, upgraded);

  nyx::NyxApp warm_app(small_nyx_config());
  const auto warm = exp::Engine(options).run(nyx_plan(warm_app, kRuns));
  EXPECT_EQ(warm.checkpoints_loaded, 1u);
  EXPECT_EQ(warm.checkpoints_persisted, 0u);  // nothing left to upgrade
  expect_equal_tallies(reference, warm);
}

TEST(EngineCheckpointStore, ConcurrentEnginesShareOneStoreDir) {
  const StoreDir dir("engine-concurrent");
  constexpr std::uint64_t kRuns = 8;
  constexpr int kEngines = 3;

  // Reference tallies without any store.
  nyx::NyxApp ref_app(small_nyx_config());
  exp::EngineOptions ref_options;
  ref_options.threads = 2;
  const auto reference = exp::Engine(ref_options).run(nyx_plan(ref_app, kRuns));

  // N engines race on one directory: every save is temp-file + rename, so
  // whatever interleaving happens, each engine sees either a miss (and
  // rebuilds) or a complete valid entry — never a torn one.
  std::vector<exp::ExperimentReport> reports(kEngines);
  std::vector<std::unique_ptr<nyx::NyxApp>> apps;
  for (int e = 0; e < kEngines; ++e) {
    apps.push_back(std::make_unique<nyx::NyxApp>(small_nyx_config()));
  }
  std::vector<std::thread> threads;
  for (int e = 0; e < kEngines; ++e) {
    threads.emplace_back([&, e] {
      exp::EngineOptions options;
      options.threads = 1;
      options.checkpoint_dir = dir.path();
      reports[static_cast<std::size_t>(e)] =
          exp::Engine(options).run(nyx_plan(*apps[static_cast<std::size_t>(e)], kRuns));
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& report : reports) expect_equal_tallies(reference, report);

  // And a final warm run over whatever the race left behind.
  nyx::NyxApp warm_app(small_nyx_config());
  exp::EngineOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir.path();
  const auto warm = exp::Engine(options).run(nyx_plan(warm_app, kRuns));
  EXPECT_EQ(warm.checkpoints_loaded, 1u);
  EXPECT_EQ(warm.golden_executions, 0u);
  expect_equal_tallies(reference, warm);
}

// --- engine integration: bounded store ---------------------------------------

exp::ExperimentPlan seeded_nyx_plan(const core::Application& app, std::uint64_t runs,
                                    std::uint64_t seed) {
  return exp::PlanBuilder()
      .runs(runs)
      .seed(seed)
      .app(app)
      .faults({"BF", "SHORN_WRITE@pwrite"})
      .stage(2)
      .product()
      .build();
}

TEST(EngineCheckpointStore, BudgetedStoreEvictsWithBitIdenticalTallies) {
  // Two campaigns with different seeds have disjoint store keys; under a
  // budget smaller than one campaign's working set the second run's saves
  // (and its store's opening scan) must evict the first's entries — and
  // none of that may change a single tally.
  const StoreDir dir("engine-evict");
  constexpr std::uint64_t kRuns = 6;

  exp::EngineOptions plain;
  plain.threads = 2;
  nyx::NyxApp ref_app_a(small_nyx_config());
  const auto ref_a = exp::Engine(plain).run(seeded_nyx_plan(ref_app_a, kRuns, 42));
  nyx::NyxApp ref_app_b(small_nyx_config());
  const auto ref_b = exp::Engine(plain).run(seeded_nyx_plan(ref_app_b, kRuns, 43));

  exp::EngineOptions budgeted = plain;
  budgeted.checkpoint_dir = dir.path();
  budgeted.checkpoint_budget = 100000;  // < one campaign's checkpoint + golden

  nyx::NyxApp app_a(small_nyx_config());
  const auto a = exp::Engine(budgeted).run(seeded_nyx_plan(app_a, kRuns, 42));
  nyx::NyxApp app_b(small_nyx_config());
  const auto b = exp::Engine(budgeted).run(seeded_nyx_plan(app_b, kRuns, 43));

  expect_equal_tallies(ref_a, a);
  expect_equal_tallies(ref_b, b);
  // Run A could not fit its own working set: leases kept the live entries
  // pinned, so the budget was enforced through the automatic GC pass.
  EXPECT_GT(a.store_misses, 0u);
  EXPECT_GT(a.store_gc_runs, 0u);
  // Run B's store observed A's (now unleased) entries and evicted them.
  EXPECT_GT(b.store_evictions, 0u);
  EXPECT_GT(b.store_bytes_evicted, 0u);
}

TEST(EngineCheckpointStore, ConcurrentEnginesUnderTightBudgetStayCorrect) {
  // The tentpole pinning guarantee: three engines race on one directory
  // under a budget that can never be satisfied, so every save triggers an
  // eviction sweep — and only leases stand between a running cell and its
  // checkpoint being unlinked mid-use.  Tallies must match a storeless
  // reference at 1 and 4 engine threads.
  constexpr std::uint64_t kRuns = 8;
  constexpr int kEngines = 3;

  nyx::NyxApp ref_app(small_nyx_config());
  exp::EngineOptions ref_options;
  ref_options.threads = 2;
  const auto reference = exp::Engine(ref_options).run(nyx_plan(ref_app, kRuns));

  for (const std::size_t engine_threads : {std::size_t{1}, std::size_t{4}}) {
    const StoreDir dir("engine-tight-" + std::to_string(engine_threads));
    std::vector<exp::ExperimentReport> reports(kEngines);
    std::vector<std::unique_ptr<nyx::NyxApp>> apps;
    for (int e = 0; e < kEngines; ++e) {
      apps.push_back(std::make_unique<nyx::NyxApp>(small_nyx_config()));
    }
    std::vector<std::thread> threads;
    for (int e = 0; e < kEngines; ++e) {
      threads.emplace_back([&, e] {
        exp::EngineOptions options;
        options.threads = engine_threads;
        options.checkpoint_dir = dir.path();
        options.checkpoint_budget = 1;  // pathological: evict everything unleased
        reports[static_cast<std::size_t>(e)] = exp::Engine(options).run(
            nyx_plan(*apps[static_cast<std::size_t>(e)], kRuns));
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& report : reports) {
      expect_equal_tallies(reference, report);
    }
  }
}

}  // namespace
