// Persistent checkpoint store tests: snapshot-codec round-trip bit-identity
// (including chunk sharing, geometry validation and zero-copy decode
// aliasing), pinned entry bytes, store entry integrity (checksum /
// truncation / version-bump rejection with silent rebuild, seeded mutation
// fuzzing of both entry kinds), the bounded cache tier (LRU eviction
// order, lease pinning, GC, kill-point crash fuzzing), cold-vs-warm engine
// tally equality at multiple thread counts, and concurrent engines sharing
// one store directory — including under a budget tight enough to force
// continuous eviction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/seed_cache.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/util/logging.hpp"
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

/// A fast stage-resumable application that opts into persistence.  Its
/// per-seed input is the base of its stage generators; the state blob frames
/// it with no payload (it is cheap to derive) and restores() counts decodes.
class PersistableToyApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "ptoy"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run_stages(const core::RunContext& ctx, int first, int last) const override {
    if (first == 0) vfs::write_text_file(ctx.fs, "/header", "MAGIC");
    for (int s = std::max(first, 1); s <= last; ++s) do_stage(ctx, s);
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
    return cached_base_.serialize(app_seed);
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    return cached_base_.restore(app_seed, state);
  }
  [[nodiscard]] std::uint64_t restores() const { return restores_.load(); }

 private:
  void do_stage(const core::RunContext& ctx, int stage) const {
    ctx.enter_stage(stage);
    util::Rng rng(*cached_base_.get(ctx.app_seed) + static_cast<std::uint64_t>(stage));
    vfs::File f(ctx.fs, std::string("/stage") + std::to_string(stage),
                vfs::OpenMode::Write);
    util::Bytes chunk(192);
    for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
    (void)f.pwrite(chunk, 0);
    ctx.leave_stage(stage);
  }

  mutable std::atomic<std::uint64_t> restores_{0};
  core::SeedCache<std::uint64_t> cached_base_{
      "ptoy-state", [](std::uint64_t seed) { return seed * 131; },
      [](std::uint64_t, util::ByteWriter&) {},
      [this](std::uint64_t seed, util::ByteReader&) {
        restores_.fetch_add(1, std::memory_order_relaxed);
        return seed * 131;
      }};
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

TEST(SnapshotCodec, DecliningATreeDecodesTheOtherAsTheFullDecodeDoes) {
  // A checkpoint-like tree and a golden tree grown from it, which shares
  // its extents and adds one of its own.
  vfs::MemFs checkpoint(tree_options());
  populate_tree(checkpoint);
  vfs::write_text_file(checkpoint, "/twin", "hello world");  // /dir/hello's bytes
  vfs::MemFs golden = checkpoint.fork();
  vfs::write_text_file(golden, "/output", "the golden tree's own extent");
  const vfs::MemFs* trees[] = {&checkpoint, &golden};
  const util::Bytes blob = vfs::SnapshotCodec::encode(trees);

  vfs::MemFs full_first(tree_options()), full_second(tree_options()), first(tree_options());
  vfs::MemFs* both[] = {&full_first, &full_second};
  vfs::SnapshotCodec::decode(blob, both);
  vfs::MemFs* only_first[] = {&first, nullptr};
  vfs::SnapshotCodec::decode(blob, only_first);

  expect_trees_identical(first, full_first);
  expect_trees_identical(first, checkpoint);
  EXPECT_EQ(first.allocated_chunks(), full_first.allocated_chunks());
  EXPECT_EQ(first.stored_bytes(), full_first.stored_bytes());
  // Its extents share exactly as those of the tree decoded alone (/twin and
  // /dir/hello hold one), and none is left shared with the declined tree.
  vfs::MemFs alone(tree_options());
  vfs::SnapshotCodec::decode(vfs::SnapshotCodec::encode(checkpoint), alone);
  EXPECT_EQ(first.cow_shared_bytes(), alone.cow_shared_bytes());
  EXPECT_GT(first.cow_shared_bytes(), 0u);
}

// --- snapshot codec: zero-copy decode ----------------------------------------

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
  ASSERT_TRUE(store.save_checkpoint(toy_key(app, seed, 2), *checkpoint, *golden_tree,
                                    state));

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

  ASSERT_TRUE(store.save_golden(toy_key(app, 5, -1), analysis, tree));
  const auto loaded = store.load_golden(toy_key(app, 5, -1), {});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->analysis->comparison_blob, analysis.comparison_blob);
  EXPECT_EQ(loaded->analysis->report, analysis.report);
  EXPECT_EQ(loaded->analysis->metrics, analysis.metrics);
  ASSERT_NE(loaded->tree, nullptr);
  expect_trees_identical(*loaded->tree, tree);
}

util::Bytes read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return util::to_bytes(raw);
}

/// Writes `payload` to `path` sealed with its FNV-1a trailer, as the store
/// frames every entry file.
void write_sealed(const std::string& path, util::Bytes payload) {
  const std::uint64_t checksum = util::fnv1a64(util::ByteSpan(payload));
  util::ByteWriter(payload).u64(checksum);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
}

/// Hand-writes the checkpoint entry an older build saved without a golden
/// tree: has-trees byte 0 and a one-tree snapshot.
void write_treeless_checkpoint_entry(const std::string& path,
                                     const core::CheckpointStore::Key& key,
                                     const core::Checkpoint& checkpoint,
                                     util::ByteSpan app_state) {
  util::Bytes payload;
  util::ByteWriter w(payload);
  util::put_signature(w.out(), "FFCKPT");
  w.u32(core::CheckpointStore::kFormatVersion);
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  w.u8(1);  // checkpoint entry
  w.str(key.app_name);
  w.str(key.app_fingerprint);
  w.u64(key.app_seed);
  w.i32(key.stage);
  w.u64(key.chunk_size);
  w.blob(app_state);
  w.u8(0);  // no golden tree
  w.blob(vfs::SnapshotCodec::encode(checkpoint.fs()));
  write_sealed(path, std::move(payload));
}

TEST(CheckpointStore, EntryBytesArePinned) {
  // One golden and one checkpoint entry, byte for byte (size plus FNV-1a of
  // the whole file).  A change that moves any of these bytes strands every
  // existing store, so it needs a kFormatVersion bump (the store's or the
  // snapshot codec's) along with new pins.
  const StoreDir dir("pinned-bytes");
  const core::CheckpointStore store(dir.path());
  const PersistableToyApp app;
  constexpr std::uint64_t kSeed = 21;
  const vfs::MemFs::Options options = tree_options();

  vfs::MemFs tree(options);
  core::RunContext ctx{.fs = tree, .app_seed = kSeed, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto golden_key = toy_key(app, kSeed, -1, options);
  ASSERT_TRUE(store.save_golden(golden_key, app.analyze(tree), tree));

  const auto checkpoint = core::Checkpoint::capture(app, kSeed, 2, options);
  const auto golden_tree = checkpoint->grow_golden_tree(app, kSeed);
  const auto checkpoint_key = toy_key(app, kSeed, 2, options);
  ASSERT_TRUE(store.save_checkpoint(checkpoint_key, *checkpoint, *golden_tree,
                                    app.serialize_state(kSeed)));

  const util::Bytes golden = read_file_bytes(store.entry_path(golden_key));
  EXPECT_EQ(golden.size(), 995u);
  EXPECT_EQ(util::fnv1a64(golden), 11128578009813692ull);
  const util::Bytes checkpoint_entry = read_file_bytes(store.entry_path(checkpoint_key));
  EXPECT_EQ(checkpoint_entry.size(), 931u);
  EXPECT_EQ(util::fnv1a64(checkpoint_entry), 1089933634508706445ull);
}

TEST(CheckpointStore, UnpersistableApplicationIsSkipped) {
  const StoreDir dir("unpersistable");
  const core::CheckpointStore store(dir.path());
  const PersistableToyApp app;
  core::CheckpointStore::Key key = toy_key(app, 1, 2);
  key.app_fingerprint.clear();  // what a default Application reports

  const auto checkpoint = core::Checkpoint::capture(app, 1, 2);
  EXPECT_FALSE(store.save_checkpoint(key, *checkpoint, *checkpoint->grow_golden_tree(app, 1), {}));
  EXPECT_FALSE(store.load_checkpoint(key, {}).has_value());
  EXPECT_TRUE(stdfs::is_empty(dir.path()));
}

class CheckpointStoreCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<StoreDir>("corruption");
    store_ = std::make_unique<core::CheckpointStore>(dir_->path());
    checkpoint_ = core::Checkpoint::capture(app_, kSeed, 2);
    golden_tree_ = checkpoint_->grow_golden_tree(app_, kSeed);
    ASSERT_TRUE(store_->save_checkpoint(key(), *checkpoint_, *golden_tree_,
                                        app_.serialize_state(kSeed)));
    path_ = store_->entry_path(key());
    ASSERT_TRUE(stdfs::exists(path_));
  }

  [[nodiscard]] core::CheckpointStore::Key key() const { return toy_key(app_, kSeed, 2); }

  [[nodiscard]] util::Bytes read_entry() const { return read_file_bytes(path_); }
  void write_entry(const util::Bytes& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  /// The store must reject the tampered entry, then transparently rebuild
  /// (save + load) over it.
  void expect_rejected_then_rebuilt() {
    EXPECT_FALSE(store_->load_checkpoint(key(), {}).has_value());
    ASSERT_TRUE(store_->save_checkpoint(key(), *checkpoint_, *golden_tree_,
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
  std::shared_ptr<const vfs::MemFs> golden_tree_;
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

/// Saves one toy checkpoint entry and returns its path.
std::string save_toy_entry(const core::CheckpointStore& store,
                           const PersistableToyApp& app, std::uint64_t seed) {
  const auto checkpoint = core::Checkpoint::capture(app, seed, 2);
  EXPECT_TRUE(store.save_checkpoint(toy_key(app, seed, 2), *checkpoint,
                                    *checkpoint->grow_golden_tree(app, seed),
                                    app.serialize_state(seed)));
  return store.entry_path(toy_key(app, seed, 2));
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
/// refreshed junk.
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
    (void)store.save_checkpoint(toy_key(app, seed, 2), *checkpoint,
                                *checkpoint->grow_golden_tree(app, seed),
                                app.serialize_state(seed));
  }
  (void)store.load_checkpoint(toy_key(app, 3, 2), {});

  // Refresh the junk (the budget sweeps above may have evicted the garbage
  // entry already) so the GC pass exercises every one of its kill points.
  drop_file("ptoy-s8-st2-aaaaaaaaaaaaaaaa.ffck.tmp-999-2", "orphaned partial write");
  drop_file("garbage-s2-st1-eeeeeeeeeeeeeeee.ffck", "still not a checkpoint");
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
  ASSERT_TRUE(store.save_checkpoint(toy_key(app, 50, 2), *checkpoint,
                                    *checkpoint->grow_golden_tree(app, 50),
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
  // per save (temp write, rename), eviction unlinks, and both GC steps.
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

// --- entry mutation fuzz -----------------------------------------------------

/// Offsets at which the snapshot blob's fields start, plus its end: the cut
/// points the fuzzer truncates at, inserts at and forges u64 values over.
std::vector<std::size_t> snapshot_cuts(util::ByteSpan blob) {
  util::ByteReader r(blob);
  std::vector<std::size_t> cuts;
  const auto at = [&] { cuts.push_back(blob.size() - r.remaining()); };
  at();
  (void)r.view(6);  // magic
  at();
  (void)r.u32();  // version
  at();
  const std::uint32_t trees = r.u32();
  at();
  const std::uint64_t chunks = r.u64();
  for (std::uint64_t i = 0; i < chunks; ++i) {
    at();
    (void)r.blob();
  }
  for (std::uint32_t t = 0; t < trees; ++t) {
    at();
    const std::uint64_t nodes = r.u64();
    for (std::uint64_t n = 0; n < nodes; ++n) {
      at();
      (void)r.str();  // path
      at();
      const bool is_dir = r.u8() != 0;
      at();
      (void)r.u32();  // mode
      if (is_dir) continue;
      at();
      (void)r.u64();  // extent size
      at();
      (void)r.u64();  // logical size
      at();
      const std::uint64_t slots = r.u64();
      for (std::uint64_t i = 0; i < slots; ++i) {
        at();
        (void)r.u64();
      }
    }
  }
  at();
  r.expect_end();
  return cuts;
}

/// An entry payload split at its snapshot blob, with the cut points of the
/// part before it (key header, metadata, has-trees byte, blob length).
struct EntryParts {
  util::Bytes head;  ///< everything before the snapshot blob's length field
  util::Bytes snapshot;
  std::vector<std::size_t> head_cuts;
};

EntryParts split_entry(util::ByteSpan payload) {
  util::ByteReader r(payload);
  EntryParts parts;
  const auto at = [&] { parts.head_cuts.push_back(payload.size() - r.remaining()); };
  at();
  (void)r.view(6);  // magic
  at();
  (void)r.u32();  // store version
  at();
  (void)r.u32();  // codec version
  at();
  const bool golden = r.u8() == 2;
  at();
  (void)r.str();  // app_name
  at();
  (void)r.str();  // app_fingerprint
  at();
  (void)r.u64();  // app_seed
  at();
  (void)r.i32();  // stage
  at();
  (void)r.u64();  // chunk_size
  at();
  (void)r.blob();  // golden: comparison blob; checkpoint: app_state
  if (golden) {
    at();
    (void)r.str();  // report
    at();
    const std::uint64_t metrics = r.u64();
    for (std::uint64_t i = 0; i < metrics; ++i) {
      at();
      (void)r.str();
      at();
      (void)r.f64();
    }
  }
  at();
  (void)r.u8();  // has trees
  const std::size_t head_size = payload.size() - r.remaining();
  at();
  const util::ByteSpan snapshot = r.view(static_cast<std::size_t>(r.u64()));
  r.expect_end();
  parts.head.assign(payload.begin(), payload.begin() + static_cast<std::ptrdiff_t>(head_size));
  parts.snapshot.assign(snapshot.begin(), snapshot.end());
  return parts;
}

util::Bytes join_entry(const util::Bytes& head, util::ByteSpan snapshot) {
  util::Bytes payload = head;
  util::ByteWriter(payload).blob(snapshot);
  return payload;
}

struct Mutation {
  std::string what;
  util::Bytes bytes;
};

/// Seeded mutations of `valid`: bit flips anywhere, and at every cut point a
/// truncation, a few inserted bytes, and forged u64 lengths/counts — edge
/// values plus ones that exactly fit, or just overrun, the bytes left.
std::vector<Mutation> mutate(const util::Bytes& valid, const std::vector<std::size_t>& cuts,
                             util::Rng& rng) {
  std::vector<Mutation> out;
  for (int i = 0; i < 96; ++i) {
    util::Bytes b = valid;
    const std::size_t pos = rng.uniform(b.size());
    const int bit = static_cast<int>(rng.uniform(8));
    b[pos] ^= static_cast<std::byte>(1u << bit);
    out.push_back({"flip bit " + std::to_string(bit) + " of byte " + std::to_string(pos),
                   std::move(b)});
  }
  for (const std::size_t cut : cuts) {
    if (cut < valid.size()) {
      out.push_back({"truncate at " + std::to_string(cut),
                     util::Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut))});
    }
    util::Bytes inserted = valid;
    util::Bytes junk(1 + rng.uniform(8));
    for (auto& x : junk) x = static_cast<std::byte>(rng() & 0xff);
    inserted.insert(inserted.begin() + static_cast<std::ptrdiff_t>(cut), junk.begin(),
                    junk.end());
    out.push_back({"insert " + std::to_string(junk.size()) + " bytes at " + std::to_string(cut),
                   std::move(inserted)});
    if (cut + 8 > valid.size()) continue;
    const std::uint64_t left = valid.size() - cut - 8;
    for (const std::uint64_t forged :
         {std::uint64_t{0}, std::uint64_t{1}, left, left + 1, std::uint64_t{0xffffffff},
          std::uint64_t{1} << 32, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      util::Bytes b = valid;
      util::put_le_at(b, cut, forged, 8);
      out.push_back({"forge u64 " + std::to_string(forged) + " at " + std::to_string(cut),
                     std::move(b)});
    }
  }
  return out;
}

/// Writes one valid golden and one valid checkpoint entry for the toy app
/// (64-byte extents), then feeds mutated copies of them to the store.
class CheckpointStoreEntryFuzz : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kAppSeed = 21;

  void SetUp() override {
    previous_level_ = util::log_level();
    util::set_log_level(util::LogLevel::Error);  // every rejection logs a warning
    dir_ = std::make_unique<StoreDir>("entry-fuzz");
    store_ = std::make_unique<core::CheckpointStore>(dir_->path());
    vfs::MemFs tree(tree_options());
    core::RunContext ctx{.fs = tree, .app_seed = kAppSeed, .instrumented_stage = -1,
                         .instrument = nullptr};
    app_.run(ctx);
    ASSERT_TRUE(store_->save_golden(golden_key(), app_.analyze(tree), tree));
    const auto checkpoint = core::Checkpoint::capture(app_, kAppSeed, 2, tree_options());
    ASSERT_TRUE(store_->save_checkpoint(checkpoint_key(), *checkpoint,
                                        *checkpoint->grow_golden_tree(app_, kAppSeed),
                                        app_.serialize_state(kAppSeed)));
    for (const auto& key : {golden_key(), checkpoint_key()}) {
      const util::Bytes file = read_file_bytes(store_->entry_path(key));
      valid_.emplace_back(file.begin(), file.end() - 8);  // drop the trailer
    }
  }
  void TearDown() override { util::set_log_level(previous_level_); }

  [[nodiscard]] core::CheckpointStore::Key golden_key() const {
    return toy_key(app_, kAppSeed, -1, tree_options());
  }
  [[nodiscard]] core::CheckpointStore::Key checkpoint_key() const {
    return toy_key(app_, kAppSeed, 2, tree_options());
  }

  /// Seals `payload` at both entry paths and runs every load variant and a
  /// GC pass over it.  Each must return a miss or a well-formed load.
  void expect_load_or_miss(const util::Bytes& payload) {
    write_sealed(store_->entry_path(golden_key()), payload);
    write_sealed(store_->entry_path(checkpoint_key()), payload);
    for (const bool want : {true, false}) {
      if (const auto golden = store_->load_golden(golden_key(), tree_options(), want)) {
        ++hits_;
        EXPECT_NE(golden->analysis, nullptr);
        EXPECT_EQ(golden->tree != nullptr, want);
      }
      if (const auto loaded = store_->load_checkpoint(checkpoint_key(), tree_options(), want)) {
        ++hits_;
        EXPECT_NE(loaded->checkpoint, nullptr);
        EXPECT_EQ(loaded->golden_tree != nullptr, want);
      }
    }
    (void)store_->gc();
  }

  PersistableToyApp app_;
  std::unique_ptr<StoreDir> dir_;
  std::unique_ptr<core::CheckpointStore> store_;
  std::vector<util::Bytes> valid_;  ///< golden, checkpoint payloads
  std::uint64_t hits_ = 0;
  util::LogLevel previous_level_ = util::LogLevel::Warn;
};

TEST_F(CheckpointStoreEntryFuzz, MutatedHeadersLoadOrMiss) {
  constexpr std::uint64_t kFuzzSeed = 0xe17f;
  SCOPED_TRACE("fuzz seed " + std::to_string(kFuzzSeed));
  util::Rng rng(kFuzzSeed);
  std::size_t mutations = 0;
  for (const util::Bytes& valid : valid_) {
    const EntryParts parts = split_entry(valid);
    for (const Mutation& m : mutate(valid, parts.head_cuts, rng)) {
      SCOPED_TRACE(m.what);
      expect_load_or_miss(m.bytes);
      ++mutations;
    }
  }
  EXPECT_GT(mutations, 400u);
  // The store still serves the valid entries afterwards.
  const std::uint64_t before = hits_;
  for (const util::Bytes& valid : valid_) expect_load_or_miss(valid);
  EXPECT_EQ(hits_ - before, 4u);  // each entry at its own path, tree wanted and declined
}

TEST_F(CheckpointStoreEntryFuzz, MutatedSnapshotsDecodeOrThrowVfsError) {
  constexpr std::uint64_t kFuzzSeed = 0x5a9;
  SCOPED_TRACE("fuzz seed " + std::to_string(kFuzzSeed));
  util::Rng rng(kFuzzSeed);
  std::size_t mutations = 0;
  for (std::size_t k = 0; k < valid_.size(); ++k) {
    const EntryParts parts = split_entry(valid_[k]);
    const std::size_t trees = k + 1;  // golden: the output tree; checkpoint: two
    for (const Mutation& m : mutate(parts.snapshot, snapshot_cuts(parts.snapshot), rng)) {
      SCOPED_TRACE(m.what);
      const auto owned = std::make_shared<util::Bytes>(m.bytes);
      for (const bool zero_copy : {false, true}) {
        vfs::MemFs first(tree_options());
        vfs::MemFs second(tree_options());
        vfs::MemFs* all[] = {&first, &second};
        const std::span<vfs::MemFs* const> targets(all, trees);
        try {
          if (zero_copy) {
            vfs::SnapshotCodec::decode(util::ByteSpan(*owned), targets, owned);
          } else {
            vfs::SnapshotCodec::decode(m.bytes, targets);
          }
        } catch (const vfs::VfsError&) {
          // malformed: the expected outcome for most mutations
        } catch (const std::exception& e) {
          ADD_FAILURE() << (zero_copy ? "zero-copy" : "copying")
                        << " decode threw a non-VfsError: " << e.what();
        }
      }
      expect_load_or_miss(join_entry(parts.head, m.bytes));
      ++mutations;
    }
  }
  EXPECT_GT(mutations, 500u);
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

TEST(EngineCheckpointStore, TreelessEntryIsAMissAndIsOverwritten) {
  // Older builds could save a checkpoint entry without its golden tree.
  // Such an entry is a miss: the engine captures afresh, the save overwrites
  // the entry at its path with one carrying both trees, and the next process
  // is fully warm.  Tallies match the reference oracle throughout.
  const StoreDir dir("engine-treeless");
  constexpr std::uint64_t kRuns = 8;

  nyx::NyxApp cold_app(small_nyx_config());
  const auto plan = nyx_plan(cold_app, kRuns);
  const std::uint64_t app_seed = plan.cells()[0].app_seed();
  const auto key = core::CheckpointStore::Key::of(cold_app, app_seed, 2, {});
  const core::CheckpointStore store(dir.path());
  write_treeless_checkpoint_entry(store.entry_path(key), key,
                                  *core::Checkpoint::capture(cold_app, app_seed, 2),
                                  cold_app.serialize_state(app_seed));
  const auto reference = exp::reference_run(plan);

  exp::EngineOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir.path();
  nyx::NyxApp rebuild_app(small_nyx_config());
  const auto rebuilt = exp::Engine(options).run(nyx_plan(rebuild_app, kRuns));
  EXPECT_EQ(rebuilt.checkpoints_loaded, 0u);
  EXPECT_EQ(rebuilt.checkpoint_builds, 1u);
  EXPECT_EQ(rebuilt.checkpoints_persisted, 1u);
  expect_equal_tallies(reference, rebuilt);
  const auto overwritten = store.load_checkpoint(key, {});
  ASSERT_TRUE(overwritten.has_value());
  EXPECT_NE(overwritten->golden_tree, nullptr);

  nyx::NyxApp warm_app(small_nyx_config());
  const auto warm = exp::Engine(options).run(nyx_plan(warm_app, kRuns));
  EXPECT_EQ(warm.golden_executions, 0u);
  EXPECT_EQ(warm.checkpoint_builds, 0u);
  EXPECT_EQ(warm.checkpoints_loaded, 1u);
  EXPECT_EQ(warm.checkpoints_persisted, 0u);
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

TEST(EngineCheckpointStore, LaterStageKeyIsEvictedUnderATinyBudgetThenReloaded) {
  // Stage-3 Montage cells resume their runs at stage 4, whose checkpoint key
  // no cell owns: it still goes through the store like any other key.
  const StoreDir dir("engine-later-stage");
  montage::MontageConfig config;
  config.scene.tile_x0 = {0, 37, 74};
  config.scene.tile_y0 = {0, 36};
  const auto plan_for = [](const core::Application& app, std::uint64_t seed) {
    return exp::PlanBuilder().runs(8).seed(seed).app(app).faults({"BF", "SW"}).stage(3)
        .product().build();
  };
  const auto expect_same_counts = [](const exp::ExperimentReport& got,
                                     const exp::ExperimentReport& want) {
    expect_equal_tallies(got, want);
    for (std::size_t i = 0; i < want.cells.size(); ++i) {
      EXPECT_EQ(got.cells[i].runs_resumed_late, want.cells[i].runs_resumed_late) << i;
      EXPECT_EQ(got.cells[i].runs_replayed, want.cells[i].runs_replayed) << i;
    }
  };
  exp::EngineOptions options;
  options.threads = 2;
  const montage::MontageApp ref_app(config);
  const auto reference = exp::Engine(options).run(plan_for(ref_app, 42));
  EXPECT_EQ(reference.cells[0].runs_resumed_late, 8u);
  EXPECT_GT(reference.cells[1].runs_resumed_late, 0u);

  options.checkpoint_dir = dir.path();
  const auto run = [&](std::uint64_t seed, std::uint64_t budget) {
    const montage::MontageApp app(config);  // cold in-memory caches
    exp::EngineOptions run_options = options;
    run_options.checkpoint_budget = budget;
    return exp::Engine(run_options).run(plan_for(app, seed));
  };
  const auto cold = run(42, 0);
  EXPECT_EQ(cold.checkpoint_builds, 2u);  // stages 3 and 4
  EXPECT_EQ(cold.checkpoints_persisted, 2u);
  expect_same_counts(cold, reference);
  const auto warm = run(42, 0);
  EXPECT_EQ(warm.checkpoint_builds, 0u);
  EXPECT_EQ(warm.checkpoints_loaded, 2u);
  expect_same_counts(warm, reference);

  // Another campaign under a tiny budget evicts every entry it does not
  // lease, the stage-4 key among them; the next run rebuilds it and the one
  // after reloads it.
  const auto other = run(43, 1);
  EXPECT_GT(other.store_evictions, 0u);
  const auto rebuilt = run(42, 0);
  EXPECT_EQ(rebuilt.checkpoint_builds, 2u);
  EXPECT_EQ(rebuilt.checkpoints_loaded, 0u);
  expect_same_counts(rebuilt, reference);
  const auto reloaded = run(42, 0);
  EXPECT_EQ(reloaded.checkpoints_loaded, 2u);
  expect_same_counts(reloaded, reference);
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

// --- core::SeedCache -------------------------------------------------------------

TEST(SeedCache, BlobIsTagSeedPayload) {
  const core::SeedCache<std::uint64_t> cache(
      "t", [](std::uint64_t seed) { return seed + 1; },
      [](std::uint64_t value, util::ByteWriter& w) { w.u64(value); },
      [](std::uint64_t, util::ByteReader& r) { return r.u64(); });
  util::Bytes want;
  util::ByteWriter w(want);
  w.str("t");
  w.u64(3);
  w.u64(4);
  EXPECT_EQ(cache.serialize(3), want);

  const core::SeedCache<std::uint64_t> restored(
      "t", [](std::uint64_t) -> std::uint64_t { throw std::logic_error("built"); },
      [](std::uint64_t, util::ByteWriter&) {},
      [](std::uint64_t, util::ByteReader& r) { return r.u64(); });
  ASSERT_TRUE(restored.restore(3, want));
  EXPECT_EQ(*restored.get(3), 4u);
}

TEST(SeedCache, InterleavedSeedsEachGetTheirOwnValueBuiltOncePerEviction) {
  // Threads interleave get() on two seeds.  Each caller must see its own
  // seed's value, and a build happens only when the other seed holds the
  // entry: consecutive builds alternate seeds.  Builds run under the cache's
  // lock, so the log needs none of its own.
  struct Value {
    std::uint64_t seed;
  };
  std::vector<std::uint64_t> builds;
  const core::SeedCache<Value> cache(
      "two-seeds",
      [&builds](std::uint64_t seed) {
        builds.push_back(seed);
        return Value{seed};
      },
      [](const Value&, util::ByteWriter&) {}, [](std::uint64_t seed, util::ByteReader&) {
        return Value{seed};
      });
  constexpr std::uint64_t kSeeds[] = {3, 8};
  constexpr int kThreads = 4;
  constexpr int kGets = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kGets; ++i) {
        // Runs of a few gets per seed, so both hits and evictions happen.
        const std::uint64_t seed = kSeeds[((i / (t + 2)) + t) % 2];
        if (cache.get(seed)->seed != seed) wrong.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_GE(builds.size(), 2u);
  EXPECT_LT(builds.size(), std::size_t{kThreads} * kGets);
  for (std::size_t b = 1; b < builds.size(); ++b) {
    EXPECT_NE(builds[b], builds[b - 1]) << "build " << b << " rebuilt a cached seed";
  }
}

// --- application state blobs ---------------------------------------------------

/// One application's serialize_state / restore_state, seen through its
/// per-seed input cache.
struct StateCase {
  std::string name;
  std::function<std::unique_ptr<const core::Application>()> make;
  /// The address of the cached input for a seed (built on a miss).  The same
  /// address before and after a call proves the call left the entry alone.
  std::function<const void*(const core::Application&, std::uint64_t)> input;
  /// serialize_state(kStateSeed) of `make()`: size and FNV-1a.  Stores hold
  /// these bytes, so a change that moves them strands every saved entry.
  std::size_t pinned_size;
  std::uint64_t pinned_fnv;
};

constexpr std::uint64_t kStateSeed = 5;

std::vector<StateCase> state_cases() {
  montage::MontageConfig montage_config;
  montage_config.scene.tile_size = 8;
  montage_config.scene.tile_x0 = {0, 6};
  montage_config.scene.tile_y0 = {0};
  montage_config.scene.star_count = 2;
  montage_config.scene.dark_spot_x = montage_config.scene.dark_spot_y = 100.0;
  nyx::NyxConfig nyx_config;
  nyx_config.field.n = 8;
  qmc::QmcAppConfig qmc_config;
  qmc_config.vmc.walkers = qmc_config.dmc.target_walkers = 16;
  qmc_config.vmc.steps = qmc_config.dmc.steps = 12;
  qmc_config.vmc.warmup_steps = qmc_config.dmc.warmup_steps = 4;
  return {
      {"montage", [=] { return std::make_unique<const montage::MontageApp>(montage_config); },
       [](const core::Application& app, std::uint64_t seed) -> const void* {
         return dynamic_cast<const montage::MontageApp&>(app).inputs(seed).get();
       },
       1127u, 11172745983040288235ull},
      {"nyx", [=] { return std::make_unique<const nyx::NyxApp>(nyx_config); },
       [](const core::Application& app, std::uint64_t seed) -> const void* {
         return dynamic_cast<const nyx::NyxApp&>(app).field(seed).get();
       },
       4139u, 8585705659974095677ull},
      {"qmc", [=] { return std::make_unique<const qmc::QmcApp>(qmc_config); },
       [](const core::Application& app, std::uint64_t seed) -> const void* {
         return dynamic_cast<const qmc::QmcApp&>(app).trace(seed).get();
       },
       819u, 17007300032838916224ull},
  };
}

TEST(AppState, BlobBytesArePinned) {
  for (const StateCase& c : state_cases()) {
    const util::Bytes blob = c.make()->serialize_state(kStateSeed);
    EXPECT_EQ(blob.size(), c.pinned_size) << c.name;
    EXPECT_EQ(util::fnv1a64(blob), c.pinned_fnv) << c.name;
  }
}

TEST(AppState, RoundTripInstallsTheDecodedInput) {
  for (const StateCase& c : state_cases()) {
    const util::Bytes blob = c.make()->serialize_state(kStateSeed);
    const auto app = c.make();
    ASSERT_TRUE(app->restore_state(kStateSeed, blob)) << c.name;
    const void* restored = c.input(*app, kStateSeed);
    // Re-encoding the restored input gives the blob back, without a rebuild.
    EXPECT_EQ(app->serialize_state(kStateSeed), blob) << c.name;
    EXPECT_EQ(c.input(*app, kStateSeed), restored) << c.name;
    // A second restore of the cached seed is a no-op that succeeds.
    EXPECT_TRUE(app->restore_state(kStateSeed, {})) << c.name;
    EXPECT_EQ(c.input(*app, kStateSeed), restored) << c.name;
  }
}

TEST(AppState, DamagedBlobsFailAndLeaveTheCachedSeed) {
  constexpr std::uint64_t kCached = 11;
  for (const StateCase& c : state_cases()) {
    const auto app = c.make();
    const util::Bytes blob = c.make()->serialize_state(kStateSeed);
    const void* cached = c.input(*app, kCached);
    const auto expect_rejected = [&](util::ByteSpan bad, std::uint64_t seed,
                                     const std::string& what) {
      EXPECT_FALSE(app->restore_state(seed, bad)) << c.name << ": " << what;
      EXPECT_EQ(c.input(*app, kCached), cached) << c.name << ": " << what;
    };

    for (std::size_t length = 0; length < blob.size(); ++length) {
      expect_rejected(util::ByteSpan(blob).first(length), kStateSeed,
                      "truncated to " + std::to_string(length));
    }
    util::Bytes longer = blob;
    longer.push_back(std::byte{0});
    expect_rejected(longer, kStateSeed, "a trailing byte");
    util::Bytes wrong_tag = blob;
    wrong_tag[8] ^= std::byte{0x20};  // the tag's first character
    expect_rejected(wrong_tag, kStateSeed, "wrong tag");
    expect_rejected(blob, kStateSeed + 1, "wrong seed");
    // Every payload opens with a u64 size (tiles, grid side, VMC rows).
    util::ByteReader header(blob);
    const std::size_t size_at = 8 + header.str().size() + 8;
    util::Bytes wrong_size = blob;
    wrong_size[size_at] = static_cast<std::byte>(static_cast<std::uint8_t>(wrong_size[size_at]) + 1);
    expect_rejected(wrong_size, kStateSeed, "wrong size");
  }
}

TEST(AppState, RestoringAnotherSeedReplacesTheCachedOne) {
  constexpr std::uint64_t kCached = 11;
  for (const StateCase& c : state_cases()) {
    const auto app = c.make();
    const util::Bytes blob = c.make()->serialize_state(kStateSeed);
    const void* cached = c.input(*app, kCached);
    ASSERT_TRUE(app->restore_state(kStateSeed, blob)) << c.name;
    const void* restored = c.input(*app, kStateSeed);
    EXPECT_NE(restored, cached) << c.name;
    EXPECT_EQ(app->serialize_state(kStateSeed), blob) << c.name;
    EXPECT_EQ(c.input(*app, kStateSeed), restored) << c.name;
  }
}

}  // namespace
