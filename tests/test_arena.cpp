// Unit tests for vfs::ExtentArena and core::RunScratch — slab recycling,
// epoch lifetime (chunks outliving their store or arena reset), and the
// pooled run-store recycling built on top of them.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ffis/core/run_scratch.hpp"
#include "ffis/vfs/extent_arena.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;

util::Bytes bytes_of(const std::string& s) { return util::to_bytes(s); }

std::string read_all(vfs::FileSystem& fs, const std::string& path) {
  return vfs::read_text_file(fs, path);
}

// --- ExtentArena ------------------------------------------------------------

TEST(ExtentArena, CarvesManyChunksFromOneSlab) {
  vfs::ExtentArena arena(/*slab_size=*/4096);
  vfs::FsStats stats;
  for (int i = 0; i < 16; ++i) {
    const auto a = arena.allocate(128, stats);
    ASSERT_NE(a.data, nullptr);
  }
  // 16 * 128 = 2048 bytes: one slab covers everything.
  EXPECT_EQ(stats.arena_slabs_allocated, 1u);
  EXPECT_EQ(arena.slabs_allocated(), 1u);
  EXPECT_GE(arena.bytes_in_use(), 2048u);
}

TEST(ExtentArena, OversizedRequestGetsADedicatedSlab) {
  vfs::ExtentArena arena(/*slab_size=*/1024);
  vfs::FsStats stats;
  const auto big = arena.allocate(10000, stats);
  ASSERT_NE(big.data, nullptr);
  EXPECT_EQ(arena.slabs_allocated(), 1u);
  // The next small carve must not land inside the dedicated slab's tail.
  const auto small = arena.allocate(64, stats);
  ASSERT_NE(small.data, nullptr);
}

TEST(ExtentArena, ResetWithNoSurvivorsRewindsAndRecycles) {
  vfs::ExtentArena arena(/*slab_size=*/4096);
  vfs::FsStats stats;
  { const auto a = arena.allocate(1000, stats); (void)a; }
  ASSERT_EQ(arena.slabs_allocated(), 1u);
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Steady state: later epochs carve from the same slab, charged as
  // recycled bytes, with no further slab allocations.
  for (int round = 0; round < 8; ++round) {
    { const auto a = arena.allocate(1000, stats); (void)a; }
    arena.reset();
  }
  EXPECT_EQ(arena.slabs_allocated(), 1u);
  EXPECT_EQ(stats.arena_slabs_allocated, 1u);
  EXPECT_GE(stats.arena_bytes_recycled, 8u * 1000u);
}

TEST(ExtentArena, ChunkSurvivingResetKeepsItsBytesViaEpochAbandonment) {
  vfs::ExtentArena arena(/*slab_size=*/4096);
  vfs::FsStats stats;
  auto survivor = arena.allocate(5, stats);
  std::memcpy(survivor.data, "alive", 5);
  ASSERT_GE(arena.live_refs(), 1u);

  arena.reset();  // survivor still references the epoch: abandon, not rewind
  const auto next = arena.allocate(5, stats);
  std::memcpy(next.data, "fresh", 5);
  // The survivor's bytes are untouched — the abandoned epoch's slab belongs
  // to it alone now, so the new carve cannot have landed on top of it.
  EXPECT_EQ(std::memcmp(survivor.data, "alive", 5), 0);
  EXPECT_NE(static_cast<const void*>(survivor.data), static_cast<const void*>(next.data));
  // Abandonment costs a fresh slab, never recycled bytes.
  EXPECT_EQ(arena.slabs_allocated(), 2u);
}

TEST(ExtentArena, ZeroSlabSizeThrows) {
  EXPECT_THROW(vfs::ExtentArena arena(0), std::invalid_argument);
}

// --- arena-backed ExtentStore chunks ----------------------------------------

TEST(ArenaChunks, ChunkOutlivesItsStore) {
  vfs::ExtentArena arena;
  vfs::FsStats stats;
  vfs::ExtentStore copy(64);
  {
    vfs::ExtentStore store(64);
    const auto payload = bytes_of("escapes the store");
    store.write(0, payload, stats, &arena);
    copy = store;  // shares the arena chunk, then the store dies
  }
  std::vector<std::byte> buf(17);
  ASSERT_EQ(copy.read(0, buf), 17u);
  EXPECT_EQ(std::memcmp(buf.data(), "escapes the store", 17), 0);
}

TEST(ArenaChunks, ForkedStoreDetachesBeforeWriting) {
  vfs::ExtentArena arena;
  vfs::FsStats stats;
  vfs::ExtentStore store(64);
  store.write(0, bytes_of("original"), stats, &arena);
  vfs::ExtentStore fork(store);

  // Writing through the fork must not mutate the parent's bytes, even though
  // both handles alias the same arena epoch (owner tokens, not use_count,
  // decide sharing for arena chunks).
  const std::uint64_t detaches_before = stats.chunk_detaches;
  fork.write(0, bytes_of("REWRITE!"), stats, &arena);
  EXPECT_GT(stats.chunk_detaches, detaches_before);
  std::vector<std::byte> buf(8);
  ASSERT_EQ(store.read(0, buf), 8u);
  EXPECT_EQ(std::memcmp(buf.data(), "original", 8), 0);
}

// --- MemFs recycling primitives ---------------------------------------------

TEST(MemFsRecycling, ResetFromMatchesAForkBitForBit) {
  vfs::MemFs base;
  vfs::write_file(base, "/shared.txt", bytes_of("shared payload"));
  base.mkdir("/data");
  vfs::write_file(base, "/data/blob.bin", bytes_of(std::string(100000, 'x')));

  auto arena = std::make_shared<vfs::ExtentArena>();
  auto pooled = base.fork_unique(vfs::MemFs::Concurrency::SingleThread, arena);
  // Diverge the pooled instance, then reset it back onto the base.
  vfs::write_file(*pooled, "/scratch.tmp", bytes_of("run-private garbage"));
  vfs::write_file(*pooled, "/shared.txt", bytes_of("overwritten"));
  pooled->drop_payloads();
  arena->reset();
  pooled->reset_from(base);

  // Bit-identical to the base again: empty tree diff, extents shared.
  EXPECT_TRUE(pooled->diff_tree(base).empty());
  EXPECT_EQ(read_all(*pooled, "/shared.txt"), "shared payload");
  EXPECT_FALSE(pooled->exists("/scratch.tmp"));
  // Stats restart from zero, like a fresh fork's.
  EXPECT_EQ(pooled->stats().chunks_allocated, 0u);
}

TEST(MemFsRecycling, DropPayloadsInvalidatesHandlesAndReleasesArenaRefs) {
  auto arena = std::make_shared<vfs::ExtentArena>();
  vfs::MemFs::Options options;
  options.concurrency = vfs::MemFs::Concurrency::SingleThread;
  options.arena = arena;
  vfs::MemFs fs(options);
  vfs::write_file(fs, "/f", bytes_of("payload"));
  const auto fh = fs.open("/f", vfs::OpenMode::Read);
  ASSERT_GE(arena.use_count(), 1);
  ASSERT_GE(arena->live_refs(), 1u);

  fs.drop_payloads();
  // Every arena reference is gone: the next reset rewinds instead of
  // abandoning (slab count stays put across the write/drop/reset loop).
  EXPECT_EQ(arena->live_refs(), 0u);
  arena->reset();
  const auto slabs_after_first = arena->slabs_allocated();
  for (int i = 0; i < 4; ++i) {
    vfs::write_file(fs, "/f", bytes_of("payload"));
    fs.drop_payloads();
    arena->reset();
  }
  EXPECT_EQ(arena->slabs_allocated(), slabs_after_first);
  // The pre-drop handle is dead, the node skeleton is not.
  std::vector<std::byte> buf(1);
  EXPECT_THROW((void)fs.pread(fh, buf, 0), vfs::VfsError);
  EXPECT_TRUE(fs.exists("/f"));
}

// --- RunScratch -------------------------------------------------------------

TEST(RunScratch, LeaseIsAForkOfTheBaseAndRecyclesAcrossRuns) {
  vfs::MemFs base;
  base.mkdir("/app");
  vfs::write_file(base, "/app/input.dat", bytes_of(std::string(50000, 'b')));
  const int key = 0;
  vfs::MemFs::Options options;

  auto& scratch = core::RunScratch::current();
  std::uint64_t slabs_high_water = 0;
  for (int run = 0; run < 6; ++run) {
    auto lease = scratch.acquire(&key, &base, options);
    EXPECT_TRUE(lease.fs().diff_tree(base).empty());
    // A run mutates its private store; the base never sees it.
    vfs::write_file(lease.fs(), "/app/input.dat", bytes_of("clobbered"));
    vfs::write_file(lease.fs(), "/app/out.log", bytes_of("result"));
    EXPECT_EQ(read_all(base, "/app/input.dat"), std::string(50000, 'b'));
    if (run == 2) slabs_high_water = scratch.arena()->slabs_allocated();
  }
  // Steady state after warm-up: runs recycle slabs, they don't grow the list.
  EXPECT_EQ(scratch.arena()->slabs_allocated(), slabs_high_water);
  EXPECT_GT(scratch.arena()->bytes_recycled(), 0u);
}

TEST(RunScratch, BaselessLeaseIsAFreshEmptyTree) {
  const int key = 0;
  vfs::MemFs::Options options;
  options.chunk_size = 4096;
  auto& scratch = core::RunScratch::current();
  for (int run = 0; run < 3; ++run) {
    auto lease = scratch.acquire(&key, nullptr, options);
    // Empty every time, even though run N-1 wrote into the same pooled fs.
    EXPECT_EQ(lease.fs().total_bytes(), 0u);
    EXPECT_FALSE(lease.fs().exists("/leftover"));
    EXPECT_EQ(lease.fs().chunk_size(), 4096u);
    vfs::write_file(lease.fs(), "/leftover", bytes_of("scribble"));
  }
  // A key reused with other options (its injector freed, another built at
  // its address) gets their geometry, not the pooled store's.
  options.chunk_size = 16;
  auto lease = scratch.acquire(&key, nullptr, options);
  EXPECT_EQ(lease.fs().chunk_size(), 16u);
  EXPECT_EQ(lease.fs().total_bytes(), 0u);
}

TEST(RunScratch, DistinctKeysGetDistinctPooledStores) {
  vfs::MemFs base_a;
  vfs::write_file(base_a, "/a", bytes_of("tree A"));
  vfs::MemFs base_b;
  vfs::write_file(base_b, "/b", bytes_of("tree B"));
  vfs::MemFs::Options options;

  auto& scratch = core::RunScratch::current();
  for (int round = 0; round < 3; ++round) {
    {
      auto lease = scratch.acquire(&base_a, &base_a, options);
      EXPECT_EQ(read_all(lease.fs(), "/a"), "tree A");
      EXPECT_FALSE(lease.fs().exists("/b"));
    }
    {
      auto lease = scratch.acquire(&base_b, &base_b, options);
      EXPECT_EQ(read_all(lease.fs(), "/b"), "tree B");
      EXPECT_FALSE(lease.fs().exists("/a"));
    }
  }
}

TEST(RunScratch, PerThreadArenasAreIndependent) {
  // Two threads lease simultaneously: each gets its own arena and pool, so
  // the writes can't race.  (TSan/ASan builds make this a real check.)
  auto worker = [](char fill) {
    vfs::MemFs base;
    vfs::write_file(base, "/seed", bytes_of(std::string(10000, fill)));
    vfs::MemFs::Options options;
    for (int run = 0; run < 20; ++run) {
      auto lease = core::RunScratch::current().acquire(&base, &base, options);
      vfs::write_file(lease.fs(), "/out", bytes_of(std::string(20000, fill)));
      ASSERT_EQ(read_all(lease.fs(), "/out"), std::string(20000, fill));
    }
  };
  std::thread t1(worker, '1');
  std::thread t2(worker, '2');
  t1.join();
  t2.join();
}

}  // namespace
