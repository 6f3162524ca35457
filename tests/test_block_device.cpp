// Block-device layer tests: CRC invariants, per-model media-fault semantics,
// the faulted-sector registry life cycle (heal / launder / remap / truncate),
// scrub gating, differential fuzzers asserting that an unarmed device is
// byte-invisible against a flat reference model at both sector sizes, and
// the synthesis of unobserved media faults (FaultInjector::synthesize)
// checked against execution at every sector site of two workloads.
//
// The fuzzers follow the repo's seeded-LCG idiom (see test_vfs_fuzz.cpp):
// fixed seeds, platform-independent generator, so every failure is
// reproducible from the test name + logged seed alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "counter_testing.hpp"

namespace {

using namespace ffis;
using vfs::BlockDevice;
using vfs::MediaFault;
using vfs::VfsError;

util::Bytes pattern(std::size_t n, unsigned seed = 1) {
  util::Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 131u + seed * 29u + 17u) & 0xff);
  }
  return out;
}

std::size_t count_bit_diffs(util::ByteSpan a, util::ByteSpan b) {
  std::size_t diffs = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto x = std::to_integer<std::uint8_t>(a[i]) ^ std::to_integer<std::uint8_t>(b[i]);
    while (x != 0) {
      diffs += x & 1u;
      x >>= 1;
    }
  }
  return diffs;
}

util::Bytes store_contents(const vfs::ExtentStore& store) {
  util::Bytes out(store.size());
  store.read(0, out);
  return out;
}

/// A test fixture bundling the pieces a device needs outside MemFs: a store,
/// a stats sink, and a registry key (any heap object works — the device only
/// uses the address + keepalive).
struct Rig {
  explicit Rig(BlockDevice::Options opt) : device(opt) {}

  std::shared_ptr<const void> key = std::make_shared<int>(7);
  vfs::ExtentStore store;
  vfs::FsStats stats;
  BlockDevice device;

  void write(std::uint64_t offset, util::ByteSpan buf) {
    device.apply_write(key, store, offset, buf, stats, nullptr);
  }
  void check(std::uint64_t offset, std::size_t len) {
    device.check_read(key.get(), store, offset, len, stats);
  }
  void truncate(std::uint64_t size) {
    store.resize(size, stats, nullptr);
    device.on_truncate(key.get(), store, stats);
  }
};

// --- CRC32 -------------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // IEEE 802.3 reflected CRC32 check values.
  EXPECT_EQ(vfs::crc32(util::ByteSpan{}), 0x00000000u);
  EXPECT_EQ(vfs::crc32(util::to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(vfs::crc32(util::to_bytes("a")), 0xE8B7BE43u);
  const util::Bytes zeros(32);
  EXPECT_EQ(vfs::crc32(zeros), 0x190A55ADu);
}

// --- construction ------------------------------------------------------------------

TEST(BlockDevice, RejectsUnsupportedSectorSizes) {
  for (std::uint32_t bad : {0u, 511u, 513u, 1024u, 4095u, 8192u}) {
    EXPECT_THROW(BlockDevice({.sector_bytes = bad}), std::invalid_argument) << bad;
  }
  EXPECT_NO_THROW(BlockDevice({.sector_bytes = 512}));
  EXPECT_NO_THROW(BlockDevice({.sector_bytes = 4096}));
}

// --- clean path --------------------------------------------------------------------

TEST(BlockDevice, UnarmedWritesAreByteIdenticalToPlainStore) {
  for (std::uint32_t sb : {512u, 4096u}) {
    Rig rig({.sector_bytes = sb});
    vfs::ExtentStore plain;
    vfs::FsStats plain_stats;

    const struct {
      std::uint64_t offset;
      std::size_t len;
    } ops[] = {{0, 1}, {sb - 1, 2}, {3 * sb + 5, sb}, {sb / 2, 2 * sb}, {10, 0}};
    for (const auto& op : ops) {
      const auto buf = pattern(op.len, static_cast<unsigned>(op.offset & 0xff));
      rig.write(op.offset, buf);
      plain.write(op.offset, buf, plain_stats, nullptr);
    }
    EXPECT_EQ(rig.store.size(), plain.size()) << "sector_bytes=" << sb;
    EXPECT_EQ(store_contents(rig.store), store_contents(plain));
    EXPECT_EQ(rig.stats.sectors_faulted, 0u);
    EXPECT_FALSE(rig.device.has_faulted_sectors());
    // check_read is free on the clean path (registry empty) and never throws.
    EXPECT_NO_THROW(rig.check(0, static_cast<std::size_t>(rig.store.size())));
  }
}

TEST(BlockDevice, CountsOneInstancePerTouchedSector) {
  Rig rig({.sector_bytes = 512});
  rig.write(0, pattern(1));  // sector 0
  EXPECT_EQ(rig.device.sector_writes(), 1u);
  rig.write(511, pattern(2));  // straddles sectors 0 and 1
  EXPECT_EQ(rig.device.sector_writes(), 3u);
  rig.write(2048, pattern(1024));  // sectors 4 and 5
  EXPECT_EQ(rig.device.sector_writes(), 5u);
  rig.write(77, util::Bytes{});  // empty write touches nothing
  EXPECT_EQ(rig.device.sector_writes(), 5u);
}

TEST(BlockDevice, DisabledGatesCountingAndFiring) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 0, .seed = 9});
  rig.device.set_enabled(false);
  rig.write(0, pattern(512));
  EXPECT_EQ(rig.device.sector_writes(), 0u);
  EXPECT_FALSE(rig.device.fired());
  EXPECT_EQ(store_contents(rig.store), pattern(512));  // write passed clean

  rig.device.set_enabled(true);
  rig.write(0, pattern(512));
  EXPECT_EQ(rig.device.sector_writes(), 1u);
  EXPECT_TRUE(rig.device.fired());
}

TEST(BlockDevice, FiresAtExactSectorInstance) {
  // Target instance 2 = the third sector-write: second write's second sector.
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 2, .seed = 3});
  rig.write(0, pattern(512, 1));  // instance 0
  EXPECT_FALSE(rig.device.fired());
  rig.write(512, pattern(1024, 2));  // instances 1 (clean) and 2 (fires)
  EXPECT_TRUE(rig.device.fired());
  EXPECT_EQ(rig.device.record().instance, 2u);
  EXPECT_EQ(rig.device.record().sector, 2u);
  EXPECT_EQ(rig.device.record().offset, 1024u);
  // Sector 1 (instance 1) landed clean.
  util::Bytes sector1(512);
  rig.store.read(512, sector1);
  EXPECT_TRUE(std::equal(sector1.begin(), sector1.end(), pattern(1024, 2).begin()));
  // At most one fault per device: later writes are clean again.
  rig.write(2048, pattern(512, 3));
  util::Bytes sector4(512);
  rig.store.read(2048, sector4);
  EXPECT_TRUE(std::equal(sector4.begin(), sector4.end(), pattern(512, 3).begin()));
}

// --- TORN_SECTOR -------------------------------------------------------------------

TEST(BlockDevice, TornSectorKeepsPrefixLosesTail) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::TornSector, .target_sector_write = 0, .seed = 5});
  const auto buf = pattern(512);
  rig.write(0, buf);
  ASSERT_TRUE(rig.device.fired());
  const auto& rec = rig.device.record();
  EXPECT_EQ(rec.fault, MediaFault::TornSector);
  EXPECT_GE(rec.corrupted_bytes, 1u);  // at least one byte is always lost
  EXPECT_LE(rec.corrupted_bytes, 512u);
  // The store holds exactly the programmed prefix; the torn tail was never
  // written (a fresh file stays short).
  EXPECT_EQ(rig.store.size(), 512u - rec.corrupted_bytes);
  const auto media = store_contents(rig.store);
  EXPECT_TRUE(std::equal(media.begin(), media.end(), buf.begin()));
  EXPECT_EQ(rig.stats.sectors_faulted, 1u);
  // Scrub rejects the read: media CRC != CRC of the intended sector.
  try {
    rig.check(0, 512);
    FAIL() << "expected CRC rejection";
  } catch (const VfsError& e) {
    EXPECT_NE(std::string(e.what()).find("sector CRC mismatch: sector 0 (offset 0)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rig.stats.crc_detected, 1u);
}

TEST(BlockDevice, TornSectorSparesOtherSectorsOfSameWrite) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::TornSector, .target_sector_write = 0, .seed = 11});
  const auto buf = pattern(1024);
  rig.write(0, buf);
  ASSERT_TRUE(rig.device.fired());
  // The write's slice past the torn sector landed intact.
  ASSERT_EQ(rig.store.size(), 1024u);
  util::Bytes tail(512);
  rig.store.read(512, tail);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), buf.begin() + 512));
  // Only the torn sector is registered; a read confined to sector 1 passes.
  EXPECT_NO_THROW(rig.check(512, 512));
  EXPECT_THROW(rig.check(0, 1024), VfsError);
}

// --- LATENT_SECTOR_ERROR -----------------------------------------------------------

TEST(BlockDevice, LatentSectorErrorThrowsEioUnderScrub) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm(
      {.fault = MediaFault::LatentSectorError, .target_sector_write = 0, .seed = 21});
  rig.write(0, pattern(512));
  ASSERT_TRUE(rig.device.fired());
  EXPECT_EQ(rig.device.record().fault, MediaFault::LatentSectorError);
  EXPECT_EQ(rig.device.record().corrupted_bytes, 512u);
  EXPECT_EQ(rig.store.size(), 512u);  // the write itself completed
  try {
    rig.check(100, 1);  // any overlapping read, however small
    FAIL() << "expected latent-sector EIO";
  } catch (const VfsError& e) {
    EXPECT_NE(
        std::string(e.what()).find("latent sector error: sector 0 (offset 0) unreadable"),
        std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rig.stats.crc_detected, 1u);
  // Reads not overlapping the sector stay clean.
  EXPECT_NO_THROW(rig.check(512, 512));
}

TEST(BlockDevice, OverlappingWriteRemapsLatentSector) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm(
      {.fault = MediaFault::LatentSectorError, .target_sector_write = 0, .seed = 23});
  rig.write(0, pattern(512));
  ASSERT_TRUE(rig.device.has_faulted_sectors());
  // Any write overlapping an LSE remaps the sector — even a 1-byte touch.
  rig.write(10, pattern(1));
  EXPECT_FALSE(rig.device.has_faulted_sectors());
  EXPECT_NO_THROW(rig.check(0, 512));
}

// --- MISDIRECTED_WRITE -------------------------------------------------------------

TEST(BlockDevice, MisdirectedWriteOnSingleSectorFileIsLost) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm(
      {.fault = MediaFault::MisdirectedWrite, .target_sector_write = 0, .seed = 31});
  rig.write(0, pattern(512));
  ASSERT_TRUE(rig.device.fired());
  // One modeled sector: the stray write lands at some other LBA entirely —
  // the slice is simply lost and the file never grows.
  EXPECT_EQ(rig.store.size(), 0u);
  EXPECT_FALSE(rig.device.record().misdirected_to.has_value());
  EXPECT_EQ(rig.device.record().corrupted_bytes, 512u);
  EXPECT_EQ(rig.stats.sectors_faulted, 1u);
  EXPECT_THROW(rig.check(0, 512), VfsError);
}

TEST(BlockDevice, MisdirectedWriteLandsOnVictimSector) {
  Rig rig({.sector_bytes = 512});
  const auto base = pattern(1024, 1);
  rig.write(0, base);  // instances 0, 1 — populate a two-sector file
  rig.device.arm(
      {.fault = MediaFault::MisdirectedWrite, .target_sector_write = 2, .seed = 41});
  const auto update = pattern(512, 9);
  rig.write(512, update);  // instance 2: meant for sector 1
  ASSERT_TRUE(rig.device.fired());
  // Two sectors total, so the victim is deterministically sector 0.
  ASSERT_TRUE(rig.device.record().misdirected_to.has_value());
  EXPECT_EQ(*rig.device.record().misdirected_to, 0u);
  // Sector 0 received the stray data; sector 1 kept its stale content.
  const auto media = store_contents(rig.store);
  ASSERT_EQ(media.size(), 1024u);
  EXPECT_TRUE(std::equal(media.begin(), media.begin() + 512, update.begin()));
  EXPECT_TRUE(std::equal(media.begin() + 512, media.end(), base.begin() + 512));
  // Both the starved target and the clobbered victim are registered.
  EXPECT_EQ(rig.stats.sectors_faulted, 2u);
  EXPECT_THROW(rig.check(0, 512), VfsError);    // victim
  EXPECT_THROW(rig.check(512, 512), VfsError);  // target
}

// --- BIT_ROT -----------------------------------------------------------------------

TEST(BlockDevice, BitRotFlipsExactlyWidthConsecutiveBits) {
  for (std::uint32_t width : {1u, 3u}) {
    Rig rig({.sector_bytes = 512});
    rig.device.arm({.fault = MediaFault::BitRot,
                    .target_sector_write = 0,
                    .seed = 7 + width,
                    .rot_width = width});
    const auto buf = pattern(512);
    rig.write(0, buf);
    ASSERT_TRUE(rig.device.fired());
    ASSERT_TRUE(rig.device.record().flipped_bit.has_value());
    const auto media = store_contents(rig.store);
    ASSERT_EQ(media.size(), 512u);
    // Exactly `width` bits differ (flip_bits clamps at the sector end, so a
    // draw near the last bit may flip fewer — still at least one).
    const std::size_t diffs = count_bit_diffs(buf, media);
    EXPECT_GE(diffs, 1u) << "width=" << width;
    EXPECT_LE(diffs, width) << "width=" << width;
    EXPECT_THROW(rig.check(0, 512), VfsError);
  }
}

TEST(BlockDevice, BitRotRecordsTheBytesItChanged) {
  // corrupted_bytes counts the bytes the rot changed, whatever the width:
  // never more than the sector holds, and never wrapped to zero.
  for (const std::size_t stored : {std::size_t{512}, std::size_t{300}}) {
    for (const std::uint32_t width : {1u, 3u, 8u, 9u, 100000u, 4294967295u}) {
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        Rig rig({.sector_bytes = 512});
        rig.device.arm({.fault = MediaFault::BitRot,
                        .target_sector_write = 0,
                        .seed = seed,
                        .rot_width = width});
        const auto buf = pattern(stored);
        rig.write(0, buf);
        ASSERT_TRUE(rig.device.fired());
        EXPECT_EQ(rig.device.record().corrupted_bytes,
                  util::count_diff_bytes(buf, store_contents(rig.store)))
            << "stored=" << stored << " width=" << width << " seed=" << seed;
      }
    }
  }
}

TEST(BlockDevice, ScrubOffRoutesCorruptionToTheApplication) {
  Rig rig({.sector_bytes = 512, .scrub_on_read = false});
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 0, .seed = 13});
  const auto buf = pattern(512);
  rig.write(0, buf);
  ASSERT_TRUE(rig.device.fired());
  EXPECT_EQ(rig.stats.sectors_faulted, 1u);
  // No scrub: the read succeeds and the rotted bytes flow out unchecked.
  EXPECT_NO_THROW(rig.check(0, 512));
  EXPECT_EQ(rig.stats.crc_detected, 0u);
  EXPECT_EQ(count_bit_diffs(buf, store_contents(rig.store)), 1u);
}

// --- registry life cycle -----------------------------------------------------------

TEST(BlockDevice, FullOverwriteHealsTheSector) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 0, .seed = 17});
  rig.write(0, pattern(512, 1));
  ASSERT_TRUE(rig.device.has_faulted_sectors());
  rig.write(0, pattern(512, 2));  // full-sector rewrite (already fired: clean)
  EXPECT_FALSE(rig.device.has_faulted_sectors());
  EXPECT_NO_THROW(rig.check(0, 512));
  EXPECT_EQ(store_contents(rig.store), pattern(512, 2));
}

TEST(BlockDevice, PartialOverwriteLaundersTheSector) {
  Rig rig({.sector_bytes = 512});
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 0, .seed = 19});
  rig.write(0, pattern(512, 1));
  ASSERT_TRUE(rig.device.has_faulted_sectors());
  EXPECT_THROW(rig.check(0, 512), VfsError);
  // A partial overwrite re-checksums the sector as it now stands: surviving
  // corrupt bytes are laundered into a validly-checksummed sector — the
  // classic blind spot of per-sector checksums.
  rig.write(100, pattern(16, 3));
  ASSERT_TRUE(rig.device.has_faulted_sectors());  // entry survives, re-blessed
  EXPECT_NO_THROW(rig.check(0, 512));
  EXPECT_EQ(rig.stats.crc_detected, 1u);  // only the pre-launder rejection
}

TEST(BlockDevice, TruncateDropsAndRecomputesEntries) {
  Rig rig({.sector_bytes = 512});
  const auto base = pattern(1024, 1);
  rig.write(0, base);
  rig.device.arm({.fault = MediaFault::BitRot, .target_sector_write = 2, .seed = 29});
  rig.write(512, pattern(512, 2));  // rot lands in sector 1
  ASSERT_TRUE(rig.device.has_faulted_sectors());

  // Straddling truncation re-blesses the shortened sector: the trim is a
  // legitimate FS operation, so the media content as cut IS what a real FS
  // would checksum.
  rig.truncate(512 + 100);
  EXPECT_TRUE(rig.device.has_faulted_sectors());
  EXPECT_NO_THROW(rig.check(0, static_cast<std::size_t>(rig.store.size())));

  // Truncating the sector away entirely drops the entry.
  rig.truncate(512);
  EXPECT_FALSE(rig.device.has_faulted_sectors());
  EXPECT_NO_THROW(rig.check(0, 512));
}

TEST(BlockDevice, TruncateKeepsLatentSectorErrorUnreadable) {
  Rig rig({.sector_bytes = 512});
  rig.write(0, pattern(1024, 1));
  rig.device.arm(
      {.fault = MediaFault::LatentSectorError, .target_sector_write = 2, .seed = 37});
  rig.write(512, pattern(512, 2));
  ASSERT_TRUE(rig.device.has_faulted_sectors());
  // A straddling trim does not heal an unreadable sector — only a write
  // (remap) does.
  rig.truncate(512 + 100);
  EXPECT_THROW(rig.check(512, 100), VfsError);
}

// --- MemFs integration -------------------------------------------------------------

TEST(BlockDevice, MemFsRoutesWritesAndScrubsReads) {
  vfs::MemFs backing;
  auto device = std::make_shared<BlockDevice>(BlockDevice::Options{.sector_bytes = 512});
  device->arm({.fault = MediaFault::BitRot, .target_sector_write = 1, .seed = 43});
  backing.set_media(device);

  vfs::File f(backing, "/data", vfs::OpenMode::Write);
  EXPECT_EQ(f.pwrite(pattern(1024), 0), 1024u);  // instance 1 rots sector 1
  ASSERT_TRUE(device->fired());
  util::Bytes buf(512);
  EXPECT_EQ(f.pread(buf, 0), 512u);  // clean sector reads fine
  EXPECT_THROW((void)f.pread(buf, 512), VfsError);
  const auto stats = backing.stats();
  EXPECT_EQ(stats.sectors_faulted, 1u);
  EXPECT_EQ(stats.crc_detected, 1u);
}

TEST(BlockDevice, MediaArmSpecBridgesSignatureParameters) {
  const auto sig =
      faults::parse_fault_signature("BIT_ROT@pwrite{sector=4096,scrub=off,width=5}");
  const auto opt = faults::media_device_options(sig);
  EXPECT_EQ(opt.sector_bytes, 4096u);
  EXPECT_FALSE(opt.scrub_on_read);
  const auto spec = faults::media_arm_spec(sig, 12, 99);
  EXPECT_EQ(spec.fault, MediaFault::BitRot);
  EXPECT_EQ(spec.target_sector_write, 12u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.rot_width, 5u);
}

// --- differential fuzzers ----------------------------------------------------------

// Deterministic generator (LCG, platform-independent) — same idiom as
// test_vfs_fuzz.cpp.
class FuzzRng {
 public:
  explicit FuzzRng(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ = state_ * 1103515245u + 12345u;
    return (state_ >> 16) & 0x7FFF;
  }
  std::uint32_t below(std::uint32_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint32_t state_;
};

/// Flat reference device: a plain byte vector with write/resize semantics
/// (zero-filled growth), sharing none of the extent/sector machinery.
struct FlatDevice {
  std::vector<std::byte> data;

  void write(std::uint64_t offset, util::ByteSpan buf) {
    if (buf.empty()) return;
    if (data.size() < offset + buf.size()) data.resize(offset + buf.size());
    std::copy(buf.begin(), buf.end(), data.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  void resize(std::uint64_t size) { data.resize(size); }
};

/// An unarmed device must be byte-invisible: every op sequence lands the
/// exact bytes a flat vector would hold, at both sector sizes, with the
/// registry forever empty and scrubbed reads free.
TEST(BlockDeviceFuzz, UnarmedDeviceMatchesFlatReference) {
  for (std::uint32_t sb : {512u, 4096u}) {
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("sector_bytes=" + std::to_string(sb) +
                   " seed=" + std::to_string(seed));
      FuzzRng rng(seed * 2654435761u);
      Rig rig({.sector_bytes = sb});
      FlatDevice ref;
      std::uint64_t expected_instances = 0;

      for (int op = 0; op < 200; ++op) {
        const auto kind = rng.below(8);
        if (kind < 5) {  // write
          const std::uint64_t offset = rng.below(3 * sb + 64);
          const std::size_t len = rng.below(2 * sb + 17);
          util::Bytes buf(len);
          for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
          rig.write(offset, buf);
          ref.write(offset, buf);
          if (len > 0) {
            expected_instances +=
                (offset + len - 1) / sb - offset / sb + 1;
          }
        } else if (kind < 6) {  // truncate
          const std::uint64_t size = rng.below(4 * sb);
          rig.truncate(size);
          ref.resize(size);
        } else {  // scrubbed read + full-content compare
          EXPECT_NO_THROW(rig.check(0, static_cast<std::size_t>(rig.store.size())));
          ASSERT_EQ(store_contents(rig.store),
                    util::Bytes(ref.data.begin(), ref.data.end()))
              << "after op " << op;
        }
      }
      EXPECT_EQ(store_contents(rig.store), util::Bytes(ref.data.begin(), ref.data.end()));
      EXPECT_EQ(rig.device.sector_writes(), expected_instances);
      EXPECT_FALSE(rig.device.has_faulted_sectors());
      EXPECT_EQ(rig.stats.sectors_faulted, 0u);
      EXPECT_EQ(rig.stats.crc_detected, 0u);
    }
  }
}

/// Armed fuzzer: random op sequences with every media model, asserting the
/// registry invariants — scrub rejections happen only while sectors are
/// registered, fire exactly once, counters line up with thrown errors, and
/// the record addresses a real sector.
TEST(BlockDeviceFuzz, ArmedDeviceHoldsRegistryInvariants) {
  constexpr MediaFault kFaults[] = {MediaFault::TornSector, MediaFault::LatentSectorError,
                                    MediaFault::MisdirectedWrite, MediaFault::BitRot};
  for (std::uint32_t sb : {512u, 4096u}) {
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE("sector_bytes=" + std::to_string(sb) +
                   " seed=" + std::to_string(seed));
      FuzzRng rng(seed * 40503u + 8191u);
      Rig rig({.sector_bytes = sb});
      rig.device.arm({.fault = kFaults[seed % 4],
                      .target_sector_write = rng.below(24),
                      .seed = seed * 7919u,
                      .rot_width = 1 + seed % 3});
      std::uint64_t rejections = 0;

      for (int op = 0; op < 150; ++op) {
        const auto kind = rng.below(8);
        if (kind < 5) {
          const std::uint64_t offset = rng.below(3 * sb + 64);
          const std::size_t len = rng.below(2 * sb + 17);
          util::Bytes buf(len);
          for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
          rig.write(offset, buf);
        } else if (kind < 6) {
          rig.truncate(rng.below(4 * sb));
        } else {
          const bool had_faults = rig.device.has_faulted_sectors();
          try {
            rig.check(0, static_cast<std::size_t>(rig.store.size()));
          } catch (const VfsError& e) {
            ++rejections;
            EXPECT_TRUE(had_faults) << "rejection with an empty registry";
            EXPECT_NE(std::string(e.what()).find("sector"), std::string::npos)
                << e.what();
          }
        }
      }
      EXPECT_EQ(rig.stats.crc_detected, rejections);
      if (rig.device.fired()) {
        const auto& rec = rig.device.record();
        EXPECT_EQ(rec.offset, rec.sector * sb);
        EXPECT_GE(rig.stats.sectors_faulted, 1u);
        EXPECT_LE(rig.stats.sectors_faulted, 2u);  // target (+ misdirect victim)
      } else {
        EXPECT_EQ(rig.stats.sectors_faulted, 0u);
      }
    }
  }
}

// --- Synthesis of unobserved media faults ---------------------------------------

// A two-stage workload over every shape a sector site can take: unaligned
// partial sectors, appends that extend a file at its end, sparse writes
// past EOF (holes inside a sector, extents never written), read-backs, a
// cut that drops extents and writes over and past it, a write placed by a
// stat of a file whose end sits mid-sector, a write that extends a file
// past an earlier write's last slice, and a rename.  The analysis reads
// every file, so a fault anywhere reaches it.
class SectorSiteApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "sectorsites"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run_stages(const core::RunContext& ctx, int first, int last) const override {
    for (int stage = first; stage <= last; ++stage) {
      if (stage == 0) {
        vfs::write_file(ctx.fs, "/input", pattern(900, 9));
        continue;
      }
      ctx.enter_stage(stage);
      if (stage == 1) stage_one(ctx.fs);
      if (stage == 2) stage_two(ctx.fs);
      ctx.leave_stage(stage);
    }
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    for (const char* path : {"/a", "/b", "/c", "/d", "/f", "/g"}) {
      const util::Bytes data = vfs::read_file(fs, path);
      result.comparison_blob.insert(result.comparison_blob.end(), data.begin(), data.end());
    }
    return result;
  }

  [[nodiscard]] core::Outcome classify(const core::AnalysisResult&,
                                       const core::AnalysisResult&) const override {
    return core::Outcome::Sdc;
  }

 private:
  static void stage_one(vfs::FileSystem& fs) {
    vfs::File a(fs, "/a", vfs::OpenMode::Write);
    (void)a.pwrite(pattern(700, 1), 0);
    (void)a.pwrite(pattern(300, 2), 700);
    (void)a.pwrite(pattern(5000, 3), 1000);
    (void)a.pwrite(pattern(200, 4), 6100);
    (void)a.pwrite(pattern(64, 5), 20000);
    (void)a.pwrite(pattern(600, 5), 20064);
    util::Bytes back(200);
    (void)a.pread(back, 100);
    vfs::File b(fs, "/b", vfs::OpenMode::Write);
    (void)b.pwrite(pattern(9000, 6), 0);
    b.ftruncate(1500);
    (void)b.pwrite(pattern(1000, 7), 1200);
    (void)b.pwrite(pattern(600, 8), 9000);
    (void)b.pwrite(pattern(10, 8), 20000);
    vfs::File c(fs, "/c", vfs::OpenMode::Write);
    (void)c.pwrite(pattern(3 * 4096 + 17, 10), 0);
  }

  static void stage_two(vfs::FileSystem& fs) {
    vfs::File c(fs, "/c", vfs::OpenMode::ReadWrite);
    (void)c.pwrite(pattern(100, 11), 3 * 4096 + 17);
    vfs::File d(fs, "/d", vfs::OpenMode::Write);
    (void)d.pwrite(pattern(5000, 12), 0);
    (void)d.pwrite(pattern(600, 13), fs.stat("/d").size + 4096);  // past where it ends
    vfs::File g(fs, "/g", vfs::OpenMode::Write);
    (void)g.pwrite(pattern(9000, 15), 0);
    {
      vfs::File e(fs, "/e", vfs::OpenMode::Write);
      (void)e.pwrite(pattern(5000, 14), 0);
    }
    fs.rename("/e", "/f");
    vfs::File a(fs, "/a", vfs::OpenMode::ReadWrite);
    util::Bytes back(10);
    (void)a.pread(back, 6150);
    (void)a.pwrite(pattern(600, 16), 20664);
  }
};

/// Expects the synthesized run `got` to equal the executed run `want` in
/// every field but the timers, the arena counters and the synthesized flag.
void expect_same_media_run(const core::RunResult& got, const core::RunResult& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.fault_fired, want.fault_fired);
  EXPECT_EQ(got.crash_reason, want.crash_reason);
  EXPECT_EQ(test_support::record_fields(got.record), test_support::record_fields(want.record));
  EXPECT_EQ(got.analyze_skipped, want.analyze_skipped);
  EXPECT_EQ(got.analysis.has_value(), want.analysis.has_value());
  if (got.analysis && want.analysis) {
    EXPECT_EQ(got.analysis->comparison_blob, want.analysis->comparison_blob);
  }
  EXPECT_EQ(test_support::non_arena_stats(got.fs_stats),
            test_support::non_arena_stats(want.fs_stats));
}

/// Every sector-write instance of `injector`'s profile under each of
/// `seeds`: a run synthesize() handles must equal execute_at of the same
/// draw, FsDiff included.  Returns the runs synthesized.
std::uint64_t expect_media_synthesis_matches_execution(
    const core::FaultInjector& injector, std::initializer_list<std::uint64_t> seeds) {
  std::uint64_t synthesized = 0;
  for (std::uint64_t k = 0; k < injector.primitive_count(); ++k) {
    for (const std::uint64_t seed : seeds) {
      vfs::FsDiff synthesized_diff;
      const auto got = injector.synthesize(core::RunDraw{k, seed}, &synthesized_diff);
      if (!got) continue;
      SCOPED_TRACE("instance " + std::to_string(k) + ", feature seed " + std::to_string(seed));
      EXPECT_TRUE(got->synthesized);
      ++synthesized;
      vfs::FsDiff executed_diff;
      const core::RunResult want = injector.execute_at(k, seed, &executed_diff);
      expect_same_media_run(*got, want);
      EXPECT_TRUE(synthesized_diff == executed_diff);
    }
  }
  return synthesized;
}

std::vector<std::string> media_signatures() {
  std::vector<std::string> out;
  for (const char* model : {"TORN_SECTOR", "LATENT_SECTOR_ERROR", "MISDIRECTED_WRITE", "BIT_ROT"}) {
    for (const char* sector : {"512", "4096"}) {
      for (const char* scrub : {"on", "off"}) {
        out.push_back(std::string(model) + "@pwrite{sector=" + sector + ",scrub=" + scrub + "}");
      }
    }
  }
  return out;
}

TEST(MediaSynthesis, EverySectorSiteOfTheToyMatchesExecution) {
  // The whole run, and stage 2 resumed from its checkpoint (extents shared
  // with the snapshot), at the default extent size and at 4 KiB, where a
  // slice's extent often holds nothing else of its write (and, with 4 KiB
  // sectors, never does, so no torn or misdirected run synthesizes there).
  const SectorSiteApp app;
  constexpr std::uint64_t kAppSeed = 3;
  std::map<std::string, std::uint64_t> whole_runs, resumed_runs;  // by signature
  for (const std::size_t chunk : {vfs::ExtentStore::kDefaultChunkSize, std::size_t{4096}}) {
    vfs::MemFs::Options fs_options;
    fs_options.chunk_size = chunk;
    std::shared_ptr<const vfs::MemFs> golden_tree;
    const auto golden = std::make_shared<const core::AnalysisResult>(
        core::FaultInjector::run_golden(app, kAppSeed, &golden_tree, fs_options));
    const auto checkpoint = core::Checkpoint::capture(app, kAppSeed, 2, fs_options);
    for (const std::string& signature : media_signatures()) {
      SCOPED_TRACE(signature + ", extents of " + std::to_string(chunk));
      const auto parsed = faults::parse_fault_signature(signature);
      core::FaultInjector whole(app, parsed, kAppSeed);
      whole.set_fs_options(fs_options);
      whole.prepare_with_golden(golden, golden_tree);
      core::FaultInjector resumed(app, parsed, kAppSeed, 2);
      resumed.set_fs_options(fs_options);
      resumed.prepare_with_checkpoint(golden, checkpoint);
      whole_runs[signature] += expect_media_synthesis_matches_execution(whole, {1, 2, 3, 4});
      resumed_runs[signature] += expect_media_synthesis_matches_execution(resumed, {1, 2, 3, 4});
    }
  }
  for (const std::string& signature : media_signatures()) {
    EXPECT_GT(whole_runs[signature], 0u) << signature;
    EXPECT_GT(resumed_runs[signature], 0u) << signature;
  }
}

TEST(MediaSynthesis, EverySectorSiteOfASmallNyxMatchesExecution) {
  // Two dumps: stage 2 rewrites slab z=0 in place, so those sectors are
  // observed and execute; the rest of the plotfile is read only by the
  // analysis.
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 2;
  const nyx::NyxApp app(config);
  for (const std::string& signature : media_signatures()) {
    SCOPED_TRACE(signature);
    core::FaultInjector injector(app, faults::parse_fault_signature(signature), 1);
    injector.prepare();
    EXPECT_GT(expect_media_synthesis_matches_execution(injector, {5, 6}), 0u);
  }
}

}  // namespace
