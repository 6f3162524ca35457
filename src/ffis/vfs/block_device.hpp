#pragma once
// Sector-granular block device beneath MemFs.
//
// Every fault model before this layer acted at the FileSystem call level —
// FaultingFs mutates the arguments of a pwrite before MemFs ever sees them.
// Real storage also fails *below* that boundary: a sector is programmed only
// partially (torn), becomes unreadable (latent sector error), lands at the
// wrong LBA (misdirected write), or silently decays (bit rot).  BlockDevice
// models that layer: MemFs routes each write through it, the device carves
// the write into fixed sectors (512 B or 4 KiB), counts sector-write
// instances for uniform fault placement, and — when armed — deviates from
// the requested write at exactly one sector.
//
// Per-sector CRC32 with a clean-sector fast path.  A checksumming file
// system records a CRC per sector at write time and verifies on read; doing
// that literally would checksum every byte of every run and wreck the hot
// loop.  The device exploits an exact shortcut: for every sector the fault
// did NOT touch, the content the FS intended and the content on media are
// the same bytes — the stored CRC matches by construction, so neither side
// needs computing.  Only faulted sectors carry a CRC record: the CRC of the
// *intended* content (what the FS would have stored), checked against the
// *actual* media content on read.  Clean runs therefore pay integer
// arithmetic per write and a `registry empty?` test per read, and because
// fault corruption lands through the normal ExtentStore write path, only
// touched extents detach — pointer-identity diffs against the golden tree
// survive untouched.
//
// Sector addressing: each regular file is its own sector space (sector k
// covers byte range [k*sector_bytes, (k+1)*sector_bytes) of the file); a
// misdirected write redirects within the file.  A sector's checksummable
// content is always exactly sector_bytes, zero-padded past EOF — holes and
// unstored extent suffixes already read as zero, so growing a file never
// perturbs a recorded CRC.
//
// Registry life cycle (mirrors how real sectors heal):
//  * a later write fully covering a faulted sector rewrites it — the entry
//    is erased (stored CRC now matches media again);
//  * a partial overwrite goes through the FS's read-modify-write: the entry's
//    expected CRC is recomputed from the post-write media content, i.e. the
//    surviving corrupt bytes are *laundered* into a validly-checksummed
//    sector (exactly the blind spot per-sector checksums have in the field);
//  * any write overlapping a latent-sector-error entry remaps the sector —
//    the entry is erased;
//  * truncation drops entries past the new EOF and recomputes ones straddling
//    it.
//
// Scrub-on-read (Options::scrub_on_read): a read overlapping a registered
// sector whose media CRC mismatches (or whose entry is a latent sector
// error) throws VfsError(IoError) and bumps FsStats::crc_detected — the
// principled source of the `Detected` outcome.  With scrubbing off the
// corrupt bytes flow to the application and the extent-diff classifier
// decides Sdc/Benign, exactly like the syscall-level models.
//
// Threading: a BlockDevice is confined to the run that owns it (attached to
// a run-private SingleThread MemFs); it has no locking of its own.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ffis/util/bytes.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/extent_store.hpp"

namespace ffis::vfs {

class ExtentArena;

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — the per-sector checksum.
[[nodiscard]] std::uint32_t crc32(util::ByteSpan data) noexcept;

/// The media-level failure modes the device can inject; each media row of
/// the faults::FaultModel table names the one that hosts it.
enum class MediaFault : std::uint8_t {
  TornSector,        ///< the sector is only partially programmed
  LatentSectorError, ///< the sector becomes unreadable (EIO under scrub)
  MisdirectedWrite,  ///< the sector's data lands at the wrong sector
  BitRot,            ///< bits decay silently after a successful write
};

class BlockDevice {
 public:
  struct Options {
    /// Fixed sector size; 512 or 4096 only (real devices expose exactly
    /// these two granularities and the CRC invariants assume a fixed grid).
    std::uint32_t sector_bytes = 512;
    /// Verify registered sectors' CRCs on every overlapping read; off routes
    /// corruption to the application (and the extent-diff classifier).
    bool scrub_on_read = true;
  };

  struct ArmSpec {
    MediaFault fault = MediaFault::BitRot;
    /// 0-based sector-write instance that fails (uniform draw upstream).
    std::uint64_t target_sector_write = 0;
    /// Drives the random features (torn split, bit position, victim sector).
    std::uint64_t seed = 0;
    /// BIT_ROT: consecutive bits flipped.
    std::uint32_t rot_width = 1;
    /// The file's size right after the armed write, when the store's size
    /// is not it: a run synthesized from the golden tree replays the write's
    /// slice on a file that later writes grew (core::FaultInjector::synthesize).
    std::optional<std::uint64_t> size_after;
  };

  /// Diagnostics of the fired fault (feeds faults::InjectionRecord).
  struct Record {
    MediaFault fault = MediaFault::BitRot;
    std::uint64_t instance = 0;   ///< sector-write instance that fired
    std::uint64_t sector = 0;     ///< faulted sector index within its file
    std::uint64_t offset = 0;     ///< byte offset of that sector
    std::size_t corrupted_bytes = 0;
    std::optional<std::size_t> flipped_bit;  ///< BIT_ROT, sector-relative
    std::optional<std::uint64_t> misdirected_to;  ///< victim sector index
  };

  /// Throws std::invalid_argument unless sector_bytes is 512 or 4096.
  explicit BlockDevice(Options options);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Arms one media fault; at most one fires per device (per run).
  void arm(const ArmSpec& spec);

  /// Gates sector-write counting and fault firing (stage-scoped campaigns);
  /// scrub verification stays active — detection is not stage-scoped.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Sector writes observed while enabled — the instance space the injector
  /// draws from (each pwrite contributes one count per sector it touches).
  [[nodiscard]] std::uint64_t sector_writes() const noexcept { return sector_writes_; }

  [[nodiscard]] bool fired() const noexcept { return fired_; }
  [[nodiscard]] const Record& record() const noexcept { return record_; }
  /// The fired fault advanced its feature RNG (compared against a fresh
  /// Rng of the armed seed, so every draw site counts without a table).
  [[nodiscard]] bool features_drawn() const noexcept {
    return fired_ && rng_ != util::Rng(spec_.seed);
  }

  [[nodiscard]] bool has_faulted_sectors() const noexcept { return !faulted_.empty(); }
  [[nodiscard]] bool scrub_on_read() const noexcept { return options_.scrub_on_read; }

  /// The write path: MemFs::pwrite routes here instead of writing `store`
  /// directly.  Counts the write's sectors, performs the store write —
  /// deviating at the armed sector when this write hosts the target
  /// instance — and maintains the faulted-sector registry (healing /
  /// laundering on overlap).  `file` keys the registry (its address) and
  /// pins the node so the key can never be reused within the run.
  void apply_write(const std::shared_ptr<const void>& file, ExtentStore& store,
                   std::uint64_t offset, util::ByteSpan buf, FsStats& stats,
                   ExtentArena* arena);

  /// The read path: verifies every registered sector of `file` overlapping
  /// [offset, offset+len) when scrubbing is on, in offset order.  Throws
  /// VfsError(IoError) naming the lowest failing sector, and bumps
  /// stats.crc_detected, on a CRC mismatch or latent sector error — so a
  /// read names the same sector however the range is split into reads.
  /// No-op when the registry is empty (the clean fast path).
  void check_read(const void* file, const ExtentStore& store, std::uint64_t offset,
                  std::size_t len, FsStats& stats);

  /// Truncation hook (after the store resize): drops registry entries past
  /// the new EOF and re-blesses ones straddling it.
  void on_truncate(const void* file, const ExtentStore& store, FsStats& stats);

 private:
  struct Entry {
    const void* file = nullptr;
    std::shared_ptr<const void> keepalive;  ///< pins the node; kills key ABA
    MediaFault kind = MediaFault::BitRot;
    std::uint64_t sector = 0;
    std::uint64_t offset = 0;        ///< sector * sector_bytes
    std::uint32_t expected_crc = 0;  ///< CRC of the content the FS intended
  };

  /// Zero-padded sector content (exactly sector_bytes into `out`).
  void read_sector(const ExtentStore& store, std::uint64_t sector_offset,
                   std::byte* out) const;
  [[nodiscard]] std::uint32_t sector_crc(const ExtentStore& store,
                                         std::uint64_t sector_offset) const;
  /// Heals/launders registry entries of `file` overlapped by a completed
  /// clean write or landing.
  void reconcile_overlaps(const void* file, const ExtentStore& store,
                          std::uint64_t offset, std::uint64_t len);
  /// Fires the armed fault at `target_sector` of the write `buf` at
  /// `offset`, which leaves the file `new_size` bytes long.
  void inject(const std::shared_ptr<const void>& file, ExtentStore& store,
              std::uint64_t offset, util::ByteSpan buf, std::uint64_t target_sector,
              std::uint64_t new_size, FsStats& stats, ExtentArena* arena);

  Options options_;
  bool enabled_ = true;
  bool armed_ = false;
  bool fired_ = false;
  ArmSpec spec_{};
  util::Rng rng_{};
  std::uint64_t sector_writes_ = 0;
  Record record_{};
  /// At most a couple of entries per run (one fault); linear scans win.
  /// Ordered by offset, which is the order check_read verifies them in.
  std::vector<Entry> faulted_;
};

}  // namespace ffis::vfs
