#pragma once
// Write observation: which write instances a run reads back, and when.
//
// A silent write fault (BIT_FLIP, or SHORN_WRITE with a garbage or
// adjacent-data tail, on pwrite) forwards a full-size buffer and reports full
// success.  A run that faults instance i therefore performs exactly the
// fault-free run's operations up to and including i, and keeps performing
// them for as long as nothing *observes* the corrupted bytes.  The profiling
// pass stacks a WriteObserver above its unarmed FaultingFs and records, for
// every counted pwrite instance, its site (file, offset, length) and the
// stage open when a later operation first observes it:
//
//   * a pread overlapping the range, through any handle on the file
//     (reopens included);
//   * a pwrite overlapping the range (the final bytes there are no longer
//     the instance's own);
//   * a truncate, ftruncate or truncating open that cuts into the range;
//   * an unlink of the file, or a rename with the file (or a directory
//     above it) as source or target.
//
// A run that faults an unobserved instance ends with the golden final tree
// plus the fault applied to the golden bytes at the instance's site.  A run
// whose instance is first observed while a later stage s is open is, when
// stage s opens, the golden state at that boundary plus the same fault.
// core::FaultInjector::synthesize builds the first without executing the
// application, and resumes the second at stage s from the golden stage-s
// checkpoint (docs/ARCHITECTURE.md, "Synthesis").
//
// Media models fault one sector-write instance beneath the write path
// (vfs::BlockDevice), and the pwrite above it succeeds in full.  Given a
// media device, the observer records sector sites instead: each counted
// pwrite with its file, range and the file's size before it, which together
// give every sector-write instance it hosts, plus a clock per file and
// sector of the last operation that observed it.  The observers are the
// device's heal and launder rules: a read, any write overlapping the
// sector, a cut, an unlink or a rename, and also a stat (a torn or
// misdirected slice at the end of a file leaves the file shorter until a
// later write extends it, and a stat reads the size at the file's last
// byte).  A sector unobserved after its instance, and for a misdirected
// write its victim sector too, ends the run as the golden tree plus the
// fault replayed on the golden bytes, with the faulted-sector registry the
// device left (FaultInjector::synthesize).

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ffis/faults/faulting_fs.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace ffis::faults {

/// Where one counted pwrite instance wrote.
struct WriteSite {
  std::uint32_t file = 0;  ///< index into WriteSites::paths
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// The stage open (RunContext::enter_stage) when a later operation first
  /// read, rewrote, cut or moved the range; 0 when no stage was open, or
  /// when the write was empty or went through a handle whose file was
  /// unlinked or replaced; kUnobserved when nothing ever observed it.
  int observed_in = kUnobserved;

  static constexpr int kUnobserved = -1;
  [[nodiscard]] bool observed() const noexcept { return observed_in != kUnobserved; }
};

/// One pwrite of a media-model pass that hosts counted sector-write
/// instances: [first_instance, first_instance + the sectors it touches).
struct SectorWrite {
  std::uint32_t file = 0;  ///< index into WriteSites::paths
  /// Into a path of the tree through a handle the observer saw opened;
  /// an orphaned or unknown handle's instances are never synthesized.
  bool placed = false;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t size_before = 0;  ///< the file's size just before the write
  std::uint64_t first_instance = 0;
  std::uint64_t clock = 0;  ///< the observation clock of the write itself
};

/// One sector-write instance: its write's slice within the sector.
struct SectorSite {
  std::uint32_t file = 0;
  std::uint64_t sector = 0;
  std::uint64_t write_begin = 0;  ///< the hosting write's byte range
  std::uint64_t write_end = 0;
  std::uint64_t slice_begin = 0;  ///< that range within the sector
  std::uint64_t slice_end = 0;
  std::uint64_t size_after = 0;  ///< the file's size right after the write
  bool hole = false;             ///< the slice lay at or past EOF before it
  std::uint64_t clock = 0;       ///< SectorWrite::clock
};

/// When a file's sectors were observed, and when the pass's store owned its
/// extents.  Flat vectors: a node per sector would scatter small blocks
/// among the pass's extents and pin the heap they free.
struct SectorTimeline {
  /// The clock of the last operation that observed each sector (0: none).
  std::vector<std::uint64_t> last;
  /// (clock, first byte cut) of every cut, which observes every sector from
  /// that byte's on.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cuts;
  /// A clock interval [first write, cut that dropped it) during which the
  /// store held a copy of the extent of its own: a write there then
  /// allocates, detaches and copies nothing.
  struct Owned {
    std::uint64_t extent = 0;
    std::uint64_t from = 0;
    std::uint64_t until = 0;
  };
  std::vector<Owned> owned;
};

/// The sector sites of a media-model pass.
struct SectorSites {
  std::uint32_t sector_bytes = 0;  ///< 0: the pass had no media device
  std::uint64_t extent_bytes = 0;  ///< the pass's store's chunk size
  std::vector<SectorWrite> writes;  ///< in instance order
  std::vector<SectorTimeline> files;  ///< by WriteSites::paths index

  /// The site of `instance` (none when no placed write hosts it).
  [[nodiscard]] std::optional<SectorSite> site(std::uint64_t instance) const;
  /// Whether an operation after `clock` observed `sector` of `file`.
  [[nodiscard]] bool observed_after(std::uint32_t file, std::uint64_t sector,
                                    std::uint64_t clock) const;
  /// Whether the store owned extent `extent` of `file` at `clock`.
  [[nodiscard]] bool owned_at(std::uint32_t file, std::uint64_t extent,
                              std::uint64_t clock) const;
};

/// The write sites of one profiling pass, indexed by instance.
struct WriteSites {
  std::vector<std::string> paths;  ///< interned normalized paths
  std::vector<WriteSite> sites;    ///< one per counted pwrite, in instance order
  SectorSites sectors;             ///< media models only
};

/// The faults a run can be synthesized for from its write site, or resumed
/// for at the stage that observes it: BIT_FLIP@pwrite and SHORN_WRITE@pwrite
/// with a garbage or adjacent-data tail.  Each forwards the whole buffer and
/// reports its full size, so the call itself is indistinguishable from a
/// fault-free one, and each mutation is a function of the buffer and the
/// feature seed alone (an adjacent-data tail copies bytes from inside the
/// buffer).  (A stale tail forwards a prefix, DROPPED_WRITE and IO_ERROR are
/// visible or leave the old bytes, and read faults change what the run
/// reads.)  The media models fault one sector below a pwrite that succeeds
/// in full; they are synthesized from sector sites instead, which the
/// observer records given the pass's media device.
[[nodiscard]] bool is_synthesizable(const FaultSignature& signature) noexcept;

/// Profile-only decorator: stack it directly above the pass's FaultingFs
/// (configured for a pwrite signature) and run the workload through it.
/// A forwarded pwrite is instance k when it advanced `instrument`'s
/// execution count from k.  Overlap checks cost O(log sites on the file)
/// plus the sites they retire.  The pass reports stage boundaries through
/// set_stage.  Given the pass's media `device`, it records sector sites
/// instead: a forwarded pwrite hosts instances [k, k') when it advanced the
/// device's sector-write count from k to k', and each observation costs one
/// clock update per sector it touches.  `extent_bytes` is then the chunk
/// size of the pass's store.
class WriteObserver final : public vfs::PassthroughFs {
 public:
  // The cast picks the forwarding constructor over PassthroughFs's copy
  // constructor, which would bypass `instrument` and forward to its inner.
  explicit WriteObserver(FaultingFs& instrument, const vfs::BlockDevice* device = nullptr,
                         std::uint64_t extent_bytes = 0) noexcept
      : PassthroughFs(static_cast<vfs::FileSystem&>(instrument)),
        instrument_(instrument),
        device_(device) {
    if (device != nullptr) {
      out_.sectors.sector_bytes = device->options().sector_bytes;
      out_.sectors.extent_bytes = extent_bytes;
    }
  }

  vfs::FileHandle open(const std::string& path, vfs::OpenMode mode) override;
  void close(vfs::FileHandle fh) override;
  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override;
  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void ftruncate(vfs::FileHandle fh, std::uint64_t size) override;
  void unlink(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  vfs::FileStat stat(const std::string& path) override;

  /// Sets the stage open from now on (0: none), which later observations
  /// record in WriteSite::observed_in.
  void set_stage(int stage) noexcept { stage_ = stage; }

  /// The sites recorded so far.
  [[nodiscard]] const WriteSites& sites() const noexcept { return out_; }
  /// Moves the recorded sites out (the observer is done afterwards).
  [[nodiscard]] WriteSites take() noexcept { return std::move(out_); }

 private:
  /// A handle whose file was unlinked or replaced: its I/O touches no path
  /// of the tree (and no live site, which the unlink or rename retired).
  static constexpr std::uint32_t kOrphan = std::numeric_limits<std::uint32_t>::max();
  /// A handle this observer never saw opened: any file at all.
  static constexpr std::uint32_t kUnknown = kOrphan - 1;
  static constexpr std::uint64_t kEnd = std::numeric_limits<std::uint64_t>::max();
  /// Sector mode: an observation reaching past this many sectors of a file
  /// counts as a cut from its start rather than as a stamp per sector.
  static constexpr std::uint64_t kMaxStampedSectors = std::uint64_t{1} << 20;

  /// An unobserved site still live in its file: [offset, end).
  struct Live {
    std::uint64_t end = 0;
    std::uint64_t instance = 0;
  };

  std::uint32_t intern(const std::string& normalized);
  [[nodiscard]] std::uint32_t file_of(vfs::FileHandle fh) const;
  /// Marks every live site of `file` overlapping [begin, end) observed
  /// (none for an orphan, every live site anywhere for an unknown handle);
  /// with a media device, stamps the sectors it touches instead.
  void observe(std::uint32_t file, std::uint64_t begin, std::uint64_t end);
  void observe_sectors(std::uint32_t file, std::uint64_t begin, std::uint64_t end);
  std::size_t pwrite_sectors(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset);
  /// Applies `f(id, path)` to every interned path equal to `root` or under it.
  template <class F>
  void for_each_below(const std::string& root, F&& f);

  FaultingFs& instrument_;
  const vfs::BlockDevice* device_;
  std::uint64_t clock_ = 0;  ///< sector mode: observations so far
  /// Sector mode, per file and extent: 1 + the index in
  /// SectorTimeline::owned of the extent's open interval (0: none).
  std::vector<std::vector<std::size_t>> open_owned_;
  WriteSites out_;
  std::map<std::string, std::uint32_t> ids_;
  /// Per file: its live sites by offset.  They are pairwise disjoint, since
  /// a pwrite retires every site it overlaps before it becomes one.
  std::vector<std::map<std::uint64_t, Live>> live_;
  std::unordered_map<vfs::FileHandle, std::uint32_t> handles_;
  int stage_ = 0;
};

}  // namespace ffis::faults
