#pragma once
// Write observation: which pwrite instances a run reads back, and when.
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

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ffis/faults/faulting_fs.hpp"
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

/// The write sites of one profiling pass, indexed by instance.
struct WriteSites {
  std::vector<std::string> paths;  ///< interned normalized paths
  std::vector<WriteSite> sites;    ///< one per counted pwrite, in instance order
};

/// The faults a run can be synthesized for: BIT_FLIP@pwrite and
/// SHORN_WRITE@pwrite with a garbage or adjacent-data tail.  Each forwards
/// the whole buffer and reports its full size, so the call itself is
/// indistinguishable from a fault-free one, and each mutation is a function
/// of the buffer and the feature seed alone (an adjacent-data tail copies
/// bytes from inside the buffer).  (A stale tail forwards a prefix,
/// DROPPED_WRITE and IO_ERROR are visible or leave the old bytes, read
/// faults change what the run reads, and media models live below the
/// file-system call boundary.)
[[nodiscard]] bool is_synthesizable(const FaultSignature& signature) noexcept;

/// Profile-only decorator: stack it directly above the pass's FaultingFs
/// (configured for a pwrite signature) and run the workload through it.
/// A forwarded pwrite is instance k when it advanced `instrument`'s
/// execution count from k.  Overlap checks cost O(log sites on the file)
/// plus the sites they retire.  The pass reports stage boundaries through
/// set_stage.
class WriteObserver final : public vfs::PassthroughFs {
 public:
  // The cast picks the forwarding constructor over PassthroughFs's copy
  // constructor, which would bypass `instrument` and forward to its inner.
  explicit WriteObserver(FaultingFs& instrument) noexcept
      : PassthroughFs(static_cast<vfs::FileSystem&>(instrument)), instrument_(instrument) {}

  vfs::FileHandle open(const std::string& path, vfs::OpenMode mode) override;
  void close(vfs::FileHandle fh) override;
  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override;
  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void ftruncate(vfs::FileHandle fh, std::uint64_t size) override;
  void unlink(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;

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

  /// An unobserved site still live in its file: [offset, end).
  struct Live {
    std::uint64_t end = 0;
    std::uint64_t instance = 0;
  };

  std::uint32_t intern(const std::string& normalized);
  [[nodiscard]] std::uint32_t file_of(vfs::FileHandle fh) const;
  /// Marks every live site of `file` overlapping [begin, end) observed
  /// (none for an orphan, every live site anywhere for an unknown handle).
  void observe(std::uint32_t file, std::uint64_t begin, std::uint64_t end);
  /// Applies `f(id, path)` to every interned path equal to `root` or under it.
  template <class F>
  void for_each_below(const std::string& root, F&& f);

  FaultingFs& instrument_;
  WriteSites out_;
  std::map<std::string, std::uint32_t> ids_;
  /// Per file: its live sites by offset.  They are pairwise disjoint, since
  /// a pwrite retires every site it overlaps before it becomes one.
  std::vector<std::map<std::uint64_t, Live>> live_;
  std::unordered_map<vfs::FileHandle, std::uint32_t> handles_;
  int stage_ = 0;
};

}  // namespace ffis::faults
