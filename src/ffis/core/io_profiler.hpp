#pragma once
// I/O profiler (paper Figure 4, middle): executes the application fault-free
// with the target primitive instrumented and reports its dynamic execution
// count, which bounds the injector's uniform instance selection (R4).
//
// For a synthesizable signature (faults::is_synthesizable) the same pass
// also records every instance's write site and the stage that first
// observes it, and for a media model every sector-write instance's sector
// site and when each sector was last observed (faults::WriteObserver).  Its
// storage counters stand in for the execution phase of every run
// core::FaultInjector synthesizes: all of them for a site nothing observes,
// and those up to the entry of the observing stage for a run resumed there.
//
// A checkpointed cell folds the pass into its checkpoint: the instrumented
// continuation runs once on a fork, which observes exactly the primitive
// executions a full gated pass would (counting is gated to the
// instrumented stage either way) at the cost of only the suffix.

#include <cstdint>
#include <map>

#include "ffis/core/application.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/write_observer.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::core {

struct ProfileResult {
  /// Dynamic executions of the target primitive (within the instrumented
  /// stage, when one is configured).
  std::uint64_t primitive_count = 0;
  /// Total bytes written through pwrite during the run (Table II context).
  std::uint64_t bytes_written = 0;
  /// Total bytes returned by pread — the read-side mirror, so read-fault
  /// campaign tables can report traffic symmetrically.
  std::uint64_t bytes_read = 0;
  /// Storage counters of the pass's backing store.  The pass performs an
  /// injection run's operations on a store of the same geometry, so these
  /// are the execution-phase counters of any run whose fault nothing
  /// observes.
  vfs::FsStats fs_stats{};
  /// Per-instance write (or, for media models, sector) sites; recorded only
  /// for synthesizable signatures and media models.
  faults::WriteSites sites;
  /// The backing store's counters when each stage opened (first entry),
  /// by stage; recorded along with `sites`.
  std::map<int, vfs::FsStats> stage_entry_stats;
};

class Checkpoint;

class IoProfiler {
 public:
  /// Runs `app` once with an unarmed FaultingFs configured for `signature`
  /// (plus a WriteObserver for synthesizable signatures, and an unarmed
  /// BlockDevice for media models), and returns the observed count.  The
  /// pass runs the whole application on a fresh in-memory file system built
  /// with `fs_options` (the geometry of the injection runs' stores) or, given
  /// `resume_from`, its stages >= resume_from->stage() on a fork of it — then
  /// bytes_written and fs_stats cover only the continuation, exactly as a
  /// resumed injection run's counters do, and `instrumented_stage` must be
  /// the checkpoint's stage.
  [[nodiscard]] static ProfileResult profile(const Application& app,
                                             const faults::FaultSignature& signature,
                                             std::uint64_t app_seed,
                                             int instrumented_stage = -1,
                                             const vfs::MemFs::Options& fs_options = {},
                                             const Checkpoint* resume_from = nullptr);
};

}  // namespace ffis::core
