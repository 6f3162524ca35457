#pragma once
// I/O profiler (paper Figure 4, middle): executes the application fault-free
// with the target primitive instrumented and reports its dynamic execution
// count, which bounds the injector's uniform instance selection (R4).
//
// For a synthesizable signature (faults::is_synthesizable) the same pass
// also records every instance's write site and the stage that first
// observes it (faults::WriteObserver).  Its storage counters stand in for
// the execution phase of every run core::FaultInjector synthesizes: all of
// them for a site nothing observes, and those up to the entry of the
// observing stage for a run resumed there.

#include <cstdint>
#include <functional>
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
  /// Per-instance write sites; recorded only for synthesizable signatures.
  faults::WriteSites sites;
  /// The backing store's counters when each stage opened (first entry),
  /// by stage; recorded along with `sites`.
  std::map<int, vfs::FsStats> stage_entry_stats;
};

class IoProfiler {
 public:
  /// Runs `app` once on a fresh in-memory file system (built with
  /// `fs_options`, the geometry of the injection runs' stores) with an
  /// unarmed FaultingFs configured for `signature`, and returns the
  /// observed count.
  [[nodiscard]] static ProfileResult profile(const Application& app,
                                             const faults::FaultSignature& signature,
                                             std::uint64_t app_seed,
                                             int instrumented_stage = -1,
                                             const vfs::MemFs::Options& fs_options = {});

  /// The pass itself, on a caller-supplied run-private `backing` store:
  /// stacks the instrumentation (plus a WriteObserver for synthesizable
  /// signatures, and an unarmed BlockDevice for media models) and calls
  /// `run` with the context.  profile() and core::profile_resume share it.
  [[nodiscard]] static ProfileResult profile_on(
      vfs::MemFs& backing, const faults::FaultSignature& signature, std::uint64_t app_seed,
      int instrumented_stage, const std::function<void(const RunContext&)>& run);
};

}  // namespace ffis::core
