#pragma once
// Pre-fault checkpoints: the fault-free prefix of a stage-instrumented run,
// captured once and forked per injection run.
//
// A campaign cell that injects into stage k re-executes everything before
// stage k identically on every one of its (typically 1000) runs — the
// workload is deterministic in app_seed and the fault cannot fire before the
// instrumented stage.  A Checkpoint captures that prefix once on a MemFs;
// each injection run then forks the snapshot in O(#files) (copy-on-write,
// see vfs::MemFs::fork) and resumes at stage k.  The I/O-profiling pass
// folds into the same capture (IoProfiler::profile's `resume_from`).

#include <cstdint>
#include <memory>

#include "ffis/core/application.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::core {

/// The fault-free pass every golden and checkpoint tree comes from: stages
/// [first, last] of (app, app_seed), uninstrumented, on `fs` — a fresh store
/// for the golden run and a checkpoint's prefix, a fork of the checkpoint
/// for the golden tree grown from it.
void run_fault_free(const Application& app, std::uint64_t app_seed, vfs::FileSystem& fs,
                    int first, int last);

class Checkpoint {
 public:
  /// Runs the fault-free prefix (stages [0, stage-1]) of (app, app_seed) on
  /// a fresh MemFs and freezes the result.  Requires 1 <= stage <=
  /// app.stage_count() (Application::resume_stage); application exceptions
  /// propagate (deterministic apps cannot crash fault-free, so a throw here
  /// is a configuration error).  `fs_options` selects the snapshot's extent
  /// geometry (concurrency is forced to SingleThread) — forks inherit it,
  /// and diff-driven classification requires golden and run trees to agree.
  [[nodiscard]] static std::shared_ptr<const Checkpoint> capture(
      const Application& app, std::uint64_t app_seed, int stage,
      const vfs::MemFs::Options& fs_options = {});

  /// The frozen prefix state.  Callers fork() it; nobody mutates it.
  [[nodiscard]] const vfs::MemFs& fs() const noexcept { return fs_; }
  /// The stage injection runs resume at (== the cell's instrumented stage).
  [[nodiscard]] int stage() const noexcept { return stage_; }

  /// Grows the golden *output* tree from this checkpoint: fork + fault-free
  /// resume of stages >= stage().  Diff-driven classification diffs every
  /// run against this tree, and because it derives from the very snapshot
  /// the runs fork, the whole prefix compares by pointer equality.  The
  /// engine calls this once per checkpoint key and shares the result.
  [[nodiscard]] std::shared_ptr<const vfs::MemFs> grow_golden_tree(
      const Application& app, std::uint64_t app_seed) const;

  // --- Snapshot memory accounting -------------------------------------------
  //
  // The engine's checkpoint cache holds one frozen MemFs per (app, app_seed,
  // stage); these accessors let it audit what that cache costs and how much
  // of each snapshot is still shared with live forks.

  /// Logical payload bytes of the frozen snapshot (sum of file sizes).
  [[nodiscard]] std::uint64_t total_bytes() const { return fs_.total_bytes(); }
  /// Bytes the snapshot actually holds in extents — its memory footprint
  /// (smaller than total_bytes() for sparse payloads).
  [[nodiscard]] std::uint64_t stored_bytes() const { return fs_.stored_bytes(); }
  /// Snapshot bytes currently shared with live forks (not yet detached by
  /// copy-on-write); equals 0 when no fork is alive or every fork has
  /// rewritten everything.
  [[nodiscard]] std::uint64_t cow_shared_bytes() const { return fs_.cow_shared_bytes(); }
  /// Extents allocated by the capture (the snapshot's storage footprint).
  [[nodiscard]] std::uint64_t allocated_chunks() const { return fs_.allocated_chunks(); }

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

 private:
  /// The persistent store rebuilds checkpoints from disk: it constructs an
  /// empty instance via the private constructor and decodes the serialized
  /// snapshot tree straight into fs_ (vfs::SnapshotCodec).  A loaded
  /// checkpoint is indistinguishable from a captured one to every consumer.
  friend class CheckpointStore;

  Checkpoint(int stage, vfs::MemFs::Options options)
      : fs_(std::move(options)), stage_(stage) {}

  /// SingleThread: the capture runs on one thread and the state is frozen
  /// afterwards, so per-run fork() calls never contend on a mutex.
  vfs::MemFs fs_;
  int stage_;
};

}  // namespace ffis::core
