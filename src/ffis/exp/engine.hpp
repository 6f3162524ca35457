#pragma once
// Experiment engine: executes a whole ExperimentPlan on ONE shared thread
// pool.  Compared to running one FaultInjector campaign per cell this
// changes five things:
//
//  * Shared scheduling — every injection run from every cell is queued on a
//    single util::ThreadPool, so cores never idle at cell boundaries and a
//    20-cell plan costs one pool construction instead of 20.
//  * Golden-run caching — the golden (fault-free) execution depends only on
//    (application, app_seed), not on the fault or stage, so an 18-cell
//    single-app plan performs exactly 1 golden execution instead of 18.
//  * Checkpoint reuse — a stage-instrumented cell re-executes everything
//    before the armed stage identically on all of its runs, so the engine
//    captures that fault-free prefix once per (app, app_seed, stage), forks
//    the copy-on-write MemFs snapshot per run, and resumes at the
//    instrumented stage.  The profiling pass rides the same capture.
//  * Streaming sinks — finished cells are emitted to a ResultSink in plan
//    order as they complete (not after the whole plan), with progress and
//    cancellation hooks.  Landing, folding and emission are
//    exp::CellCollector (collector.hpp), which dist::Coordinator shares.
//  * Persistent checkpoints (EngineOptions::checkpoint_dir) — golden runs
//    and checkpoint captures can additionally be served from an on-disk
//    core::CheckpointStore shared across processes, so a repeated CLI
//    invocation of the same plan skips the fault-free prefix entirely.
//
// Golden runs, checkpoints and the per-cell profiling pass are one
// preparation path, exp::CellPreparer (prepare.hpp), which dist::Worker
// shares: the engine prepares every cell on the pool (one task per cell,
// each key resolved once: in-process cache -> store -> execution), then
// queues all injection runs.  Every tier preserves bit-identical tallies.
//
// Determinism: every run of a cell uses the application seed
// `seed ^ 0x5eed` (Cell::app_seed) and the per-run seed
// faults::FaultGenerator::run_seed(r) over the cell seed; results land in
// the collector's per-run slots and are folded in run order — so tallies
// are bit-identical to executing the runs sequentially on one FaultInjector
// at the same seeds (exp::reference_run), regardless of the thread count.

#include <atomic>
#include <cstdint>
#include <functional>

#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::exp {

struct EngineOptions {
  /// Worker threads for the shared pool; 0 = all hardware threads.
  std::size_t threads = 0;
  /// Retain every RunResult in CellResult::details (memory ~ total runs);
  /// without it a landed run drops its analysis blob at once.
  bool keep_details = false;
  /// Persistent checkpoint store directory (created if missing); empty (the
  /// default) keeps all caching in-process.  When set, golden runs and
  /// pre-fault checkpoints are loaded from disk when a valid entry exists —
  /// keyed by (application name, Application::state_fingerprint, app_seed,
  /// stage, extent geometry, format versions); corrupt or stale entries are
  /// rejected by checksum/field checks and silently rebuilt — and persisted
  /// after capture otherwise, so a second process running the same plan
  /// executes zero fault-free prefix stages (ExperimentReport counts
  /// loads/persists).  Applications with an empty fingerprint always
  /// re-execute.
  std::string checkpoint_dir;
  /// Size budget for checkpoint_dir in bytes; 0 (the default) = unbounded.
  /// Over budget, the store evicts least-recently-used entries (LRU order is
  /// persisted across processes through entry mtimes) — except entries the
  /// engine holds a lease on, so a running plan can never lose a checkpoint
  /// it is about to fork.  Tallies are bit-identical under any budget; a
  /// tight budget only costs rebuild work (ExperimentReport::store_*
  /// counters show the traffic).
  std::uint64_t checkpoint_budget = 0;
  /// Mount a passive vfs::BlockDevice under syscall-level cells too
  /// (media-model cells always mount one).  The passive device is never
  /// armed, so it registers nothing: outcomes, diffs and tallies are
  /// bit-identical with the flag on or off.  Exists for A/B benchmarks of
  /// the clean-sector fast path (bench_perf_engine's block-device section).
  bool force_block_device = false;
  /// Backing-store options for golden runs, checkpoints and per-run stores
  /// (the uniform extent size; concurrency is managed by the engine).  One plan-wide value keeps every tree on the
  /// same extent geometry, which diff classification requires.
  vfs::MemFs::Options fs_options{};
  /// Invoked with (completed_runs, total_runnable_runs) from worker threads;
  /// cells that fail to prepare contribute no runs to the total, so the
  /// final invocation always reports completed == total.
  std::function<void(std::uint64_t, std::uint64_t)> progress;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {}) : options_(std::move(options)) {}

  /// Executes the plan: cell preparation (golden runs cached per
  /// application x app_seed, checkpoints, profiling passes), then all
  /// injection runs interleaved on the shared pool.  Per-cell failures
  /// (e.g. the application never executes the target primitive) are
  /// captured in CellResult::error, not thrown.
  ExperimentReport run(const ExperimentPlan& plan, ResultSink& sink);

  /// Convenience overload discarding the stream (the report has everything).
  ExperimentReport run(const ExperimentPlan& plan);

  /// Asks the current run to stop: queued-but-unstarted injection runs are
  /// skipped, already-running ones finish, and the report is marked
  /// cancelled with partial tallies.  Callable from any thread (e.g. a
  /// signal handler thread or a progress callback).
  void request_cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  EngineOptions options_;
  std::atomic<bool> cancel_{false};
};

/// The reference oracle the engine's fast paths are tested against: each
/// cell in plan order on one core::FaultInjector with diff classification
/// off, prepared by prepare() (its own golden and profiling runs), runs
/// 0..n-1 executed in order with execute(run_seed(r)).  No checkpoint,
/// store, golden cache, pool, replay or synthesis.  Every RunResult stays in
/// CellResult::details, analysis included, so it is meant for test-sized
/// plans.  A preparation failure lands in CellResult::error.
[[nodiscard]] ExperimentReport reference_run(const ExperimentPlan& plan);

}  // namespace ffis::exp
