#pragma once
// Result types produced by exp::Engine and consumed by exp::ResultSink.

#include <cstdint>
#include <string>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/vfs/run_counters.hpp"

namespace ffis::exp {

/// Every counter of the run-counter table (FFIS_RUN_COUNTERS), aggregated
/// over one cell's runs (CellResult, SinkRow) or over a whole plan
/// (ExperimentReport).  For a checkpointed cell the per-run MemFs is a fork,
/// so cow_bytes_copied is exactly the copy-on-write cost of resuming.
struct RunCounters {
#define FFIS_FIELD_FS(name) std::uint64_t name = 0;
#define FFIS_FIELD_RUN(name, type, aggregation, value) type name = 0;
  FFIS_RUN_COUNTERS(FFIS_FIELD_FS, FFIS_FIELD_RUN)
#undef FFIS_FIELD_FS
#undef FFIS_FIELD_RUN

  /// Adds another block entry by entry (cell totals into plan totals).
  void add(const RunCounters& other) {
#define FFIS_ADD(name, ...) name += other.name;
    FFIS_RUN_COUNTERS(FFIS_ADD, FFIS_ADD)
#undef FFIS_ADD
  }

  /// Calls f(name, counter) for every entry in table order; `counter` is a
  /// std::uint64_t or double lvalue.
  template <class F>
  void for_each_counter(F&& f) {
#define FFIS_VISIT(name, ...) f(#name, name);
    FFIS_RUN_COUNTERS(FFIS_VISIT, FFIS_VISIT)
  }
  template <class F>
  void for_each_counter(F&& f) const {
    FFIS_RUN_COUNTERS(FFIS_VISIT, FFIS_VISIT)
#undef FFIS_VISIT
  }

 protected:
  /// Folds one run in, following each entry's aggregation (CellResult's
  /// fold adds the tally around it).
  void add_run(const core::RunResult& run) {
#define FFIS_FOLD_FS(name) name += run.fs_stats.name;
#define FFIS_FOLD_RUN(name, type, aggregation, value) fold_##aggregation(name, value);
    FFIS_RUN_COUNTERS(FFIS_FOLD_FS, FFIS_FOLD_RUN)
#undef FFIS_FOLD_FS
#undef FFIS_FOLD_RUN
  }

 private:
  template <class T, class V>
  static void fold_Sum(T& total, V value) {
    total += value;
  }
  template <class T, class V>
  static void fold_CountNonzero(T& count, V value) {
    if (value != V{}) ++count;
  }
};

/// Outcome of one plan cell.  Tallies are deterministic for a given cell
/// spec: runs land in per-index slots and are tallied in run order, so the
/// result is independent of the engine's thread count.
struct CellResult : RunCounters {
  std::size_t index = 0;  ///< position in the plan (and in every sink stream)
  Cell cell;
  core::OutcomeTally tally;
  std::uint64_t runs_completed = 0;  ///< < cell.runs only when cancelled
  std::uint64_t primitive_count = 0;
  std::uint64_t faults_not_fired = 0;
  bool golden_cached = false;  ///< golden run came from the engine's cache
  /// Injection runs forked a pre-fault checkpoint (stage-instrumented cell of
  /// a stage-resumable application) instead of re-running the whole workload.
  bool checkpointed = false;
  /// The checkpoint itself was captured for an earlier cell of the same
  /// (app, app_seed, stage) and reused here.
  bool checkpoint_cached = false;
  /// The checkpoint came from the persistent on-disk store
  /// (EngineOptions::checkpoint_dir) instead of being captured this process
  /// — i.e. this cell executed no fault-free prefix stages at all.
  bool checkpoint_loaded = false;
  /// Sorted ids of the workers that contributed runs to this cell under a
  /// dist::Coordinator; empty for single-process execution.  A re-granted
  /// cell legitimately lists several contributors.
  std::vector<std::uint32_t> worker_ids;
  /// Non-empty when the cell could not run at all (golden run threw, or the
  /// application never executes the target primitive — tally is empty then),
  /// or when harness infrastructure failed mid-cell (tally covers only the
  /// runs that completed; application crashes are tallied, never put here).
  std::string error;
  /// Per-run detail in run order (EngineOptions::keep_details only).
  std::vector<core::RunResult> details;

  /// The one RunResult -> CellResult fold, shared by exp::Engine and
  /// dist::Coordinator: callers feed executed runs in run order, which keeps
  /// tallies independent of scheduling.
  void add_run(const core::RunResult& run) {
    ++runs_completed;
    tally.add(run.outcome);
    if (!run.fault_fired && run.outcome != core::Outcome::Crash) ++faults_not_fired;
    RunCounters::add_run(run);
  }
};

/// Plan-wide results.  The inherited RunCounters hold the sums of the
/// per-cell counters.
struct ExperimentReport : RunCounters {
  std::vector<CellResult> cells;  ///< plan order
  std::uint64_t total_runs = 0;   ///< runs actually executed
  std::uint64_t golden_executions = 0;
  std::uint64_t golden_cache_hits = 0;
  std::uint64_t checkpoint_builds = 0;      ///< fault-free prefix captures executed
  std::uint64_t checkpoint_cache_hits = 0;  ///< cells that reused a cached checkpoint
  // Persistent-store traffic (EngineOptions::checkpoint_dir; all 0 without
  // one).  A fully warm plan shows golden_executions == checkpoint_builds
  // == 0 with checkpoints_loaded == the number of checkpoint keys — the
  // "zero prefix stages" signature.
  std::uint64_t checkpoints_loaded = 0;     ///< checkpoint entries served from disk
  std::uint64_t checkpoints_persisted = 0;  ///< checkpoint entries written to disk
  std::uint64_t goldens_loaded = 0;         ///< golden entries served from disk
  std::uint64_t goldens_persisted = 0;      ///< golden entries written to disk
  // Store cache-tier traffic (core::CheckpointStore::Stats, copied after the
  // last phase).  hits/misses count load attempts; evictions/gc only move
  // when a budget (EngineOptions::checkpoint_budget) forces them.  Counters
  // are per-engine even when several engines share one store directory.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_evictions = 0;
  std::uint64_t store_bytes_evicted = 0;
  std::uint64_t store_gc_runs = 0;
  /// Memory held by the engine's checkpoint cache: extent-stored bytes (and
  /// allocated extents) summed over the captured snapshots — actual
  /// footprint, not logical file sizes (sparse payloads store less).
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_chunks = 0;
  // Distributed execution (dist::Coordinator; both 0 for local runs).  The
  // golden/checkpoint counters above stay 0 in distributed reports: each
  // worker maintains its own caches and the coordinator never executes the
  // workload, so there is no meaningful plan-wide number to aggregate.
  std::uint64_t workers_connected = 0;  ///< workers that completed the handshake
  std::uint64_t units_regranted = 0;    ///< work units re-queued after loss/timeout
  /// Units landed by a previous coordinator incarnation and restored from
  /// the campaign journal (never re-granted, never re-executed).
  std::uint64_t units_replayed_from_journal = 0;
  /// Hellos carrying the reconnect flag — worker retry loops that re-joined
  /// after a transport fault or a coordinator restart.
  std::uint64_t worker_reconnects = 0;
  /// Stale-grant re-queues: granted units whose worker stopped sending rows
  /// *and* liveness heartbeats past the unit timeout.
  std::uint64_t heartbeat_timeouts = 0;
  bool cancelled = false;

  /// Adds a finished cell to the plan-wide totals.
  void add_cell(const CellResult& cell) {
    total_runs += cell.runs_completed;
    add(cell);
  }
};

}  // namespace ffis::exp
