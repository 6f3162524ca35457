#pragma once
// exp::CellCollector — the one result-collection path from finished runs to
// a streamed ExperimentReport, shared by exp::Engine and dist::Coordinator.
//
// Every run of every cell owns a slot; a cell's slots are allocated when its
// first run closes, so none are built ahead of the first run.  A run lands
// in its slot first-wins (a re-granted unit reproduces byte-identical runs,
// so the duplicate loses nothing), or is retired with no result (a
// cancelled or failed task).
//
// Run replay is decided here, from the plan: once a cell's facts are in,
// each run's instance leader follows from its seed and the primitive count,
// and the runs of each instance are linked (instance_runs).  Landing a run
// whose fault drew no feature — executed, synthesized or resumed late —
// fills every open slot of its instance with a copy — zero timers and arena
// counters — so executors may skip such runs.  Every slot of a feature-free
// instance but its leader's is labelled `replayed`, whichever run landed
// first, and folds as replayed only, never as synthesized or resumed late.
//
// A cell finalizes the moment its last slot closes, or at once when its
// preparation facts carry an error; finalizing folds the landed runs through
// CellResult::add_run in run order, so tallies and every counter are
// bit-identical under any landing order, thread count or fleet.  Finished
// cells stream to the sink in plan order.
//
// Not thread-safe: callers serialize every call (the engine under its emit
// mutex, the coordinator under its state mutex).  Slots outlive their cell's
// finalization until finish(), because a coordinator journals a unit only
// when its UnitDone arrives, after the row that finalized the cell.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/exp/sink.hpp"

namespace ffis::exp {

class CellCollector {
 public:
  /// `plan` and `sink` must outlive the collector.  Without `keep_details` a
  /// landed run drops its analysis blob at once (only details read it).
  CellCollector(const ExperimentPlan& plan, ResultSink& sink, bool keep_details);

  /// Takes a cell's preparation facts.  The first value is kept; the first
  /// error — from whichever value carries it — finalizes the cell at once
  /// and credits `worker_id` (0 = local) as a contributor.  Returns true
  /// when the value changed the cell: its first facts, or its error.
  bool set_facts(std::size_t cell, const CellFacts& facts, std::uint32_t worker_id = 0);

  /// Lands one run first-wins (RunResult::worker_id names its contributor,
  /// 0 = local), filling the open slots of its instance when it drew no
  /// feature.  Returns false, dropping `result`, when the slot is already
  /// closed or the cell is final.
  bool land(std::size_t cell, std::uint64_t run, core::RunResult result);

  /// Closes a run's slot with no result.  A non-empty `error` becomes the
  /// cell's error unless it already has one; the cell's landed runs still
  /// fold.
  void retire(std::size_t cell, std::uint64_t run, const std::string& error = {});

  /// The run landed in (cell, run), or nullptr.
  [[nodiscard]] const core::RunResult* landed(std::size_t cell, std::uint64_t run) const;

  /// The report under assembly, for the counters only the caller knows.
  [[nodiscard]] ExperimentReport& report() noexcept { return report_; }

  /// Finalizes every cell still open (a cancel or a drain leaves partial
  /// tallies), emits the rest, sums the plan totals and hands the report
  /// over.  Call once; the collector is spent afterwards.
  ExperimentReport finish();

 private:
  enum class Slot : std::uint8_t { Open, Landed, Retired };
  struct CellSlots {
    std::vector<core::RunResult> runs;
    std::vector<Slot> state;
    /// Each run's instance leader and link; empty until the facts are in.
    InstanceRuns instances;
    std::uint64_t closed = 0;
    bool has_facts = false;
    bool final = false;
  };

  /// The cell's slots, allocated on first use unless the cell is final.
  CellSlots& open_slots(std::size_t cell);
  void close(std::size_t cell, std::uint64_t run, Slot state);
  void finalize(std::size_t cell);
  void emit();

  ResultSink& sink_;
  const bool keep_details_;
  std::vector<CellSlots> cells_;
  ExperimentReport report_;
  std::size_t next_emit_ = 0;
};

}  // namespace ffis::exp
