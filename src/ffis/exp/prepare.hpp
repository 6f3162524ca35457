#pragma once
// exp::CellPreparer — the one path from a plan cell to a prepared
// core::FaultInjector, shared by exp::Engine and dist::Worker.
//
// A cell needs the fault-free golden run of its (application, app_seed) and,
// when it is stage-instrumented on a stage-resumable application, the
// pre-fault checkpoint of its (application, app_seed, stage).  Each such key
// is resolved exactly once per preparer, in tier order: in-process cache ->
// leased entry of the persistent store (EngineOptions::checkpoint_dir,
// bounded by checkpoint_budget) -> execution, whose result is then
// published to the store.  Every cell classifies by extent diff, so a
// checkpoint entry saved without a golden tree (older stores hold such
// entries) is upgraded in place: the tree is grown from the loaded snapshot
// (suffix stages only) and the entry is written back.
//
// prepare() is safe to call from pool threads: concurrent cells of one key
// wait for its single resolution.  Per-cell flags have plan-order meaning —
// the first plan cell of a key owns it, and every later cell of the key is
// "cached" once the key resolved — so they do not depend on which thread,
// or which fleet worker, prepares a cell first.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/faults/fault_generator.hpp"

namespace ffis::core {
class CheckpointStore;
}

namespace ffis::exp {

/// One prepared cell: its fault generator and injector (both null when
/// `error` is set) plus the preparation facts a CellResult reports.
struct PreparedCell : CellFacts {
  std::unique_ptr<faults::FaultGenerator> generator;
  std::unique_ptr<core::FaultInjector> injector;
  /// Per fault instance (primitive_count of them): some run of the instance
  /// executed here and drew no feature, so its other runs need not execute.
  std::vector<std::atomic<bool>> feature_free;
  /// An earlier plan cell owns this cell's checkpoint key, which resolved.
  bool checkpoint_cached = false;
};

/// The fault generator of `cell`: its parsed signature and run-seed stream.
[[nodiscard]] faults::FaultGenerator fault_generator(const Cell& cell);

/// Run `run` of a prepared cell: synthesized from the golden tree when
/// nothing reads the drawn instance's write back (FaultInjector::synthesize,
/// a function of the plan alone); else nullopt — skipped — when a run of
/// the same instance already executed on this cell and drew no feature;
/// else the injector's execute(run_seed).  A skipped run has no result:
/// its slot is filled when the executed run of its instance lands in the
/// exp::CellCollector.  Thread-safe; racing runs of one instance may both
/// execute (identically).
[[nodiscard]] std::optional<core::RunResult> execute_run(PreparedCell& cell,
                                                         std::uint64_t run);

class CellPreparer {
 public:
  /// Indexes the plan's golden and checkpoint keys and opens the store named
  /// by options.checkpoint_dir (if any).  A bad directory is a configuration
  /// error and throws here, before any cell is prepared.  `plan` must
  /// outlive the preparer.
  CellPreparer(const ExperimentPlan& plan, EngineOptions options);
  ~CellPreparer();

  CellPreparer(const CellPreparer&) = delete;
  CellPreparer& operator=(const CellPreparer&) = delete;

  /// Prepares plan cell `index`, resolving its keys first if no earlier call
  /// did.  Preparation failures land in PreparedCell::error, never thrown.
  [[nodiscard]] PreparedCell prepare(std::size_t index);

  /// Cells in the order a pool should prepare them: every cell that owns a
  /// key comes first (in plan order), so distinct keys resolve concurrently
  /// before any thread waits on a key another thread is resolving.
  [[nodiscard]] const std::vector<std::size_t>& schedule() const noexcept {
    return schedule_;
  }

  /// Adds the key-level counters (golden executions / loads / persists,
  /// checkpoint builds / loads / persists / footprint) and the store's
  /// traffic to `report`.  Call once no prepare() is in flight.
  void add_totals(ExperimentReport& report) const;

 private:
  struct GoldenSlot;
  struct CheckpointSlot;
  static constexpr std::size_t kNoCheckpoint = static_cast<std::size_t>(-1);
  struct CellKeys {
    std::size_t golden = 0;
    std::size_t checkpoint = kNoCheckpoint;
    bool shares_golden = false;      ///< an earlier cell owns the golden key
    bool shares_checkpoint = false;  ///< an earlier cell owns the checkpoint key
  };

  GoldenSlot& resolved_golden(std::size_t g);
  CheckpointSlot& resolved_checkpoint(std::size_t k);
  void resolve(GoldenSlot& slot);
  void resolve(CheckpointSlot& slot);
  const util::Bytes& app_state(GoldenSlot& slot);

  const ExperimentPlan& plan_;
  const EngineOptions options_;
  std::unique_ptr<core::CheckpointStore> store_;
  std::vector<CellKeys> cell_keys_;
  std::vector<std::size_t> schedule_;
  std::vector<GoldenSlot> goldens_;
  std::vector<CheckpointSlot> checkpoints_;
};

}  // namespace ffis::exp
