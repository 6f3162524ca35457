#pragma once
// Declarative experiment plans.  The paper's results are grids of campaigns
// — (application x fault model x injection stage) cells with a fixed sample
// size per cell — so instead of hand-rolling one loop per table or figure,
// callers describe the whole grid once and hand it to exp::Engine:
//
//   auto plan = exp::PlanBuilder()
//                   .runs(1000).seed(42)
//                   .apps({nyx, qmc}).faults({"BF", "SW", "DW"})
//                   .build();
//
// PlanBuilder accumulates cross-product "grid blocks" (apps x faults x
// stages, flushed by product() or by build()) plus explicit cell() entries,
// and validates the result: a plan is never empty, never contains a
// duplicate cell, never has a zero sample size, and every fault signature
// parses.  ExperimentPlan itself is immutable.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ffis/core/application.hpp"

namespace ffis::exp {

/// One campaign cell: `runs` injections of `fault` into `app`, scoped to
/// `stage` (-1 = whole run), seeded by `seed`: the application seed is
/// `seed ^ 0x5eed` and the seed of run r is faults::run_seed(seed, r).
struct Cell {
  const core::Application* app = nullptr;  ///< non-owning; must outlive the run
  std::string fault;                       ///< fault signature text ("BF", "BIT_FLIP@pwrite{width=2}", ...)
  int stage = -1;                          ///< 1-based instrumented stage, -1 = whole run
  std::uint64_t runs = 0;
  std::uint64_t seed = 0xff15;
  std::string label;                       ///< display name; auto-generated when empty

  /// Application seed shared by every run of this cell (and by the golden
  /// run, which is what makes goldens cacheable across cells).
  [[nodiscard]] std::uint64_t app_seed() const noexcept { return seed ^ 0x5eedULL; }
};

class ExperimentPlan {
 public:
  [[nodiscard]] const std::vector<Cell>& cells() const noexcept { return cells_; }
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] std::uint64_t total_runs() const noexcept;

 private:
  friend class PlanBuilder;
  ExperimentPlan() = default;

  std::vector<Cell> cells_;
  /// Keep-alive for applications handed over as shared_ptr.
  std::vector<std::shared_ptr<const core::Application>> owned_apps_;
};

/// Fluent builder.  Grid setters (apps/faults/stages) stage a cross product
/// that product() — or build(), implicitly — flushes into cells; runs/seed/
/// label_with persist across blocks.  All methods return *this for chaining.
class PlanBuilder {
 public:
  using Labeler = std::function<std::string(const Cell&)>;

  PlanBuilder& runs(std::uint64_t n);
  PlanBuilder& seed(std::uint64_t s);

  /// Custom label generator applied to every cell whose label is empty.
  PlanBuilder& label_with(Labeler fn);

  // --- grid block -----------------------------------------------------------
  PlanBuilder& apps(std::vector<const core::Application*> apps);
  PlanBuilder& app(const core::Application& a);
  /// Shared-ptr overload: the plan keeps the application alive.
  PlanBuilder& app(std::shared_ptr<const core::Application> a);
  /// Keep-alive only (for applications referenced by explicit cell() calls).
  PlanBuilder& own(std::shared_ptr<const core::Application> a);
  PlanBuilder& faults(std::vector<std::string> faults);
  PlanBuilder& fault(std::string f);
  /// Inclusive stage range (e.g. stages(1, 4) for Montage MT1..MT4).
  PlanBuilder& stages(int first, int last);
  PlanBuilder& stage(int s);
  /// Flushes the staged apps x faults x stages cross product into cells
  /// (iteration order: faults outermost, then apps, then stages) and clears
  /// the grid for the next block.  Throws if apps or faults is empty.
  PlanBuilder& product();

  // --- explicit cells -------------------------------------------------------
  /// Adds one cell using the builder's current runs/seed; `label` empty means
  /// auto-generate at build time.
  PlanBuilder& cell(const core::Application& a, std::string fault, int stage = -1,
                    std::string label = {});
  PlanBuilder& cell(Cell c);

  /// Flushes any pending grid, validates, and returns the immutable plan.
  /// Throws std::invalid_argument for an empty plan, a cell with runs == 0,
  /// an unparsable fault signature, or two cells with identical
  /// (app, fault, stage, seed).
  [[nodiscard]] ExperimentPlan build();

 private:
  void flush_grid_if_pending();

  std::uint64_t runs_ = 1000;  // paper default sample size
  std::uint64_t seed_ = 0xff15;
  Labeler labeler_;
  std::vector<const core::Application*> grid_apps_;
  std::vector<std::string> grid_faults_;
  std::vector<int> grid_stages_{-1};
  std::vector<Cell> cells_;
  std::vector<std::shared_ptr<const core::Application>> owned_apps_;
};

/// Default label: upper-cased application name, the stage number when one is
/// set, then the fault text — e.g. "NYX-BF", "MONTAGE3-SHORN_WRITE@pwrite".
[[nodiscard]] std::string default_cell_label(const Cell& cell);

/// How the runs of `cell` group by the fault instance they draw (core::draw
/// over the cell's profiled `primitive_count`).  Whether an instance's fault
/// draws a feature depends on the instance alone, so these groups are what
/// run replay (exp::CellCollector) fills and labels.
struct InstanceRuns {
  /// Per run: its instance's leader, the lowest-index run drawing it.
  std::vector<std::uint64_t> leader;
  /// Per run: the next run drawing the same instance, or `cell.runs` after
  /// the last.
  std::vector<std::uint64_t> next;
};
[[nodiscard]] InstanceRuns instance_runs(const Cell& cell, std::uint64_t primitive_count);

}  // namespace ffis::exp
