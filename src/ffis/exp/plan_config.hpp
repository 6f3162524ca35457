#pragma once
// Text-format experiment plans for the CLI (`ffis plan <config>`): the same
// "key = value" dialect as single-campaign configs, extended to many cells.
//
//   # Defaults for every cell, plus engine/sink settings, come first:
//   runs = 200            # sample size per cell
//   seed = 42             # campaign seed per cell
//   threads = 0           # engine workers; 0 = all hardware threads
//   csv = results.csv     # optional: stream cells to a CSV file
//   jsonl = results.jsonl # optional: stream cells to a JSON-lines file
//   checkpoint_dir = .ffis-checkpoints  # optional: persistent checkpoint
//                         # store shared across invocations (warm starts
//                         # skip the fault-free prefix entirely)
//   checkpoint_budget = 268435456  # optional: store size budget in bytes;
//                         # over it, least-recently-used entries are evicted
//                         # (0 = unbounded, the default)
//   unit_timeout_ms = 0   # optional: distributed serving only — re-queue a
//                         # granted unit after this long without completion
//                         # (0 = re-grant on disconnect only)
//   application = nyx     # cells inherit any campaign key set here
//
//   # Each [cell] header starts one cell; its lines override the defaults.
//   [cell]
//   fault = BIT_FLIP@pwrite{width=2}
//   label = NYX-BF        # optional display label
//
//   [cell]
//   application = montage
//   fault = DW
//   stage = 3             # Montage stage scoping, as in campaign configs
//
// Cells naming the same application with the same application-specific
// extras share ONE Application instance, so the engine's golden-run cache
// collapses their golden executions.

#include <cstdint>
#include <string>
#include <vector>

#include "ffis/exp/plan.hpp"
#include "ffis/faults/fault_generator.hpp"

namespace ffis::exp {

struct PlanConfig {
  /// Block 0 of the document, used to seed every cell.
  faults::CampaignConfig defaults;
  /// One fully-merged campaign config per [cell] block, in document order.
  std::vector<faults::CampaignConfig> cells;

  // Engine / sink settings (defaults block only).
  std::size_t threads = 0;
  std::string csv_path;    ///< empty = no CSV sink
  std::string jsonl_path;  ///< empty = no JSONL sink
  /// Persistent checkpoint store directory (EngineOptions::checkpoint_dir);
  /// empty = no cross-process caching.  The `--checkpoint-dir` CLI flag
  /// overrides it.
  std::string checkpoint_dir;
  /// Checkpoint store size budget in bytes (EngineOptions::checkpoint_budget);
  /// 0 = unbounded.  The `--checkpoint-budget` CLI flag overrides it.
  std::uint64_t checkpoint_budget = 0;
  /// Distributed serving only: re-queue a granted unit after this many
  /// milliseconds without completion (CoordinatorOptions::unit_timeout_ms);
  /// 0 = re-grant on disconnect only.  The `--unit-timeout` flag overrides it.
  std::uint64_t unit_timeout_ms = 0;
};

/// Parses a plan document.  Throws std::invalid_argument naming the line on
/// syntax errors, a number that is not plain decimal (e.g. `runs = -5`,
/// `runs = 12abc`, `stage = 2x`), runs = 0, or engine keys inside [cell]
/// blocks.
[[nodiscard]] PlanConfig parse_plan_config(const std::string& text);

/// Parses a single-campaign config (`ffis campaign | sweep | profile`): a
/// plan document's defaults block on its own, read by the same code with
/// the same checks; a [cell] header is an error.
[[nodiscard]] faults::CampaignConfig parse_campaign_config(const std::string& text);

/// Instantiates applications via apps::make_application (deduplicating
/// identical ones so goldens are shared) and assembles the immutable plan.
[[nodiscard]] ExperimentPlan build_plan(const PlanConfig& config);

}  // namespace ffis::exp
