#include "ffis/exp/engine.hpp"

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ffis/exp/collector.hpp"
#include "ffis/exp/prepare.hpp"
#include "ffis/util/thread_pool.hpp"

namespace ffis::exp {

ExperimentReport Engine::run(const ExperimentPlan& plan) {
  NullSink sink;
  return run(plan, sink);
}

ExperimentReport Engine::run(const ExperimentPlan& plan, ResultSink& sink) {
  cancel_.store(false, std::memory_order_relaxed);

  const auto& cells = plan.cells();
  const std::size_t n_cells = cells.size();

  sink.begin(plan);

  CellPreparer preparer(plan, options_);
  util::ThreadPool pool(options_.threads);

  // --- Phases 1-2: golden runs, checkpoints and the per-cell profiling pass,
  // one task per cell; each golden / checkpoint key resolves exactly once.
  std::vector<PreparedCell> prepared(n_cells);
  util::parallel_for(pool, n_cells, [&](std::size_t s) {
    const std::size_t i = preparer.schedule()[s];
    if (cancel_requested()) {
      prepared[i].error = "cancelled before the cell was prepared";
      return;
    }
    prepared[i] = preparer.prepare(i);
  });

  // --- Phase 3: every injection run from every cell on the shared pool. -----
  // Runs land in the collector, which folds each cell in run order the
  // moment its last run retires and streams it to the sink in plan order.
  CellCollector collector(plan, sink, options_.keep_details);
  std::vector<std::pair<std::size_t, std::uint64_t>> tasks;  // (cell, run)
  for (std::size_t i = 0; i < n_cells; ++i) {
    collector.report().cells[i].checkpoint_cached = prepared[i].checkpoint_cached;
    collector.set_facts(i, prepared[i]);  // a preparation error finalizes now
    if (!prepared[i].error.empty()) continue;
    for (std::uint64_t r = 0; r < cells[i].runs; ++r) tasks.emplace_back(i, r);
  }

  // Progress totals count only runnable runs (cells that failed to prepare
  // contribute none), so (done == total) reliably marks completion.
  std::mutex emit_mutex;
  std::atomic<std::uint64_t> done{0};
  util::parallel_for(pool, tasks.size(), [&](std::size_t t) {
    const auto [i, r] = tasks[t];
    std::optional<core::RunResult> run;
    std::string error;
    bool skipped = false;
    if (!cancel_requested()) {
      try {
        run = execute_run(prepared[i], r);
        // The run of its instance that executed fills this slot as it lands.
        skipped = !run;
      } catch (const std::exception& e) {
        // Execution already converts application failures to Crash outcomes
        // internally, so an exception here is harness infrastructure (e.g.
        // bad_alloc).  Surface it as a cell error, not as a science outcome.
        error = "run " + std::to_string(r) + " failed: " + e.what();
      }
      const std::uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.progress) options_.progress(d, tasks.size());
    }
    if (skipped) return;
    std::lock_guard lock(emit_mutex);
    if (run) {
      collector.land(i, r, std::move(*run));
    } else {
      collector.retire(i, r, error);
    }
  });

  ExperimentReport report = collector.finish();
  for (const CellResult& cell : report.cells) {
    if (cell.golden_cached) ++report.golden_cache_hits;
    if (cell.checkpoint_cached) ++report.checkpoint_cache_hits;
  }
  preparer.add_totals(report);
  report.cancelled = cancel_requested();
  sink.end(report);
  return report;
}

ExperimentReport reference_run(const ExperimentPlan& plan) {
  ExperimentReport report;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    CellResult& out = report.cells.emplace_back();
    out.index = i;
    out.cell = plan.cells()[i];
    try {
      const faults::FaultGenerator generator = fault_generator(out.cell);
      core::FaultInjector injector(*out.cell.app, generator.signature(),
                                   out.cell.app_seed(), out.cell.stage);
      injector.set_diff_classification(false);
      injector.prepare();
      out.primitive_count = injector.primitive_count();
      for (std::uint64_t r = 0; r < out.cell.runs; ++r) {
        out.add_run(out.details.emplace_back(injector.execute(generator.run_seed(r))));
      }
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    report.add_cell(out);
  }
  return report;
}

}  // namespace ffis::exp
