#include "ffis/exp/engine.hpp"

#include <atomic>
#include <mutex>
#include <vector>

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

  ExperimentReport report;
  report.cells.resize(n_cells);

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
  for (std::size_t i = 0; i < n_cells; ++i) {
    CellResult& out = report.cells[i];
    out.golden_cached = prepared[i].golden_cached;
    out.checkpointed = prepared[i].checkpointed;
    out.checkpoint_cached = prepared[i].checkpoint_cached;
    out.checkpoint_loaded = prepared[i].checkpoint_loaded;
    out.primitive_count = prepared[i].primitive_count;
    if (out.golden_cached) ++report.golden_cache_hits;
    if (out.checkpoint_cached) ++report.checkpoint_cache_hits;
  }

  // --- Phase 3: every injection run from every cell on the shared pool. -----
  // Results land in per-index slots and are tallied in run order, so tallies
  // are independent of scheduling.  Cells are finalized the moment their
  // last run retires and streamed to the sink in plan order.
  std::vector<std::vector<core::RunResult>> slots(n_cells);
  std::vector<std::vector<char>> executed(n_cells);
  std::vector<std::atomic<std::uint64_t>> remaining(n_cells);
  std::vector<std::size_t> flat_cell;       // flat task index -> cell
  std::vector<std::uint64_t> flat_run;      // flat task index -> run within cell
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (!prepared[i].error.empty()) {
      remaining[i].store(0, std::memory_order_relaxed);
      continue;
    }
    slots[i].resize(cells[i].runs);
    executed[i].assign(cells[i].runs, 0);
    remaining[i].store(cells[i].runs, std::memory_order_relaxed);
    for (std::uint64_t r = 0; r < cells[i].runs; ++r) {
      flat_cell.push_back(i);
      flat_run.push_back(r);
    }
  }

  std::mutex emit_mutex;
  std::size_t next_emit = 0;
  std::vector<char> ready(n_cells, 0);

  const auto finalize_cell = [&](std::size_t i) {
    CellResult& out = report.cells[i];
    out.index = i;
    out.cell = cells[i];
    out.error = prepared[i].error;
    for (std::size_t r = 0; r < slots[i].size(); ++r) {
      if (executed[i][r] != 0) out.add_run(slots[i][r]);
    }
    if (options_.keep_details) {
      // On cancellation the executed runs need not be a prefix of the slot
      // array; keep exactly the executed ones, in run order.
      out.details.reserve(out.runs_completed);
      for (std::size_t r = 0; r < slots[i].size(); ++r) {
        if (executed[i][r] != 0) out.details.push_back(std::move(slots[i][r]));
      }
    }
    slots[i].clear();
    slots[i].shrink_to_fit();
    ready[i] = 1;
  };

  const auto emit_in_order = [&] {
    while (next_emit < n_cells && ready[next_emit] != 0) {
      sink.cell(report.cells[next_emit]);
      ++next_emit;
    }
  };

  // Cells that never reached phase 3 (errors) are final already.
  {
    std::lock_guard lock(emit_mutex);
    for (std::size_t i = 0; i < n_cells; ++i) {
      if (!prepared[i].error.empty()) finalize_cell(i);
    }
    emit_in_order();
  }

  // Progress totals count only runnable runs (cells that failed to prepare
  // contribute none), so (done == total) reliably marks completion.
  const std::uint64_t runnable_runs = flat_cell.size();
  std::atomic<std::uint64_t> done{0};
  util::parallel_for(pool, flat_cell.size(), [&](std::size_t t) {
    const std::size_t i = flat_cell[t];
    const std::uint64_t r = flat_run[t];
    if (!cancel_requested()) {
      try {
        slots[i][r] = prepared[i].injector->execute(prepared[i].generator->run_seed(r));
        executed[i][r] = 1;
      } catch (const std::exception& e) {
        // execute() already converts application failures to Crash outcomes
        // internally, so an exception here is harness infrastructure (e.g.
        // bad_alloc).  Surface it as a cell error, not as a science outcome.
        std::lock_guard lock(emit_mutex);
        if (prepared[i].error.empty()) {
          prepared[i].error = std::string("run ") + std::to_string(r) + " failed: " + e.what();
        }
      }
      const std::uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.progress) options_.progress(d, runnable_runs);
    }
    if (remaining[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(emit_mutex);
      finalize_cell(i);
      emit_in_order();
    }
  });

  // Safety net: everything must have been streamed by now.
  {
    std::lock_guard lock(emit_mutex);
    for (std::size_t i = 0; i < n_cells; ++i) {
      if (ready[i] == 0) finalize_cell(i);
    }
    emit_in_order();
  }

  for (const auto& cell : report.cells) report.add_cell(cell);
  preparer.add_totals(report);
  report.cancelled = cancel_requested();
  sink.end(report);
  return report;
}

}  // namespace ffis::exp
