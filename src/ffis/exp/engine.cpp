#include "ffis/exp/engine.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/util/thread_pool.hpp"

namespace ffis::exp {

namespace {

/// Key of the golden-run cache: the golden execution is fault-free, so it
/// depends only on which application runs and with which application seed —
/// never on the fault model or the instrumented stage.
using GoldenKey = std::pair<const core::Application*, std::uint64_t>;

struct GoldenSlot {
  std::shared_ptr<const core::AnalysisResult> result;
  /// The golden run's final output tree, kept only when diff-driven
  /// classification is on; shared by every non-checkpointed cell of the key
  /// (checkpointed cells grow their own from the checkpoint instead).
  std::shared_ptr<const vfs::MemFs> tree;
  std::string error;
  bool executed = false;   ///< result available (run this process or loaded)
  bool loaded = false;     ///< served from the persistent store, not executed
  bool persisted = false;  ///< freshly written to the persistent store
};

/// Key of the checkpoint cache: the fault-free prefix depends on which
/// application runs, its seed, and where the instrumented stage starts —
/// never on the fault model (faults cannot fire before their stage).
using CheckpointKey = std::tuple<const core::Application*, std::uint64_t, int>;

struct CheckpointSlot {
  std::shared_ptr<const core::Checkpoint> checkpoint;
  /// Golden output tree grown from this checkpoint (fork + fault-free
  /// resume), shared by every cell of the key — diff classification only.
  std::shared_ptr<const vfs::MemFs> golden_tree;
  bool captured = false;  ///< checkpoint available (captured or loaded)
  bool loaded = false;    ///< served from the persistent store, prefix never ran
};

inline constexpr std::size_t kNoCheckpoint = static_cast<std::size_t>(-1);

}  // namespace

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

  // The persistent tier (optional).  A bad directory is a configuration
  // error and throws here, before any work is queued.
  std::unique_ptr<core::CheckpointStore> store;
  if (!options_.checkpoint_dir.empty()) {
    core::CheckpointStore::Options store_options;
    store_options.budget_bytes = options_.checkpoint_budget;
    store = std::make_unique<core::CheckpointStore>(options_.checkpoint_dir,
                                                    store_options);
  }

  util::ThreadPool pool(options_.threads);

  // --- Phase 1: golden runs, deduplicated per (application, app_seed). ------
  std::map<GoldenKey, std::size_t> golden_index;
  std::vector<GoldenKey> golden_keys;
  std::vector<std::size_t> cell_golden(n_cells);
  std::vector<char> cell_shares_golden(n_cells, 0);
  for (std::size_t i = 0; i < n_cells; ++i) {
    const GoldenKey key{cells[i].app, cells[i].app_seed()};
    const auto [it, inserted] = golden_index.emplace(key, golden_keys.size());
    if (inserted) {
      golden_keys.push_back(key);
    } else {
      cell_shares_golden[i] = 1;
    }
    cell_golden[i] = it->second;
  }

  // Which golden keys actually need the output *tree* retained: only cells
  // that will take the prepare_with_golden path diff against it — cells on
  // the checkpoint path grow a fork-derived tree from their checkpoint
  // instead, so an all-checkpointed key would otherwise pin a multi-MiB
  // MemFs for nothing.
  std::vector<char> golden_tree_needed(golden_keys.size(), 0);
  if (options_.use_diff_classification) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      const Cell& c = cells[i];
      const bool checkpoint_eligible =
          options_.use_checkpoints && c.stage >= 1 && c.app->stage_count() >= c.stage;
      if (!checkpoint_eligible) golden_tree_needed[cell_golden[i]] = 1;
    }
  }

  std::vector<GoldenSlot> goldens(golden_keys.size());
  // Leases pin the plan's store entries against LRU eviction (a tight
  // checkpoint_budget, or another engine sharing the directory) from before
  // the first load until run() returns — eviction can never pull an entry
  // out from under a live cell, or out of a load-miss → rebuild → save
  // window.  One slot per key, written only by that key's worker.
  std::vector<core::CheckpointStore::Lease> golden_leases(golden_keys.size());
  util::parallel_for(pool, golden_keys.size(), [&](std::size_t g) {
    if (cancel_requested()) {
      goldens[g].error = "cancelled before the golden run";
      return;
    }
    const core::Application& app = *golden_keys[g].first;
    const std::uint64_t app_seed = golden_keys[g].second;
    const auto key = store ? core::CheckpointStore::Key::of(app, app_seed, -1,
                                                            options_.fs_options)
                           : core::CheckpointStore::Key{};
    if (store) {
      golden_leases[g] = store->lease(key);  // key.stage is already -1
    }
    if (store) {
      // Disk tier first: a valid entry replaces the whole golden execution.
      // The tree is decoded only when some cell will diff against it
      // (all-checkpointed keys diff against checkpoint-grown trees); an
      // entry missing a tree that this plan needs is treated as a miss
      // (falling back to run_golden would otherwise cost an extra full run
      // later, in prepare_with_golden).
      const bool tree_needed = golden_tree_needed[g] != 0;
      if (auto loaded = store->load_golden(key, options_.fs_options, tree_needed)) {
        if (!tree_needed || loaded->tree != nullptr) {
          goldens[g].result = std::move(loaded->analysis);
          goldens[g].tree = std::move(loaded->tree);
          goldens[g].executed = true;
          goldens[g].loaded = true;
          return;
        }
      }
    }
    try {
      // With a store active, always retain the output tree: the golden run
      // materializes it for free, and persisting it is what lets a later
      // process diff-classify without ever executing the workload.
      const bool retain_tree = golden_tree_needed[g] != 0 ||
                               (store != nullptr && !key.app_fingerprint.empty());
      goldens[g].result = std::make_shared<const core::AnalysisResult>(
          core::FaultInjector::run_golden(app, app_seed,
                                          retain_tree ? &goldens[g].tree : nullptr,
                                          options_.fs_options));
      goldens[g].executed = true;
      if (store && store->save_golden(key, *goldens[g].result, goldens[g].tree.get())) {
        goldens[g].persisted = true;
      }
      // The tree was retained only to persist it; drop it unless a cell
      // actually diffs against it.
      if (golden_tree_needed[g] == 0) goldens[g].tree.reset();
    } catch (const std::exception& e) {
      goldens[g].error = std::string("golden run failed: ") + e.what();
    }
  });
  for (const auto& g : goldens) {
    if (!g.executed) continue;
    if (g.loaded) ++report.goldens_loaded;
    if (!g.loaded) ++report.golden_executions;
    if (g.persisted) ++report.goldens_persisted;
  }
  // A cell is a cache hit only when the shared golden actually succeeded.
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (cell_shares_golden[i] != 0 && goldens[cell_golden[i]].executed) {
      report.cells[i].golden_cached = true;
      ++report.golden_cache_hits;
    }
  }

  // --- Phase 2a: pre-fault checkpoints, deduplicated per (app, app_seed,
  // stage).  Only stage-instrumented cells of stage-resumable applications
  // participate; everything else keeps the classic full-run path.
  std::map<CheckpointKey, std::size_t> checkpoint_index;
  std::vector<CheckpointKey> checkpoint_keys;
  std::vector<std::size_t> cell_checkpoint(n_cells, kNoCheckpoint);
  std::vector<char> cell_shares_checkpoint(n_cells, 0);
  if (options_.use_checkpoints) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      const Cell& c = cells[i];
      if (c.stage < 1 || c.app->stage_count() < c.stage) continue;
      if (!goldens[cell_golden[i]].error.empty()) continue;  // cell errors anyway
      const CheckpointKey key{c.app, c.app_seed(), c.stage};
      const auto [it, inserted] = checkpoint_index.emplace(key, checkpoint_keys.size());
      if (inserted) {
        checkpoint_keys.push_back(key);
      } else {
        cell_shares_checkpoint[i] = 1;
      }
      cell_checkpoint[i] = it->second;
    }
  }

  std::vector<CheckpointSlot> checkpoints(checkpoint_keys.size());
  std::vector<char> checkpoint_persisted(checkpoint_keys.size(), 0);
  // serialize_state is stage-independent (it captures the app's per-seed
  // caches), so one blob serves every checkpoint key of an (app, app_seed)
  // pair — memoized here instead of re-encoding a multi-MiB field per stage.
  std::map<GoldenKey, std::pair<std::once_flag, util::Bytes>> app_state_blobs;
  std::mutex app_state_mutex;
  const auto app_state_for = [&](const core::Application* app,
                                 std::uint64_t app_seed) -> const util::Bytes& {
    std::pair<std::once_flag, util::Bytes>* slot;
    {
      std::lock_guard lock(app_state_mutex);
      slot = &app_state_blobs[GoldenKey{app, app_seed}];  // node-stable map
    }
    // The (potentially multi-MiB) encode runs outside the map lock, so
    // workers saving different apps' checkpoints don't convoy on it.
    std::call_once(slot->first, [&] { slot->second = app->serialize_state(app_seed); });
    return slot->second;
  };
  // Same pinning discipline as the golden phase (see golden_leases).
  std::vector<core::CheckpointStore::Lease> checkpoint_leases(checkpoint_keys.size());
  util::parallel_for(pool, checkpoint_keys.size(), [&](std::size_t k) {
    if (cancel_requested()) return;
    const auto& [app, app_seed, stage] = checkpoint_keys[k];
    const auto key = store ? core::CheckpointStore::Key::of(*app, app_seed, stage,
                                                            options_.fs_options)
                           : core::CheckpointStore::Key{};
    if (store) {
      checkpoint_leases[k] = store->lease(key);
    }
    if (store) {
      // Disk tier: a valid entry skips the prefix execution entirely.  The
      // saved blob carries the application's serialized in-memory state
      // (restore failure is harmless — run_from recomputes lazily) and the
      // golden output tree still chunk-shared with the snapshot, so
      // diff_tree keeps its pointer-equality fast path on the warm path.
      if (auto loaded = store->load_checkpoint(key, options_.fs_options,
                                               options_.use_diff_classification)) {
        if (!loaded->app_state.empty()) {
          (void)app->restore_state(app_seed, loaded->app_state);
        }
        checkpoints[k].checkpoint = std::move(loaded->checkpoint);
        checkpoints[k].golden_tree = std::move(loaded->golden_tree);
        if (options_.use_diff_classification && checkpoints[k].golden_tree == nullptr) {
          // Entry predates diff classification being on: grow the tree from
          // the loaded snapshot (suffix-only execution, no prefix stages)
          // and write the upgraded entry back, so the *next* warm process
          // skips even this suffix run instead of re-growing forever.
          try {
            checkpoints[k].golden_tree =
                checkpoints[k].checkpoint->grow_golden_tree(*app, app_seed);
            if (store->save_checkpoint(key, *checkpoints[k].checkpoint,
                                       checkpoints[k].golden_tree.get(),
                                       app_state_for(app, app_seed))) {
              checkpoint_persisted[k] = 1;
            }
          } catch (const std::exception&) {
            checkpoints[k].checkpoint.reset();
          }
        }
        if (checkpoints[k].checkpoint != nullptr) {
          checkpoints[k].captured = true;
          checkpoints[k].loaded = true;
          return;
        }
      }
    }
    try {
      checkpoints[k].checkpoint =
          core::Checkpoint::capture(*app, app_seed, stage, options_.fs_options);
      if (options_.use_diff_classification) {
        // One golden output tree per checkpoint key, shared by all of the
        // key's cells (the injector would otherwise grow one per cell).
        checkpoints[k].golden_tree =
            checkpoints[k].checkpoint->grow_golden_tree(*app, app_seed);
      }
      checkpoints[k].captured = true;
      if (store &&
          store->save_checkpoint(key, *checkpoints[k].checkpoint,
                                 checkpoints[k].golden_tree.get(),
                                 app_state_for(app, app_seed))) {
        checkpoint_persisted[k] = 1;
      }
    } catch (const std::exception&) {
      // The prefix is a strict subset of the golden run, which succeeded; a
      // capture failure is therefore unreachable for a deterministic app.
      // Leave the slot empty — the cell falls back to the classic path,
      // whose own profiling run reports the failure faithfully.
    }
  });
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    const CheckpointSlot& slot = checkpoints[k];
    if (!slot.captured) continue;
    if (slot.loaded) ++report.checkpoints_loaded;
    if (!slot.loaded) ++report.checkpoint_builds;
    if (checkpoint_persisted[k] != 0) ++report.checkpoints_persisted;
    report.checkpoint_bytes += slot.checkpoint->stored_bytes();
    report.checkpoint_chunks += slot.checkpoint->allocated_chunks();
  }
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (cell_checkpoint[i] != kNoCheckpoint && cell_shares_checkpoint[i] != 0 &&
        checkpoints[cell_checkpoint[i]].captured) {
      report.cells[i].checkpoint_cached = true;
      ++report.checkpoint_cache_hits;
    }
  }

  // --- Phase 2b: per-cell profiling pass (stage- and primitive-specific);
  // checkpointed cells fold it into an instrumented resume from the capture.
  std::vector<std::unique_ptr<faults::FaultGenerator>> generators(n_cells);
  std::vector<std::unique_ptr<core::FaultInjector>> injectors(n_cells);
  std::vector<std::string> cell_error(n_cells);
  util::parallel_for(pool, n_cells, [&](std::size_t i) {
    const GoldenSlot& golden = goldens[cell_golden[i]];
    if (!golden.error.empty()) {
      cell_error[i] = golden.error;
      return;
    }
    if (cancel_requested()) {
      cell_error[i] = "cancelled before the profiling run";
      return;
    }
    try {
      faults::CampaignConfig config;
      config.application = cells[i].app->name();
      config.fault = cells[i].fault;
      config.runs = cells[i].runs;
      config.seed = cells[i].seed;
      config.stage = cells[i].stage;
      generators[i] = std::make_unique<faults::FaultGenerator>(std::move(config));
      injectors[i] = std::make_unique<core::FaultInjector>(
          *cells[i].app, generators[i]->signature(), cells[i].app_seed(),
          cells[i].stage);
      injectors[i]->set_diff_classification(options_.use_diff_classification);
      injectors[i]->set_fs_options(options_.fs_options);
      injectors[i]->set_force_block_device(options_.force_block_device);
      const std::size_t cp = cell_checkpoint[i];
      if (cp != kNoCheckpoint && checkpoints[cp].captured) {
        injectors[i]->prepare_with_checkpoint(golden.result, checkpoints[cp].checkpoint,
                                              checkpoints[cp].golden_tree);
        report.cells[i].checkpointed = true;  // distinct i: no write contention
        report.cells[i].checkpoint_loaded = checkpoints[cp].loaded;
      } else {
        injectors[i]->prepare_with_golden(golden.result, golden.tree);
      }
    } catch (const std::exception& e) {
      cell_error[i] = e.what();
      injectors[i].reset();
    }
  });

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
    if (!cell_error[i].empty()) {
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
    out.error = cell_error[i];
    if (injectors[i]) out.primitive_count = injectors[i]->primitive_count();
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
      if (!cell_error[i].empty()) finalize_cell(i);
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
        slots[i][r] = injectors[i]->execute(generators[i]->run_seed(r));
        executed[i][r] = 1;
      } catch (const std::exception& e) {
        // execute() already converts application failures to Crash outcomes
        // internally, so an exception here is harness infrastructure (e.g.
        // bad_alloc).  Surface it as a cell error, not as a science outcome.
        std::lock_guard lock(emit_mutex);
        if (cell_error[i].empty()) {
          cell_error[i] = std::string("run ") + std::to_string(r) + " failed: " + e.what();
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
  if (store) {
    const core::CheckpointStore::Stats stats = store->stats();
    report.store_hits = stats.hits;
    report.store_misses = stats.misses;
    report.store_evictions = stats.evictions;
    report.store_bytes_evicted = stats.bytes_evicted;
    report.store_gc_runs = stats.gc_runs;
  }
  report.cancelled = cancel_requested();
  sink.end(report);
  return report;
}

}  // namespace ffis::exp
