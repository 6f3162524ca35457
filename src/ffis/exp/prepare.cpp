#include "ffis/exp/prepare.hpp"

#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"

namespace ffis::exp {

struct CellPreparer::GoldenSlot {
  const core::Application* app = nullptr;
  std::uint64_t app_seed = 0;
  /// Some cell of the key takes the prepare_with_golden path and diffs
  /// against the golden output tree.  Checkpointed cells diff against trees
  /// grown from their checkpoint instead, so an all-checkpointed key would
  /// otherwise pin a multi-MiB MemFs for nothing.
  bool tree_needed = false;

  std::once_flag once;
  core::CheckpointStore::Lease lease;
  std::shared_ptr<const core::AnalysisResult> result;
  std::shared_ptr<const vfs::MemFs> tree;
  std::string error;
  bool loaded = false;     ///< served from the persistent store, not executed
  bool persisted = false;  ///< freshly written to the persistent store

  /// serialize_state is stage-independent (it captures the app's per-seed
  /// caches), so one blob serves every checkpoint key of the (app, app_seed)
  /// pair instead of re-encoding a multi-MiB field per stage.
  std::once_flag state_once;
  util::Bytes state;
};

struct CellPreparer::CheckpointSlot {
  std::size_t golden = 0;  ///< the key's (app, app_seed) slot
  int stage = 0;

  std::once_flag once;
  core::CheckpointStore::Lease lease;
  std::shared_ptr<const core::Checkpoint> checkpoint;  ///< null: classic path
  /// Golden output tree grown from this checkpoint, shared by every cell of
  /// the key.
  std::shared_ptr<const vfs::MemFs> golden_tree;
  bool loaded = false;     ///< served from the persistent store, prefix never ran
  bool persisted = false;  ///< freshly written (or upgraded) in the store
};

CellPreparer::CellPreparer(const ExperimentPlan& plan, EngineOptions options)
    : plan_(plan), options_(std::move(options)) {
  if (!options_.checkpoint_dir.empty()) {
    core::CheckpointStore::Options store_options;
    store_options.budget_bytes = options_.checkpoint_budget;
    store_ = std::make_unique<core::CheckpointStore>(options_.checkpoint_dir,
                                                     store_options);
  }

  const auto& cells = plan_.cells();
  using GoldenKey = std::pair<const core::Application*, std::uint64_t>;
  using CheckpointKey = std::tuple<const core::Application*, std::uint64_t, int>;
  std::map<GoldenKey, std::size_t> golden_index;
  std::map<CheckpointKey, std::size_t> checkpoint_index;
  std::vector<std::size_t> rest;
  cell_keys_.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    CellKeys& keys = cell_keys_[i];
    const auto [g, new_golden] =
        golden_index.emplace(GoldenKey{c.app, c.app_seed()}, golden_index.size());
    keys.golden = g->second;
    keys.shares_golden = !new_golden;
    bool owner = new_golden;
    if (c.stage >= 1 && c.app->stage_count() >= c.stage) {
      const auto [k, new_checkpoint] = checkpoint_index.emplace(
          CheckpointKey{c.app, c.app_seed(), c.stage}, checkpoint_index.size());
      keys.checkpoint = k->second;
      keys.shares_checkpoint = !new_checkpoint;
      owner = owner || new_checkpoint;
    }
    (owner ? schedule_ : rest).push_back(i);
  }
  schedule_.insert(schedule_.end(), rest.begin(), rest.end());

  // std::once_flag pins each slot in place: size the vectors once, never grow.
  goldens_ = std::vector<GoldenSlot>(golden_index.size());
  for (const auto& [key, g] : golden_index) {
    goldens_[g].app = key.first;
    goldens_[g].app_seed = key.second;
  }
  checkpoints_ = std::vector<CheckpointSlot>(checkpoint_index.size());
  for (const auto& [key, k] : checkpoint_index) {
    const auto& [app, app_seed, stage] = key;
    checkpoints_[k].golden = golden_index.at(GoldenKey{app, app_seed});
    checkpoints_[k].stage = stage;
  }
  for (const CellKeys& keys : cell_keys_) {
    if (keys.checkpoint == kNoCheckpoint) goldens_[keys.golden].tree_needed = true;
  }
}

CellPreparer::~CellPreparer() = default;

CellPreparer::GoldenSlot& CellPreparer::resolved_golden(std::size_t g) {
  GoldenSlot& slot = goldens_[g];
  std::call_once(slot.once, [&] { resolve(slot); });
  return slot;
}

CellPreparer::CheckpointSlot& CellPreparer::resolved_checkpoint(std::size_t k) {
  CheckpointSlot& slot = checkpoints_[k];
  std::call_once(slot.once, [&] { resolve(slot); });
  return slot;
}

const util::Bytes& CellPreparer::app_state(GoldenSlot& slot) {
  std::call_once(slot.state_once,
                 [&] { slot.state = slot.app->serialize_state(slot.app_seed); });
  return slot.state;
}

void CellPreparer::resolve(GoldenSlot& slot) {
  const vfs::MemFs::Options& fs_options = options_.fs_options;
  const auto key = store_ ? core::CheckpointStore::Key::of(*slot.app, slot.app_seed, -1,
                                                           fs_options)
                          : core::CheckpointStore::Key{};
  if (store_) {
    // The lease pins the entry against LRU eviction (a tight budget, or
    // another engine or worker sharing the directory) from before the load
    // until the preparer dies — eviction can never pull an entry out from
    // under a live cell, or out of a load-miss -> rebuild -> save window.
    slot.lease = store_->lease(key);
    // An entry missing a tree this plan needs is a miss: falling back to
    // it would cost an extra full run later, in prepare_with_golden.
    if (auto loaded = store_->load_golden(key, fs_options, slot.tree_needed)) {
      if (!slot.tree_needed || loaded->tree != nullptr) {
        slot.result = std::move(loaded->analysis);
        slot.tree = std::move(loaded->tree);
        slot.loaded = true;
        return;
      }
    }
  }
  try {
    // With a store active, always retain the output tree: the golden run
    // materializes it for free, and persisting it is what lets a later
    // process diff-classify without ever executing the workload.
    const bool retain_tree =
        slot.tree_needed || (store_ != nullptr && !key.app_fingerprint.empty());
    slot.result = std::make_shared<const core::AnalysisResult>(core::FaultInjector::run_golden(
        *slot.app, slot.app_seed, retain_tree ? &slot.tree : nullptr, fs_options));
    if (store_ && store_->save_golden(key, *slot.result, slot.tree.get())) {
      slot.persisted = true;
    }
    if (!slot.tree_needed) slot.tree.reset();
  } catch (const std::exception& e) {
    slot.error = std::string("golden run failed: ") + e.what();
  }
}

void CellPreparer::resolve(CheckpointSlot& slot) {
  GoldenSlot& gold = goldens_[slot.golden];
  const core::Application& app = *gold.app;
  const std::uint64_t app_seed = gold.app_seed;
  const vfs::MemFs::Options& fs_options = options_.fs_options;
  const auto key = store_ ? core::CheckpointStore::Key::of(app, app_seed, slot.stage,
                                                           fs_options)
                          : core::CheckpointStore::Key{};
  if (store_) {
    slot.lease = store_->lease(key);
    // A valid entry skips the prefix execution entirely.  It carries the
    // application's serialized in-memory state (restore failure is
    // harmless — run_from recomputes lazily) and the golden output tree
    // still chunk-shared with the snapshot, so diff_tree keeps its
    // pointer-equality fast path on the warm path.
    if (auto loaded = store_->load_checkpoint(key, fs_options)) {
      if (!loaded->app_state.empty()) (void)app.restore_state(app_seed, loaded->app_state);
      try {
        if (loaded->golden_tree == nullptr) {
          // Entry saved without a golden tree: grow the tree from the loaded
          // snapshot (suffix-only, no prefix stages) and write the upgraded
          // entry back, so the next warm process skips even this.
          loaded->golden_tree = loaded->checkpoint->grow_golden_tree(app, app_seed);
          slot.persisted = store_->save_checkpoint(key, *loaded->checkpoint,
                                                   loaded->golden_tree.get(),
                                                   app_state(gold));
        }
        slot.checkpoint = std::move(loaded->checkpoint);
        slot.golden_tree = std::move(loaded->golden_tree);
        slot.loaded = true;
        return;
      } catch (const std::exception&) {
        // The upgrade failed: capture afresh below.
      }
    }
  }
  try {
    auto checkpoint = core::Checkpoint::capture(app, app_seed, slot.stage, fs_options);
    // One golden output tree per checkpoint key, shared by all of the key's
    // cells (the injector would otherwise grow one per cell).
    slot.golden_tree = checkpoint->grow_golden_tree(app, app_seed);
    slot.checkpoint = std::move(checkpoint);
    if (store_ && store_->save_checkpoint(key, *slot.checkpoint, slot.golden_tree.get(),
                                          app_state(gold))) {
      slot.persisted = true;
    }
  } catch (const std::exception&) {
    // The prefix is a strict subset of the golden run, which succeeded; a
    // capture failure is therefore unreachable for a deterministic app.
    // Without a checkpoint the cell falls back to the classic path, whose
    // own profiling run reports the failure faithfully.
  }
}

PreparedCell CellPreparer::prepare(std::size_t index) {
  const Cell& cell = plan_.cells()[index];
  const CellKeys& keys = cell_keys_[index];
  PreparedCell out;
  const GoldenSlot& gold = resolved_golden(keys.golden);
  if (!gold.error.empty()) {
    out.error = gold.error;
    return out;
  }
  out.golden_cached = keys.shares_golden;
  const CheckpointSlot* cp = nullptr;
  if (keys.checkpoint != kNoCheckpoint) {
    const CheckpointSlot& slot = resolved_checkpoint(keys.checkpoint);
    if (slot.checkpoint != nullptr) {  // else the capture failed: classic path
      cp = &slot;
      out.checkpoint_cached = keys.shares_checkpoint;
    }
  }
  try {
    out.generator = std::make_unique<faults::FaultGenerator>(fault_generator(cell));
    out.injector = std::make_unique<core::FaultInjector>(
        *cell.app, out.generator->signature(), cell.app_seed(), cell.stage);
    out.injector->set_fs_options(options_.fs_options);
    out.injector->set_force_block_device(options_.force_block_device);
    if (cp != nullptr) {
      out.injector->prepare_with_checkpoint(gold.result, cp->checkpoint, cp->golden_tree);
      out.checkpointed = true;
      out.checkpoint_loaded = cp->loaded;
    } else {
      out.injector->prepare_with_golden(gold.result, gold.tree);
    }
    out.primitive_count = out.injector->primitive_count();
    out.feature_free = std::vector<std::atomic<bool>>(out.primitive_count);
  } catch (const std::exception& e) {
    out.error = e.what();
    out.generator.reset();
    out.injector.reset();
  }
  return out;
}

faults::FaultGenerator fault_generator(const Cell& cell) {
  faults::CampaignConfig config;
  config.application = cell.app->name();
  config.fault = cell.fault;
  config.runs = cell.runs;
  config.seed = cell.seed;
  config.stage = cell.stage;
  return faults::FaultGenerator(std::move(config));
}

std::optional<core::RunResult> execute_run(PreparedCell& cell, std::uint64_t run) {
  const core::RunDraw draw = cell.injector->draw(cell.generator->run_seed(run));
  if (auto synthesized = cell.injector->synthesize(draw)) return synthesized;
  std::atomic<bool>& feature_free = cell.feature_free[draw.instance];
  if (feature_free.load(std::memory_order_relaxed)) return std::nullopt;
  core::RunResult result = cell.injector->execute_at(draw.instance, draw.feature_seed);
  if (!result.record.features_drawn) feature_free.store(true, std::memory_order_relaxed);
  return result;
}

void CellPreparer::add_totals(ExperimentReport& report) const {
  for (const GoldenSlot& slot : goldens_) {
    if (slot.result == nullptr) continue;
    ++(slot.loaded ? report.goldens_loaded : report.golden_executions);
    if (slot.persisted) ++report.goldens_persisted;
  }
  for (const CheckpointSlot& slot : checkpoints_) {
    if (slot.checkpoint == nullptr) continue;
    ++(slot.loaded ? report.checkpoints_loaded : report.checkpoint_builds);
    if (slot.persisted) ++report.checkpoints_persisted;
    report.checkpoint_bytes += slot.checkpoint->stored_bytes();
    report.checkpoint_chunks += slot.checkpoint->allocated_chunks();
  }
  if (store_) {
    const core::CheckpointStore::Stats stats = store_->stats();
    report.store_hits = stats.hits;
    report.store_misses = stats.misses;
    report.store_evictions = stats.evictions;
    report.store_bytes_evicted = stats.bytes_evicted;
    report.store_gc_runs = stats.gc_runs;
  }
}

}  // namespace ffis::exp
