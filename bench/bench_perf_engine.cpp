// Engine throughput benchmark: the execution fast path (checkpoint reuse)
// and the classification fast path (extent-diff outcome classification), on
// the stage-instrumented cells that dominate real campaigns:
//
//   * Montage MT3/MT4 — the stages with the most redundant prefix work;
//   * a 2-dump Nyx cell (stage 2 rewrites one slab of a multi-MB plotfile in
//     place), the workload the extent-based COW store exists for: every
//     checkpointed run forks the plotfile and must detach only the touched
//     extents, so cow_bytes_copied stays O(chunk) per run;
//   * a QMC DMC cell (stage 2), whose prefix is the whole VMC series.
//
// Three variants execute the identical plan in the same binary:
//   baseline      — full re-execution, full re-analysis per run
//   checkpointed  — COW fork + stage resume, full re-analysis per run
//   diff-class    — COW fork + stage resume + extent-diff classification
//                   (empty diff => Benign with no analysis; dirty diff =>
//                   Application::analyze_dirty over only the dirty ranges)
// All three must produce bit-identical tallies (asserted here, and
// exhaustively in tests/test_checkpoint.cpp).
//
// A separate *analysis-dominated* section measures what diff classification
// buys once checkpointing has removed execution cost: a 3-dump Nyx cell on a
// 96^3 field, where the classic path re-reads and re-decodes a ~7 MiB
// plotfile per run while the diff path splices only the dirty slab into the
// cached golden field.  The same cell also demonstrates adaptive per-file
// extent sizing (MemFs::Options::chunk_size_for): large extents for the bulk
// plotfile shrink chunk bookkeeping without changing semantics.
//
// An *arena* section re-runs the main plan with EngineOptions::use_arena
// off, isolating the slab-arena run-store recycling (one refcounted epoch
// per run vs one heap allocation per chunk); CI asserts the section exists
// and that runs_per_sec does not regress against the committed baseline.
//
// Results — including per-cell execute/analyze phase times, skipped-analysis
// counts, storage counters and the checkpoint cache's memory — are persisted
// to BENCH_perf.json (override with --json=PATH or FFIS_BENCH_JSON) so the
// perf trajectory is tracked across commits; CI fails when `speedup` drops
// below 2.0x.
//
//   FFIS_RUNS=N   injection runs per cell (default 300)
//   FFIS_SEED=S   campaign base seed (default 42)
//   FFIS_CHECKPOINT_DIR=DIR   additionally run the main plan against a
//       persistent checkpoint store at DIR: the first invocation populates
//       it, a second invocation warm-starts (zero prefix executions,
//       asserted) and BENCH_perf.json records the warm-start speedup under
//       "persistent_store"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/worker.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Records, per cell, how long after engine start the cell finished.
class TimingSink final : public ffis::exp::ResultSink {
 public:
  void begin(const ffis::exp::ExperimentPlan&) override { start_ = Clock::now(); }
  void cell(const ffis::exp::CellResult& result) override {
    completion_ms_.push_back(ms_since(start_));
    (void)result;
  }

  [[nodiscard]] const std::vector<double>& completion_ms() const { return completion_ms_; }

 private:
  Clock::time_point start_{};
  std::vector<double> completion_ms_;
};

struct VariantResult {
  ffis::exp::ExperimentReport report;
  std::vector<double> cell_completion_ms;
  double wall_ms = 0.0;
  double runs_per_sec = 0.0;
};

VariantResult run_variant(const ffis::exp::ExperimentPlan& plan,
                          const ffis::exp::EngineOptions& options) {
  ffis::exp::Engine engine(options);
  TimingSink sink;
  const auto start = Clock::now();
  VariantResult out;
  out.report = engine.run(plan, sink);
  out.wall_ms = ms_since(start);
  out.cell_completion_ms = sink.completion_ms();
  out.runs_per_sec = static_cast<double>(out.report.total_runs) / (out.wall_ms / 1000.0);
  for (const auto& cell : out.report.cells) {
    if (!cell.error.empty()) {
      throw std::runtime_error("cell " + cell.cell.label + " failed: " + cell.error);
    }
  }
  return out;
}

std::string variant_json(const VariantResult& v, std::size_t chunk_size) {
  std::vector<std::string> cells;
  for (std::size_t i = 0; i < v.report.cells.size(); ++i) {
    const auto& cell = v.report.cells[i];
    // `detected` stays the total (older tooling reads it); detected_io_error
    // and the table's detected_crc split it by detection channel — reported
    // syscall errors vs the block device's scrub rejecting a sector checksum.
    const std::uint64_t detected_total = cell.tally.count(ffis::core::Outcome::Detected);
    ffis::bench::JsonObject obj;
    obj.str("label", cell.cell.label)
        .num("stage", static_cast<std::uint64_t>(cell.cell.stage))
        .num("runs", cell.runs_completed)
        .num("benign", cell.tally.count(ffis::core::Outcome::Benign))
        .num("detected", detected_total)
        .num("detected_io_error", detected_total - std::min(cell.detected_crc, detected_total))
        .num("sdc", cell.tally.count(ffis::core::Outcome::Sdc))
        .num("crash", cell.tally.count(ffis::core::Outcome::Crash))
        .num("wall_ms_at_completion",
             i < v.cell_completion_ms.size() ? v.cell_completion_ms[i] : 0.0)
        .num("chunk_size", static_cast<std::uint64_t>(chunk_size))
        .raw("checkpointed", cell.checkpointed ? "true" : "false");
    cell.for_each_counter([&](const char* name, const auto& value) { obj.num(name, value); });
    cells.push_back(obj.render());
  }
  ffis::bench::JsonObject obj;
  obj.num("wall_ms", v.wall_ms)
      .num("runs_per_sec", v.runs_per_sec)
      .num("golden_executions", v.report.golden_executions)
      .num("golden_cache_hits", v.report.golden_cache_hits)
      .num("checkpoint_builds", v.report.checkpoint_builds)
      .num("checkpoint_cache_hits", v.report.checkpoint_cache_hits)
      .num("checkpoint_bytes", v.report.checkpoint_bytes)
      .num("checkpoint_chunks", v.report.checkpoint_chunks)
      .num("analyses_skipped", v.report.analyze_skipped)
      .num("arena_slabs_allocated", v.report.arena_slabs_allocated)
      .num("arena_bytes_recycled", v.report.arena_bytes_recycled)
      .raw("cells", ffis::bench::json_array(cells));
  return obj.render();
}

/// Runs `plan` on an in-process dist::Coordinator with `n_workers` worker
/// threads of one execution thread each — so "2 workers vs 1 worker" measures
/// fleet scaling, not thread-pool scaling.
VariantResult run_distributed_variant(const ffis::exp::ExperimentPlan& plan,
                                      const ffis::exp::EngineOptions& engine_options,
                                      std::size_t n_workers,
                                      std::uint64_t unit_runs) {
  ffis::dist::CoordinatorOptions options;
  options.unit_runs = unit_runs;
  options.engine = engine_options;
  ffis::dist::Coordinator coordinator(plan, options);
  const std::uint16_t port = coordinator.port();

  VariantResult out;
  const auto start = Clock::now();
  std::thread serve([&] { out.report = coordinator.run(); });
  std::vector<std::thread> fleet;
  fleet.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    fleet.emplace_back([&plan, port, i] {
      ffis::dist::WorkerOptions wo;
      wo.name = "bench-worker-" + std::to_string(i);
      wo.threads = 1;
      wo.plan = &plan;
      (void)ffis::dist::run_worker("127.0.0.1", port, wo);
    });
  }
  for (auto& t : fleet) t.join();
  serve.join();
  out.wall_ms = ms_since(start);
  out.runs_per_sec = static_cast<double>(out.report.total_runs) / (out.wall_ms / 1000.0);
  for (const auto& cell : out.report.cells) {
    if (!cell.error.empty()) {
      throw std::runtime_error("cell " + cell.cell.label + " failed: " + cell.error);
    }
  }
  return out;
}

void assert_identical_tallies(const VariantResult& a, const VariantResult& b,
                              const char* what) {
  for (std::size_t i = 0; i < a.report.cells.size(); ++i) {
    for (std::size_t o = 0; o < ffis::core::kOutcomeCount; ++o) {
      const auto outcome = static_cast<ffis::core::Outcome>(o);
      if (a.report.cells[i].tally.count(outcome) !=
          b.report.cells[i].tally.count(outcome)) {
        std::fprintf(stderr, "FATAL: tally mismatch in cell %zu — %s is not "
                             "equivalent\n", i, what);
        std::exit(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ffis;

  bench::print_header(
      "Engine throughput: checkpoint reuse + extent-diff classification",
      "harness performance (methodology §V: mount/unmount per run)");

  const std::uint64_t runs = bench::runs_per_cell(300);

  // A denser mosaic than the defaults — a 6x3 grid with 50 % overlap — so
  // the overlap-driven prefix stages (mDiffExec/mBgExec) carry realistic
  // weight relative to the final coadd.  MT3 and MT4 carry the largest
  // fault-free prefix (ingest + stages 1..2/3), so they bound the win.
  montage::MontageConfig montage_config;
  montage_config.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  montage_config.scene.tile_y0 = {0, 24, 48};
  montage::MontageApp montage(montage_config);

  // Nyx-dominated cell: 2 dumps over an 80^3 field, so the plotfile is
  // ~4.1 MiB and stage 2 rewrites one 50 KiB slab of it in place.  The
  // checkpointed variant forks that plotfile per run — with the monolithic
  // payload store its first pwrite copied all ~4 MiB, with extents it
  // detaches at most 2 chunks (visible as the cow_bytes_copied column).
  nyx::NyxConfig nyx_config;
  nyx_config.field.n = 80;
  nyx_config.timesteps = 2;
  nyx::NyxApp nyx(nyx_config);

  // QMC-dominated cell: inject into the DMC series (stage 2); the prefix is
  // the whole VMC run plus the input echo.
  qmc::QmcApp qmc;

  // Two faults per stage: all cells of one app share one golden, and the
  // cells of each (app, stage) share one checkpoint — so both cache tiers
  // report hits.
  const std::vector<std::string> faults{"BF", "SHORN_WRITE@pwrite"};
  auto builder = bench::plan(runs);
  builder.app(montage).faults(faults).stages(3, 4).product();
  builder.app(nyx).faults(faults).stage(2).product();
  builder.app(qmc).faults(faults).stage(2).product();
  const auto experiment_plan = builder.build();

  std::printf("%llu runs per cell, %zu cells (montage MT3/MT4, nyx dump-2, qmc DMC)\n\n",
              static_cast<unsigned long long>(runs), experiment_plan.size());

  exp::EngineOptions baseline_options, checkpoint_options, diff_options;
  baseline_options.use_checkpoints = false;
  baseline_options.use_diff_classification = false;
  checkpoint_options.use_checkpoints = true;
  checkpoint_options.use_diff_classification = false;
  diff_options.use_checkpoints = true;
  diff_options.use_diff_classification = true;

  std::printf("-- baseline (full re-execution + full re-analysis per run) --\n");
  const VariantResult baseline = run_variant(experiment_plan, baseline_options);
  std::printf("-- checkpointed (COW fork + stage resume) --\n");
  const VariantResult checkpointed = run_variant(experiment_plan, checkpoint_options);
  std::printf("-- diff-classified (checkpoint + extent-diff outcomes) --\n");
  const VariantResult diffclass = run_variant(experiment_plan, diff_options);

  // The whole point of both fast paths is that they change nothing but time.
  assert_identical_tallies(baseline, checkpointed, "the checkpoint path");
  assert_identical_tallies(checkpointed, diffclass, "diff classification");

  const double speedup = checkpointed.runs_per_sec / baseline.runs_per_sec;
  const double diff_speedup = diffclass.runs_per_sec / checkpointed.runs_per_sec;
  std::printf("\nbaseline:     %8.1f runs/sec  (%.0f ms)\n", baseline.runs_per_sec,
              baseline.wall_ms);
  std::printf("checkpointed: %8.1f runs/sec  (%.0f ms, %llu capture%s / %.1f MiB held, "
              "%llu cache hit%s)\n",
              checkpointed.runs_per_sec, checkpointed.wall_ms,
              static_cast<unsigned long long>(checkpointed.report.checkpoint_builds),
              checkpointed.report.checkpoint_builds == 1 ? "" : "s",
              static_cast<double>(checkpointed.report.checkpoint_bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(checkpointed.report.checkpoint_cache_hits),
              checkpointed.report.checkpoint_cache_hits == 1 ? "" : "s");
  std::printf("diff-class:   %8.1f runs/sec  (%.0f ms, %llu of %llu analyses skipped)\n",
              diffclass.runs_per_sec, diffclass.wall_ms,
              static_cast<unsigned long long>(diffclass.report.analyze_skipped),
              static_cast<unsigned long long>(diffclass.report.total_runs));
  std::printf("speedup:      %8.2fx (checkpoint vs baseline), %.2fx more from "
              "diff classification\n", speedup, diff_speedup);
  for (const auto& cell : diffclass.report.cells) {
    const auto& cp = checkpointed.report.cells[cell.index];
    std::printf("  %-28s cow %8.1f KiB/run   analyze %7.1f -> %7.1f ms (%llu skipped)\n",
                cell.cell.label.c_str(),
                cell.runs_completed == 0
                    ? 0.0
                    : static_cast<double>(cell.cow_bytes_copied) / 1024.0 /
                          static_cast<double>(cell.runs_completed),
                cp.analyze_ms, cell.analyze_ms,
                static_cast<unsigned long long>(cell.analyze_skipped));
  }

  // --- Analysis-dominated cell: what diff classification alone buys ---------
  //
  // A 3-dump Nyx run on a 96^3 field: stage 3 rewrites slab z=1, which sits
  // strictly inside the dataset's raw data (64 KiB extents), so the diff
  // path splices ~2 dirty extents into the cached golden field instead of
  // re-reading and re-decoding the whole ~6.9 MiB plotfile every run.
  // Checkpointing is ON in both variants: execution cost is already removed,
  // isolating the classification half of the hot loop.
  nyx::NyxConfig analysis_config;
  analysis_config.field.n = 96;
  analysis_config.timesteps = 3;
  nyx::NyxApp analysis_nyx(analysis_config);

  const std::uint64_t analysis_runs = std::max<std::uint64_t>(runs / 3, 20);
  auto analysis_builder = bench::plan(analysis_runs);
  analysis_builder.cell(analysis_nyx, "BF", 3, "NYX96-ANALYSIS");
  const auto analysis_plan = analysis_builder.build();

  std::printf("\n-- analysis-dominated cell (nyx 96^3, stage 3 slab rewrite, "
              "%llu runs) --\n", static_cast<unsigned long long>(analysis_runs));
  const VariantResult analysis_full = run_variant(analysis_plan, checkpoint_options);
  const VariantResult analysis_diff = run_variant(analysis_plan, diff_options);
  assert_identical_tallies(analysis_full, analysis_diff, "diff classification");

  const double analysis_speedup = analysis_diff.runs_per_sec / analysis_full.runs_per_sec;
  std::printf("full re-analysis: %8.1f runs/sec (analyze %.0f ms total)\n",
              analysis_full.runs_per_sec, analysis_full.report.cells[0].analyze_ms);
  std::printf("extent-diff:      %8.1f runs/sec (analyze %.0f ms total, %llu skipped)\n",
              analysis_diff.runs_per_sec, analysis_diff.report.cells[0].analyze_ms,
              static_cast<unsigned long long>(analysis_diff.report.cells[0].analyze_skipped));
  std::printf("analysis speedup: %8.2fx\n", analysis_speedup);

  // --- Adaptive per-file extent sizing ---------------------------------------
  //
  // The 2-dump Nyx cell again, but the bulk plotfile gets 128 KiB extents
  // while everything else keeps the default.  Chunk bookkeeping (extent
  // table entries per fork, checkpoint-cache chunks) shrinks ~2x at flat
  // throughput.  128 KiB and not 256: stage 2 rewrites a ~50 KiB slab, and
  // at 256 KiB each COW detach used to copy 4-5x the dirty bytes — the
  // detach-cost inversion where "fewer chunks" silently became "more bytes
  // copied than the uniform geometry".  Partial-copy detach (the store only
  // copies the untouched remainder of a written extent) fixes the bulk of
  // it; capping the extent at ~2x the write keeps that remainder small.
  // Extent size stays a per-file knob, not a bigger global default.
  constexpr std::size_t kPlotfileChunk = 128 * 1024;
  const std::uint64_t adaptive_runs = std::max<std::uint64_t>(runs / 3, 20);
  auto adaptive_builder = bench::plan(adaptive_runs);
  adaptive_builder.cell(nyx, "BF", 2, "NYX2-ADAPTIVE");
  const auto adaptive_plan = adaptive_builder.build();

  exp::EngineOptions adaptive_options = diff_options;
  adaptive_options.fs_options.chunk_size_for =
      [](const std::string& path) -> std::size_t {
    return path.ends_with(".h5") ? kPlotfileChunk : 0;
  };
  std::printf("\n-- adaptive extents (nyx plotfile at 128 KiB, default 64 KiB) --\n");
  const VariantResult uniform = run_variant(adaptive_plan, diff_options);
  const VariantResult adaptive = run_variant(adaptive_plan, adaptive_options);
  assert_identical_tallies(uniform, adaptive, "adaptive extent sizing");
  std::printf("chunks: %llu (uniform) -> %llu (adaptive); cow/run %.0f -> %.0f KiB; "
              "%.1f -> %.1f runs/sec\n",
              static_cast<unsigned long long>(uniform.report.checkpoint_chunks +
                                              uniform.report.cells[0].chunks_allocated),
              static_cast<unsigned long long>(adaptive.report.checkpoint_chunks +
                                              adaptive.report.cells[0].chunks_allocated),
              static_cast<double>(uniform.report.cells[0].cow_bytes_copied) / 1024.0 /
                  static_cast<double>(adaptive_runs),
              static_cast<double>(adaptive.report.cells[0].cow_bytes_copied) / 1024.0 /
                  static_cast<double>(adaptive_runs),
              uniform.runs_per_sec, adaptive.runs_per_sec);

  // --- Arena-backed run stores: the allocation path A/B ----------------------
  //
  // Every variant above ran with EngineOptions::use_arena on (the default):
  // each injection run leases a pooled MemFs whose chunk payloads are carved
  // from a thread-local slab arena and reclaimed by a cursor rewind once the
  // run's diff is consumed — one refcounted epoch per run instead of one
  // heap allocation + atomic refcount per chunk.  Re-running the identical
  // plan with the arena off isolates what that buys.  The switch must change
  // nothing but allocation traffic: tallies asserted here, every non-arena
  // storage counter asserted bit-identical in tests/test_exp.cpp.
  std::printf("\n-- arena-backed run stores (use_arena off vs on, main plan) --\n");
  exp::EngineOptions no_arena_options = diff_options;
  no_arena_options.use_arena = false;
  const VariantResult no_arena = run_variant(experiment_plan, no_arena_options);
  assert_identical_tallies(no_arena, diffclass, "the arena allocation path");

  // Heap-allocation accounting on the montage cells — the chunk-heaviest in
  // the plan.  Without the arena, every chunks_allocated is a heap buffer
  // with its own control block; with it, the only heap traffic per cell is
  // the fresh slabs it mapped (warm-up only, then rewinds).  The run hot
  // loop's allocation count must drop at least 10x.
  std::uint64_t montage_heap_chunks = 0;
  std::uint64_t montage_arena_slabs = 0;
  for (const auto& cell : no_arena.report.cells) {
    if (cell.cell.label.rfind("MONTAGE", 0) == 0) montage_heap_chunks += cell.chunks_allocated;
  }
  for (const auto& cell : diffclass.report.cells) {
    if (cell.cell.label.rfind("MONTAGE", 0) == 0) montage_arena_slabs += cell.arena_slabs_allocated;
  }
  const double arena_speedup = diffclass.runs_per_sec / no_arena.runs_per_sec;
  std::printf("arena off: %8.1f runs/sec   montage heap chunk allocations: %llu\n",
              no_arena.runs_per_sec,
              static_cast<unsigned long long>(montage_heap_chunks));
  std::printf("arena on:  %8.1f runs/sec   montage equivalent heap allocations "
              "(fresh slabs): %llu\n",
              diffclass.runs_per_sec,
              static_cast<unsigned long long>(montage_arena_slabs));
  std::printf("arena speedup: %5.2fx; %.1f MiB recycled plan-wide\n", arena_speedup,
              static_cast<double>(diffclass.report.arena_bytes_recycled) /
                  (1024.0 * 1024.0));
  if (montage_arena_slabs * 10 > montage_heap_chunks) {
    std::fprintf(stderr, "FATAL: arena did not cut montage chunk allocations 10x "
                         "(%llu heap chunks vs %llu slabs)\n",
                 static_cast<unsigned long long>(montage_heap_chunks),
                 static_cast<unsigned long long>(montage_arena_slabs));
    return 1;
  }

  // --- Block-device layer: the clean-sector fast path A/B --------------------
  //
  // Syscall-level cells never need the sector-granular device, so the engine
  // only mounts it when a cell's fault signature is media-level.  Forcing it
  // on under the identical syscall plan measures what a mounted-but-unarmed
  // device costs: the write path counts sector instances, and the read path
  // takes the clean-sector fast exit (no registry, no CRC walk).  CI gates
  // the ratio at >= 0.95x — a regression here means reads or unarmed writes
  // picked up per-sector work they must not do.  Tallies must not move at
  // all (exhaustively asserted in tests/test_exp.cpp, re-asserted here).
  std::printf("\n-- block device forced under the syscall plan (clean-sector "
              "fast path) --\n");
  exp::EngineOptions forced_block_options = diff_options;
  forced_block_options.force_block_device = true;
  const VariantResult forced_block = run_variant(experiment_plan, forced_block_options);
  assert_identical_tallies(forced_block, diffclass, "the mounted-but-unarmed block device");
  const double block_overhead_ratio = forced_block.runs_per_sec / diffclass.runs_per_sec;
  std::printf("no device: %8.1f runs/sec\ndevice on: %8.1f runs/sec   "
              "(%.3fx, clean-sector fast path)\n",
              diffclass.runs_per_sec, forced_block.runs_per_sec, block_overhead_ratio);

  // --- Media-level faults: sector corruption beneath the syscall layer -------
  //
  // One bit-rot cell per scrub mode on the 2-dump Nyx workload.  With
  // scrubbing on, the device's per-sector CRC turns the corruption into an
  // EIO at read time (detected_crc); with it off the rot flows silently to
  // the application and lands wherever the classifier puts it.  The JSON
  // section records the detected_io_error/detected_crc split so the media
  // detection channel is tracked across commits like every other counter.
  const std::uint64_t media_runs = std::max<std::uint64_t>(runs / 3, 20);
  auto media_builder = bench::plan(media_runs);
  media_builder.cell(nyx, "BIT_ROT@pwrite{sector=512,scrub=on,width=1}", -1,
                     "NYX2-ROT-SCRUB");
  media_builder.cell(nyx, "BIT_ROT@pwrite{sector=512,scrub=off,width=1}", -1,
                     "NYX2-ROT-SILENT");
  const auto media_plan = media_builder.build();

  std::printf("\n-- media-fault cells (nyx 80^3, single-bit rot, scrub on/off, "
              "%llu runs each) --\n", static_cast<unsigned long long>(media_runs));
  const VariantResult media = run_variant(media_plan, diff_options);
  const auto& scrub_cell = media.report.cells[0];
  const auto& silent_cell = media.report.cells[1];
  if (scrub_cell.sectors_faulted == 0 || silent_cell.sectors_faulted == 0) {
    std::fprintf(stderr, "FATAL: media-fault cells armed but corrupted no sectors\n");
    return 1;
  }
  if (silent_cell.crc_detected != 0 || silent_cell.detected_crc != 0) {
    std::fprintf(stderr, "FATAL: scrub-off cell reported CRC detections\n");
    return 1;
  }
  for (const auto* cell : {&scrub_cell, &silent_cell}) {
    const std::uint64_t detected = cell->tally.count(core::Outcome::Detected);
    std::printf("  %-18s %8.1f runs/sec   %llu sectors faulted, detected: "
                "%llu io_error + %llu crc, sdc %llu\n",
                cell->cell.label.c_str(),
                static_cast<double>(cell->runs_completed) / (media.wall_ms / 1000.0),
                static_cast<unsigned long long>(cell->sectors_faulted),
                static_cast<unsigned long long>(detected - std::min(cell->detected_crc, detected)),
                static_cast<unsigned long long>(cell->detected_crc),
                static_cast<unsigned long long>(cell->tally.count(core::Outcome::Sdc)));
  }

  // --- Distributed execution: coordinator + local worker fleet ---------------
  //
  // The nyx/qmc stage-2 cells again, executed through dist::Coordinator with
  // in-process workers of ONE thread each — so doubling the fleet should
  // roughly double throughput as long as coordination (framing, merge,
  // grant bookkeeping) stays off the critical path.  The fleet shares a
  // pre-populated checkpoint store (the local reference run below writes
  // it), which is the deployment the subsystem is designed for: goldens and
  // prefix checkpoints travel through the store, so adding a worker does not
  // re-execute any fault-free prefix work.  Tallies must be bit-identical to
  // the local engine at the same seeds; that equivalence — including under
  // worker loss — is tested exhaustively in tests/test_dist.cpp, and
  // asserted here on the merged reports.
  // Enough runs per cell that execution dominates the per-worker fixed costs
  // (store loads, per-cell profiling passes) — fleet scaling is about the
  // steady state, not about setup.
  const std::uint64_t dist_runs = std::max<std::uint64_t>(runs / 3, 90);
  auto dist_builder = bench::plan(dist_runs);
  dist_builder.app(nyx).faults(faults).stage(2).product();
  dist_builder.app(qmc).faults(faults).stage(2).product();
  const auto dist_plan = dist_builder.build();

  const auto dist_store = std::filesystem::temp_directory_path() /
                          ("ffis-bench-dist-store-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dist_store);
  exp::EngineOptions dist_engine = diff_options;
  dist_engine.checkpoint_dir = dist_store.string();

  std::printf("\n-- distributed (coordinator + N one-thread workers, %llu runs x "
              "%zu cells, shared store) --\n",
              static_cast<unsigned long long>(dist_runs), dist_plan.size());
  const VariantResult dist_local = run_variant(dist_plan, dist_engine);
  // One unit per cell: workers own disjoint cells, so the per-cell residue
  // that even a warm store leaves (entry decode, one profiling pass) is
  // split across the fleet instead of repeated by every worker that touches
  // a cell.  Real campaigns get the same affinity from the scheduler's LIFO
  // grant order whenever runs-per-cell >> unit_runs.
  const std::uint64_t dist_unit_runs = dist_runs;
  const VariantResult dist1 =
      run_distributed_variant(dist_plan, dist_engine, 1, dist_unit_runs);
  const VariantResult dist2 =
      run_distributed_variant(dist_plan, dist_engine, 2, dist_unit_runs);
  std::filesystem::remove_all(dist_store);
  assert_identical_tallies(dist_local, dist1, "distributed execution (1 worker)");
  assert_identical_tallies(dist_local, dist2, "distributed execution (2 workers)");

  const double dist_speedup = dist2.runs_per_sec / dist1.runs_per_sec;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("1 worker:  %8.1f runs/sec  (%.0f ms)\n", dist1.runs_per_sec,
              dist1.wall_ms);
  std::printf("2 workers: %8.1f runs/sec  (%.0f ms, %llu re-granted)\n",
              dist2.runs_per_sec, dist2.wall_ms,
              static_cast<unsigned long long>(dist2.report.units_regranted));
  std::printf("fleet speedup: %5.2fx (2 workers vs 1, %u core%s)\n", dist_speedup,
              cores, cores == 1 ? "" : "s");
  if (cores < 2) {
    std::printf("NOTE: single-core machine — two CPU-bound workers time-slice one "
                "core, so fleet speedup is bounded at ~1.0x here; CI measures "
                "scaling on multi-core runners.\n");
  }

  // --- Store cache tier: mmap zero-copy decode + bounded-budget churn --------
  //
  // Two halves.  (1) A micro A/B on the load path itself: one multi-MiB nyx
  // checkpoint entry, loaded repeatedly with mmap_decode on vs off.  Both
  // paths verify the whole-file checksum; the buffered path then heap-copies
  // every chunk payload while the zero-copy path aliases the mapping, so
  // mmap loads must not be slower (CI gates the ratio at >= 1.0x).  (2) An
  // eviction-churn engine run: two campaigns with disjoint store keys under
  // a budget smaller than a single entry, so the store is continuously
  // evicting — and the tallies must still be bit-identical to the storeless
  // reference (the cache tier may only ever cost rebuild time).
  std::printf("\n-- store cache tier (mmap vs memcpy decode, budget churn) --\n");
  const auto cache_store_dir =
      std::filesystem::temp_directory_path() /
      ("ffis-bench-store-cache-" + std::to_string(::getpid()));
  std::filesystem::remove_all(cache_store_dir);

  double memcpy_loads_per_sec = 0.0;
  double mmap_loads_per_sec = 0.0;
  std::uint64_t store_entry_bytes = 0;
  {
    const core::CheckpointStore writer(cache_store_dir.string());
    const auto cache_checkpoint = core::Checkpoint::capture(nyx, 42, 2);
    const auto cache_golden = cache_checkpoint->grow_golden_tree(nyx, 42);
    const auto cache_key = core::CheckpointStore::Key::of(nyx, 42, 2, {});
    if (!writer.save_checkpoint(cache_key, *cache_checkpoint, cache_golden.get(),
                                nyx.serialize_state(42))) {
      std::fprintf(stderr, "FATAL: could not populate the store-cache bench entry\n");
      return 1;
    }
    store_entry_bytes = std::filesystem::file_size(writer.entry_path(cache_key));

    const auto time_loads = [&](bool mmap_decode) {
      const core::CheckpointStore store(
          cache_store_dir.string(),
          core::CheckpointStore::Options{.budget_bytes = 0, .mmap_decode = mmap_decode});
      constexpr int kLoads = 12;
      (void)store.load_checkpoint(cache_key, {});  // warm the page cache
      const auto start = Clock::now();
      for (int i = 0; i < kLoads; ++i) {
        if (!store.load_checkpoint(cache_key, {}).has_value()) {
          std::fprintf(stderr, "FATAL: store-cache bench entry failed to load\n");
          std::exit(1);
        }
      }
      return static_cast<double>(kLoads) / (ms_since(start) / 1000.0);
    };
    memcpy_loads_per_sec = time_loads(false);
    mmap_loads_per_sec = time_loads(true);
  }
  const double mmap_vs_memcpy = mmap_loads_per_sec / memcpy_loads_per_sec;
  std::printf("entry: %.1f MiB   memcpy decode: %8.1f loads/sec   mmap decode: "
              "%8.1f loads/sec   (%.2fx)\n",
              static_cast<double>(store_entry_bytes) / (1024.0 * 1024.0),
              memcpy_loads_per_sec, mmap_loads_per_sec, mmap_vs_memcpy);

  const std::uint64_t churn_runs = std::max<std::uint64_t>(runs / 6, 10);
  auto churn_a_builder = bench::plan(churn_runs);
  churn_a_builder.cell(nyx, "BF", 2, "NYX2-CHURN-A");
  const auto churn_plan_a = churn_a_builder.build();
  auto churn_b_builder = bench::plan(churn_runs);
  churn_b_builder.seed(4242);  // disjoint store keys from plan A
  churn_b_builder.cell(nyx, "BF", 2, "NYX2-CHURN-B");
  const auto churn_plan_b = churn_b_builder.build();

  const VariantResult churn_ref_a = run_variant(churn_plan_a, diff_options);
  const VariantResult churn_ref_b = run_variant(churn_plan_b, diff_options);

  exp::EngineOptions churn_options = diff_options;
  churn_options.checkpoint_dir = cache_store_dir.string();
  churn_options.checkpoint_budget = std::max<std::uint64_t>(store_entry_bytes / 2, 1);
  const VariantResult churn_a = run_variant(churn_plan_a, churn_options);
  const VariantResult churn_b = run_variant(churn_plan_b, churn_options);
  std::filesystem::remove_all(cache_store_dir);
  assert_identical_tallies(churn_ref_a, churn_a, "the bounded store (campaign A)");
  assert_identical_tallies(churn_ref_b, churn_b, "the bounded store (campaign B)");

  const std::uint64_t churn_evictions =
      churn_a.report.store_evictions + churn_b.report.store_evictions;
  const std::uint64_t churn_gc_runs =
      churn_a.report.store_gc_runs + churn_b.report.store_gc_runs;
  std::printf("churn (budget %.1f MiB): %llu evictions, %llu gc runs, "
              "%llu misses; tallies bit-identical to storeless\n",
              static_cast<double>(churn_options.checkpoint_budget) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(churn_evictions),
              static_cast<unsigned long long>(churn_gc_runs),
              static_cast<unsigned long long>(churn_a.report.store_misses +
                                              churn_b.report.store_misses));
  if (churn_evictions == 0) {
    std::fprintf(stderr, "FATAL: a budget below one entry produced zero evictions — "
                         "the bounded cache tier is not enforcing its budget\n");
    return 1;
  }

  // --- Warm start: the persistent checkpoint store ---------------------------
  //
  // With FFIS_CHECKPOINT_DIR set, the main plan runs once more against that
  // directory.  The first invocation of this binary populates the store
  // (cold); a second invocation with the same directory loads every golden
  // and checkpoint from disk and executes zero fault-free prefix stages —
  // the CI warm-start smoke runs the binary twice and asserts exactly that
  // via the JSON counters below.  Tallies must be bit-identical either way.
  std::string persistent_json;
  if (const auto checkpoint_dir = util::env_string("FFIS_CHECKPOINT_DIR")) {
    exp::EngineOptions persistent_options = diff_options;
    persistent_options.checkpoint_dir = *checkpoint_dir;
    std::printf("\n-- persistent store (checkpoint dir: %s) --\n", checkpoint_dir->c_str());
    const VariantResult persistent = run_variant(experiment_plan, persistent_options);
    assert_identical_tallies(diffclass, persistent, "the persistent checkpoint store");

    const auto& rep = persistent.report;
    const bool warm = rep.checkpoints_loaded > 0;
    // NB: within one process the applications' own caches are already hot
    // from the earlier variants, so this ratio under-sells the store; the
    // honest warm-start speedup is cross-invocation (second binary run vs
    // first, computed by CI from the two BENCH_perf.json files).
    const double vs_no_store = persistent.runs_per_sec / diffclass.runs_per_sec;
    std::printf("%s start: %8.1f runs/sec (%.0f ms); %llu checkpoints + %llu goldens "
                "loaded, %llu + %llu persisted; %.2fx vs the storeless diff variant\n",
                warm ? "warm" : "cold", persistent.runs_per_sec, persistent.wall_ms,
                static_cast<unsigned long long>(rep.checkpoints_loaded),
                static_cast<unsigned long long>(rep.goldens_loaded),
                static_cast<unsigned long long>(rep.checkpoints_persisted),
                static_cast<unsigned long long>(rep.goldens_persisted), vs_no_store);
    if (warm && (rep.golden_executions != 0 || rep.checkpoint_builds != 0)) {
      std::fprintf(stderr, "FATAL: warm start still executed %llu goldens / %llu "
                           "prefix captures\n",
                   static_cast<unsigned long long>(rep.golden_executions),
                   static_cast<unsigned long long>(rep.checkpoint_builds));
      return 1;
    }

    ffis::bench::JsonObject doc;
    doc.raw("warm", warm ? "true" : "false")
        .num("checkpoints_loaded", rep.checkpoints_loaded)
        .num("checkpoints_persisted", rep.checkpoints_persisted)
        .num("goldens_loaded", rep.goldens_loaded)
        .num("goldens_persisted", rep.goldens_persisted)
        .num("golden_executions", rep.golden_executions)
        .num("checkpoint_builds", rep.checkpoint_builds)
        .num("runs_per_sec", persistent.runs_per_sec)
        .num("wall_ms", persistent.wall_ms)
        .num("vs_no_store_speedup", vs_no_store)
        .raw("result", variant_json(persistent, vfs::ExtentStore::kDefaultChunkSize));
    persistent_json = doc.render();
  }

  const std::string json_path =
      bench::json_output_path(argc, argv, "BENCH_perf.json").value_or("BENCH_perf.json");
  ffis::bench::JsonObject analysis_doc;
  analysis_doc.str("label", "NYX96-ANALYSIS")
      .num("runs_per_cell", analysis_runs)
      .num("full_runs_per_sec", analysis_full.runs_per_sec)
      .num("diff_runs_per_sec", analysis_diff.runs_per_sec)
      .num("analysis_speedup", analysis_speedup)
      .num("full_analyze_ms", analysis_full.report.cells[0].analyze_ms)
      .num("diff_analyze_ms", analysis_diff.report.cells[0].analyze_ms)
      .num("analyses_skipped", analysis_diff.report.cells[0].analyze_skipped);
  ffis::bench::JsonObject dist_doc;
  dist_doc.num("runs_per_cell", dist_runs)
      .num("cells", static_cast<std::uint64_t>(dist_plan.size()))
      .num("cores", static_cast<std::uint64_t>(cores))
      .num("local_runs_per_sec", dist_local.runs_per_sec)
      .num("workers1_runs_per_sec", dist1.runs_per_sec)
      .num("workers2_runs_per_sec", dist2.runs_per_sec)
      .num("speedup", dist_speedup)
      .num("workers_connected", dist2.report.workers_connected)
      .num("units_regranted", dist2.report.units_regranted)
      .num("units_replayed_from_journal", dist2.report.units_replayed_from_journal)
      .num("worker_reconnects", dist2.report.worker_reconnects)
      .num("heartbeat_timeouts", dist2.report.heartbeat_timeouts);
  ffis::bench::JsonObject arena_doc;
  arena_doc.num("runs_per_sec", diffclass.runs_per_sec)
      .num("no_arena_runs_per_sec", no_arena.runs_per_sec)
      .num("speedup", arena_speedup)
      .num("arena_slabs_allocated", diffclass.report.arena_slabs_allocated)
      .num("arena_bytes_recycled", diffclass.report.arena_bytes_recycled)
      .num("montage_heap_chunk_allocations", montage_heap_chunks)
      .num("montage_equivalent_heap_allocations", montage_arena_slabs)
      .raw("no_arena", variant_json(no_arena, vfs::ExtentStore::kDefaultChunkSize));
  ffis::bench::JsonObject block_doc;
  block_doc.num("runs_per_sec", forced_block.runs_per_sec)
      .num("baseline_runs_per_sec", diffclass.runs_per_sec)
      .num("overhead_ratio", block_overhead_ratio);
  ffis::bench::JsonObject media_doc;
  media_doc.num("runs_per_cell", media_runs)
      .num("scrub_on_sectors_faulted", scrub_cell.sectors_faulted)
      .num("scrub_on_crc_detected", scrub_cell.crc_detected)
      .num("scrub_on_detected_crc", scrub_cell.detected_crc)
      .num("scrub_off_sectors_faulted", silent_cell.sectors_faulted)
      .num("scrub_off_sdc", silent_cell.tally.count(core::Outcome::Sdc))
      .raw("result", variant_json(media, vfs::ExtentStore::kDefaultChunkSize));
  ffis::bench::JsonObject store_cache_doc;
  store_cache_doc.num("entry_bytes", store_entry_bytes)
      .num("memcpy_loads_per_sec", memcpy_loads_per_sec)
      .num("mmap_loads_per_sec", mmap_loads_per_sec)
      .num("mmap_vs_memcpy", mmap_vs_memcpy)
      .num("churn_runs_per_cell", churn_runs)
      .num("churn_budget_bytes", churn_options.checkpoint_budget)
      .num("store_hits", churn_a.report.store_hits + churn_b.report.store_hits)
      .num("store_misses", churn_a.report.store_misses + churn_b.report.store_misses)
      .num("store_evictions", churn_evictions)
      .num("store_bytes_evicted",
           churn_a.report.store_bytes_evicted + churn_b.report.store_bytes_evicted)
      .num("store_gc_runs", churn_gc_runs)
      .num("churn_runs_per_sec", churn_b.runs_per_sec)
      .num("storeless_runs_per_sec", churn_ref_b.runs_per_sec);
  ffis::bench::JsonObject adaptive_doc;
  adaptive_doc.str("label", "NYX2-ADAPTIVE")
      .num("plotfile_chunk_size", static_cast<std::uint64_t>(kPlotfileChunk))
      .num("uniform_chunks", uniform.report.checkpoint_chunks +
                                 uniform.report.cells[0].chunks_allocated)
      .num("adaptive_chunks",
           adaptive.report.checkpoint_chunks + adaptive.report.cells[0].chunks_allocated)
      .num("uniform_cow_bytes", uniform.report.cells[0].cow_bytes_copied)
      .num("adaptive_cow_bytes", adaptive.report.cells[0].cow_bytes_copied)
      .num("uniform_runs_per_sec", uniform.runs_per_sec)
      .num("adaptive_runs_per_sec", adaptive.runs_per_sec);
  bench::JsonObject doc;
  doc.str("bench", "perf_engine")
      .str("applications", "montage, nyx, qmcpack")
      .str("faults", "BF, SHORN_WRITE@pwrite")
      .str("stages", "montage 3-4, nyx 2, qmc 2")
      .num("runs_per_cell", runs)
      .num("cells", static_cast<std::uint64_t>(experiment_plan.size()))
      .num("speedup", speedup)
      .num("diff_speedup", diff_speedup)
      .num("analysis_speedup", analysis_speedup)
      .raw("baseline", variant_json(baseline, vfs::ExtentStore::kDefaultChunkSize))
      .raw("checkpointed", variant_json(checkpointed, vfs::ExtentStore::kDefaultChunkSize))
      .raw("diff_classified", variant_json(diffclass, vfs::ExtentStore::kDefaultChunkSize))
      .raw("analysis_dominated", analysis_doc.render())
      .raw("arena", arena_doc.render())
      .raw("block_device", block_doc.render())
      .raw("media", media_doc.render())
      .raw("adaptive_extents", adaptive_doc.render())
      .raw("store_cache", store_cache_doc.render())
      .raw("distributed", dist_doc.render());
  if (!persistent_json.empty()) doc.raw("persistent_store", persistent_json);
  bench::write_json_file(json_path, doc);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
