// Unit tests for ffis::exp — plan building and validation, the shared-pool
// engine (golden caching, determinism across thread counts, equivalence
// with sequential per-cell injection, cancellation, error capture), the cell
// collector (run-order folds, first-wins landing, plan-order emission), and the
// result sinks (console/CSV/JSONL round-trips, MultiSink fan-out).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/collector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/plan_config.hpp"
#include "ffis/exp/prepare.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "counter_testing.hpp"

namespace {

using namespace ffis;
using core::Outcome;

// A toy application, as in test_core: writes chunks in two stages, analyzes
// by checksum.  Instrumented to count its golden (uninstrumented) runs so
// the golden-cache tests can assert exact execution counts.
class ToyApp final : public core::Application {
 public:
  explicit ToyApp(std::size_t writes_per_stage = 4) : writes_(writes_per_stage) {}

  [[nodiscard]] std::string name() const override { return "toy"; }

  void run_stages(const core::RunContext& ctx, int, int) const override {
    if (ctx.instrument == nullptr) golden_runs_.fetch_add(1, std::memory_order_relaxed);
    total_runs_.fetch_add(1, std::memory_order_relaxed);
    vfs::write_text_file(ctx.fs, "/header", "MAGIC");
    vfs::File f(ctx.fs, "/data", vfs::OpenMode::Write);
    util::Rng rng(ctx.app_seed);
    std::uint64_t offset = 0;
    for (int stage = 1; stage <= 2; ++stage) {
      ctx.enter_stage(stage);
      for (std::size_t w = 0; w < writes_; ++w) {
        util::Bytes chunk(64);
        for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
        offset += f.pwrite(chunk, offset);
      }
      ctx.leave_stage(stage);
    }
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    const std::string header = vfs::read_text_file(fs, "/header");
    if (header.size() != 5) throw std::runtime_error("bad header length");
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/data");
    result.metrics["header_ok"] = (header == "MAGIC") ? 1.0 : 0.0;
    return result;
  }

  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("header_ok") != 0.0 ? Outcome::Sdc : Outcome::Detected;
  }

  [[nodiscard]] std::uint64_t golden_runs() const {
    return golden_runs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_runs() const {
    return total_runs_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t writes_;
  mutable std::atomic<std::uint64_t> golden_runs_{0};
  mutable std::atomic<std::uint64_t> total_runs_{0};
};

// A write-once, sector-aligned workload for the media-fault corruption
// oracle: each 512 B sector is written exactly once, so a media fault is
// never healed (full rewrite) or laundered (partial overwrite) by later
// writes — whatever the device corrupted is still corrupt at analysis time.
// classify() is Sdc-only: with scrubbing off the corruption always escapes
// silently, which makes the Detected/Sdc split a pure function of the scrub
// flag.
class SectorApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "sectorapp"; }

  void run_stages(const core::RunContext& ctx, int, int) const override {
    vfs::File f(ctx.fs, "/blocks", vfs::OpenMode::Write);
    util::Rng rng(ctx.app_seed);
    for (std::uint64_t sector = 0; sector < 4; ++sector) {
      util::Bytes chunk(512);
      for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
      f.pwrite(chunk, sector * 512);
    }
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/blocks");
    return result;
  }

  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Sdc;
  }
};

// An application that performs no I/O at all: every fault signature fails to
// profile, so every cell errors out.
class SilentApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "silent"; }
  void run_stages(const core::RunContext&, int, int) const override {}
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem&) const override {
    return {};
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Benign;
  }
};

// A three-stage application that reads stage-1 writes back in stages 2 and
// 3, so stage-1 and stage-2 faults are first observed in a later stage.
// Stage 3 checks the stage-1 header and throws on a corrupted one (a Crash
// of a run resumed late).
class LateReaderApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "late-reader"; }
  [[nodiscard]] int stage_count() const override { return 3; }

  void run_stages(const core::RunContext& ctx, int first, int last) const override {
    for (int s = std::max(first, 1); s <= last; ++s) run_stage(ctx, s);
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/out");
    result.metrics["first"] = static_cast<double>(result.comparison_blob.at(0));
    return result;
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("first") < 128.0 ? Outcome::Sdc : Outcome::Detected;
  }

 private:
  /// Chunks [first, first + count) of `path`, 64 bytes each.
  static util::Bytes read_chunks(vfs::FileSystem& fs, const std::string& path,
                                 std::uint64_t first, std::uint64_t count) {
    util::Bytes out(count * 64);
    vfs::File f(fs, path, vfs::OpenMode::Read);
    (void)f.pread(out, first * 64);
    return out;
  }

  void run_stage(const core::RunContext& ctx, int stage) const {
    ctx.enter_stage(stage);
    util::Rng rng(ctx.app_seed * 7 + static_cast<std::uint64_t>(stage));
    util::Bytes chunk(64);
    for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
    switch (stage) {
      case 1: {
        vfs::write_text_file(ctx.fs, "/header", "MAGIC");
        vfs::File f(ctx.fs, "/data", vfs::OpenMode::Write);
        for (std::uint64_t w = 0; w < 4; ++w) {
          chunk[0] = static_cast<std::byte>(w);
          (void)f.pwrite(chunk, w * 64);
        }
        break;
      }
      case 2: {
        util::Bytes mixed = read_chunks(ctx.fs, "/data", 0, 2);  // chunks 0-1
        for (std::size_t i = 0; i < chunk.size(); ++i) mixed[i] ^= chunk[i];
        vfs::File f(ctx.fs, "/mixed", vfs::OpenMode::Write);
        (void)f.pwrite(util::ByteSpan(mixed).subspan(0, 64), 0);
        (void)f.pwrite(util::ByteSpan(mixed).subspan(64), 64);
        break;
      }
      case 3: {
        if (vfs::read_text_file(ctx.fs, "/header") != "MAGIC") {
          throw std::runtime_error("late-reader: bad header");
        }
        util::Bytes out = read_chunks(ctx.fs, "/data", 2, 2);  // chunks 2-3
        const util::Bytes mixed = vfs::read_file(ctx.fs, "/mixed");
        out.insert(out.end(), mixed.begin(), mixed.end());
        vfs::write_file(ctx.fs, "/out", out);
        break;
      }
      default:
        break;
    }
    ctx.leave_stage(stage);
  }
};

// --- PlanBuilder -------------------------------------------------------------

TEST(PlanBuilder, ProductBuildsFaultMajorGrid) {
  ToyApp a, b;
  const auto plan = exp::PlanBuilder()
                        .runs(10)
                        .seed(7)
                        .apps({&a, &b})
                        .faults({"BF", "DW"})
                        .build();
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.total_runs(), 40u);
  // Faults iterate outermost.
  EXPECT_EQ(plan.cells()[0].fault, "BF");
  EXPECT_EQ(plan.cells()[0].app, &a);
  EXPECT_EQ(plan.cells()[1].app, &b);
  EXPECT_EQ(plan.cells()[2].fault, "DW");
  EXPECT_EQ(plan.cells()[0].label, "TOY-BF");
  EXPECT_EQ(plan.cells()[0].seed, 7u);
  EXPECT_EQ(plan.cells()[0].app_seed(), 7u ^ 0x5eedULL);
}

TEST(PlanBuilder, StagesCrossProductAndExplicitCells) {
  ToyApp a;
  auto builder = exp::PlanBuilder().runs(5);
  builder.app(a).fault("BF").stages(1, 2).product();
  builder.cell(a, "DW", -1, "custom");
  const auto plan = builder.build();
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.cells()[0].stage, 1);
  EXPECT_EQ(plan.cells()[1].stage, 2);
  EXPECT_EQ(plan.cells()[0].label, "TOY1-BF");
  EXPECT_EQ(plan.cells()[2].label, "custom");
}

TEST(PlanBuilder, EmptyPlanThrows) {
  EXPECT_THROW((void)exp::PlanBuilder().build(), std::invalid_argument);
}

TEST(PlanBuilder, ZeroRunsThrows) {
  ToyApp a;
  auto builder = exp::PlanBuilder().runs(0);
  builder.cell(a, "BF");
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(PlanBuilder, DuplicateCellThrows) {
  ToyApp a;
  auto builder = exp::PlanBuilder().runs(5);
  // "BF" is shorthand for BIT_FLIP@pwrite{width=2}: same canonical cell.
  builder.cell(a, "BF");
  builder.cell(a, "BIT_FLIP@pwrite{width=2}");
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(PlanBuilder, SameFaultDifferentStageOrSeedIsNotDuplicate) {
  ToyApp a;
  auto builder = exp::PlanBuilder().runs(5);
  builder.cell(a, "BF", 1);
  builder.cell(a, "BF", 2);
  builder.seed(99);
  builder.cell(a, "BF", 1);
  EXPECT_NO_THROW((void)builder.build());
}

TEST(PlanBuilder, BadFaultSignatureThrows) {
  ToyApp a;
  auto builder = exp::PlanBuilder().runs(5);
  builder.cell(a, "NOT_A_FAULT");
  EXPECT_THROW((void)builder.build(), std::invalid_argument);
}

TEST(PlanBuilder, ProductWithoutAppsThrows) {
  EXPECT_THROW(exp::PlanBuilder().fault("BF").product(), std::invalid_argument);
}

TEST(PlanBuilder, HalfStagedGridThrowsAtBuild) {
  ToyApp a;
  auto apps_only = exp::PlanBuilder().runs(5);
  apps_only.app(a);
  apps_only.cell(a, "BF");  // explicit cell, but the staged app has no faults
  EXPECT_THROW((void)apps_only.build(), std::invalid_argument);

  auto faults_only = exp::PlanBuilder().runs(5);
  faults_only.fault("BF");
  faults_only.cell(a, "DW");
  EXPECT_THROW((void)faults_only.build(), std::invalid_argument);
}

// --- Engine: golden caching --------------------------------------------------

TEST(Engine, GoldenCacheOneExecutionPerApp) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(8).seed(42);
  builder.app(app).faults(
      {"BF", "DW", "SHORN_WRITE@pwrite", "BIT_FLIP@pwrite{width=4}"});
  const auto plan = builder.build();
  ASSERT_EQ(plan.size(), 4u);

  exp::Engine engine;
  const auto report = engine.run(plan);

  // The acceptance criterion: an N-cell single-app plan performs exactly ONE
  // golden execution (asserted via the instrumented application).
  EXPECT_EQ(app.golden_runs(), 1u);
  EXPECT_EQ(report.golden_executions, 1u);
  EXPECT_EQ(report.golden_cache_hits, 3u);
  EXPECT_FALSE(report.cells[0].golden_cached);
  EXPECT_TRUE(report.cells[1].golden_cached);
  EXPECT_TRUE(report.cells[3].golden_cached);
  // Total app executions: 1 golden + 4 profiling + 32 injection runs, less
  // the runs that repeat an earlier feature-free run of their instance and
  // the runs synthesized from the golden tree (the app never reads a write
  // back: every BIT_FLIP run, and one SHORN_WRITE run per instance).  Racing
  // threads may both execute a repeated instance, which costs time but no
  // count: at most one extra execution per replayed run.
  EXPECT_EQ(report.runs_synthesized, report.cells[0].runs_synthesized +
                                         report.cells[2].runs_synthesized +
                                         report.cells[3].runs_synthesized);
  EXPECT_EQ(report.cells[0].runs_synthesized, 8u);
  EXPECT_EQ(report.cells[2].runs_synthesized + report.cells[2].runs_replayed, 8u);
  const std::uint64_t executed = 1u + 4u + 32u - report.runs_replayed - report.runs_synthesized;
  EXPECT_GE(app.total_runs(), executed);
  EXPECT_LE(app.total_runs(), executed + report.runs_replayed);
}

TEST(Engine, DistinctAppsAndSeedsGetDistinctGoldens) {
  ToyApp a, b;
  auto builder = exp::PlanBuilder().runs(4).seed(1);
  builder.cell(a, "BF");
  builder.cell(b, "BF");
  builder.seed(2);
  builder.cell(a, "BF");  // different seed -> different app_seed -> new golden
  const auto report = exp::Engine().run(builder.build());
  EXPECT_EQ(report.golden_executions, 3u);
  EXPECT_EQ(report.golden_cache_hits, 0u);
  EXPECT_EQ(a.golden_runs(), 2u);
  EXPECT_EQ(b.golden_runs(), 1u);
}

// --- Engine: determinism and equivalence ------------------------------------

exp::ExperimentPlan toy_grid(const ToyApp& app, std::uint64_t runs, std::uint64_t seed) {
  exp::PlanBuilder builder;
  builder.runs(runs).seed(seed);
  builder.cell(app, "BF", -1);
  builder.cell(app, "DW", -1);
  builder.cell(app, "BF", 2);
  builder.cell(app, "SHORN_WRITE@pwrite", 1);
  return builder.build();
}

TEST(Engine, TalliesAreIndependentOfThreadCount) {
  ToyApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    exp::Engine engine(options);
    reports.push_back(engine.run(toy_grid(app, 64, 123)));
  }
  ASSERT_EQ(reports[0].cells.size(), reports[1].cells.size());
  for (std::size_t i = 0; i < reports[0].cells.size(); ++i) {
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(reports[0].cells[i].tally.count(static_cast<Outcome>(o)),
                reports[1].cells[i].tally.count(static_cast<Outcome>(o)))
          << "cell " << i << " outcome " << o;
    }
    EXPECT_EQ(reports[0].cells[i].primitive_count, reports[1].cells[i].primitive_count);
  }
}

TEST(Engine, ArenaRecyclingIsBitIdenticalAcrossThreads) {
  // Every run leases an arena-backed store from its worker thread's
  // RunScratch; per-thread pools warm up differently, yet 1 and 4 threads
  // must agree on every tally AND every non-arena storage counter.
  ToyApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    reports.push_back(exp::Engine(options).run(toy_grid(app, 64, 123)));
  }
  const exp::ExperimentReport& base = reports[0];  // 1 thread
  for (std::size_t v = 1; v < reports.size(); ++v) {
    ASSERT_EQ(reports[v].cells.size(), base.cells.size());
    for (std::size_t i = 0; i < base.cells.size(); ++i) {
      const exp::CellResult& got = reports[v].cells[i];
      const exp::CellResult& want = base.cells[i];
      for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
        EXPECT_EQ(got.tally.count(static_cast<Outcome>(o)),
                  want.tally.count(static_cast<Outcome>(o)))
            << "variant " << v << " cell " << i << " outcome " << o;
      }
      EXPECT_EQ(got.faults_not_fired, want.faults_not_fired) << "cell " << i;
      EXPECT_EQ(got.analyze_skipped, want.analyze_skipped) << "cell " << i;
      EXPECT_EQ(got.chunks_allocated, want.chunks_allocated) << "cell " << i;
      EXPECT_EQ(got.chunk_detaches, want.chunk_detaches) << "cell " << i;
      EXPECT_EQ(got.cow_bytes_copied, want.cow_bytes_copied) << "cell " << i;
    }
  }
  // Both variants actually took the arena path.
  EXPECT_GT(reports[0].arena_bytes_recycled, 0u);
  EXPECT_GT(reports[1].arena_bytes_recycled, 0u);
}

TEST(Engine, MediaFaultOracleScrubOnDetectsEveryRun) {
  // Corruption oracle: a known single-bit BIT_ROT beneath the write path of
  // a write-once workload.  With scrubbing on, every fired rot is caught by
  // the per-sector CRC (a 1-bit error never escapes CRC32), so every run
  // classifies Detected via the crc_detected override — at any thread
  // count, bit-identically.
  SectorApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::PlanBuilder builder;
    builder.runs(24).seed(77);
    builder.cell(app, "BIT_ROT@pwrite{sector=512,scrub=on,width=1}");
    exp::EngineOptions options;
    options.threads = threads;
    reports.push_back(exp::Engine(options).run(builder.build()));
  }
  for (const auto& report : reports) {
    ASSERT_EQ(report.cells.size(), 1u);
    const auto& cell = report.cells[0];
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_EQ(cell.tally.count(Outcome::Detected), 24u);
    EXPECT_EQ(cell.faults_not_fired, 0u);
    EXPECT_EQ(cell.sectors_faulted, 24u);  // one rotted sector per run
    EXPECT_EQ(cell.detected_crc, 24u);     // every Detected came from scrub
    EXPECT_GE(cell.crc_detected, 24u);     // >= one rejection per run
    // primitive_count is the profiled sector-write count: four sector-
    // aligned 512 B writes.
    EXPECT_EQ(cell.primitive_count, 4u);
  }
  // Bit-identical across thread counts, media counters included.
  EXPECT_EQ(reports[0].cells[0].crc_detected, reports[1].cells[0].crc_detected);
  EXPECT_EQ(reports[0].cells[0].sectors_faulted, reports[1].cells[0].sectors_faulted);
  EXPECT_EQ(reports[0].cells[0].detected_crc, reports[1].cells[0].detected_crc);
  EXPECT_EQ(reports[0].detected_crc, reports[1].detected_crc);
}

TEST(Engine, MediaFaultOracleScrubOffFlowsToClassifier) {
  // The same rot with scrubbing off: the corrupt bytes flow to the
  // application and the outcome comes from the extent-diff classifier.
  // SectorApp has no detection of its own, so every fired rot escapes as
  // silent data corruption — never a CRC detection, never a crash.
  SectorApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::PlanBuilder builder;
    builder.runs(24).seed(77);
    builder.cell(app, "BIT_ROT@pwrite{sector=512,scrub=off,width=1}");
    exp::EngineOptions options;
    options.threads = threads;
    reports.push_back(exp::Engine(options).run(builder.build()));
  }
  for (const auto& report : reports) {
    ASSERT_EQ(report.cells.size(), 1u);
    const auto& cell = report.cells[0];
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_EQ(cell.crc_detected, 0u);
    EXPECT_EQ(cell.detected_crc, 0u);
    EXPECT_EQ(cell.sectors_faulted, 24u);
    EXPECT_EQ(cell.tally.count(Outcome::Crash), 0u);
    EXPECT_EQ(cell.tally.count(Outcome::Sdc), 24u);  // silent corruption escaped
  }
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(reports[0].cells[0].tally.count(static_cast<Outcome>(o)),
              reports[1].cells[0].tally.count(static_cast<Outcome>(o)))
        << "outcome " << o;
  }
}

TEST(Engine, SyscallCellsAreBitIdenticalWithForceBlockDevice) {
  // force_block_device routes every run of every cell through an unarmed
  // BlockDevice (the A/B probe for the fast-path overhead gate).  An unarmed
  // device must be observationally inert: identical tallies AND identical
  // storage counters on a pure syscall-model grid.
  ToyApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const bool force : {false, true}) {
    exp::EngineOptions options;
    options.threads = 2;
    options.force_block_device = force;
    reports.push_back(exp::Engine(options).run(toy_grid(app, 32, 123)));
  }
  ASSERT_EQ(reports[0].cells.size(), reports[1].cells.size());
  for (std::size_t i = 0; i < reports[0].cells.size(); ++i) {
    const auto& off = reports[0].cells[i];
    const auto& on = reports[1].cells[i];
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(off.tally.count(static_cast<Outcome>(o)),
                on.tally.count(static_cast<Outcome>(o)))
          << "cell " << i << " outcome " << o;
    }
    EXPECT_EQ(off.primitive_count, on.primitive_count) << "cell " << i;
    EXPECT_EQ(off.faults_not_fired, on.faults_not_fired) << "cell " << i;
    EXPECT_EQ(off.chunks_allocated, on.chunks_allocated) << "cell " << i;
    EXPECT_EQ(off.chunk_detaches, on.chunk_detaches) << "cell " << i;
    EXPECT_EQ(off.cow_bytes_copied, on.cow_bytes_copied) << "cell " << i;
    EXPECT_EQ(off.analyze_skipped, on.analyze_skipped) << "cell " << i;
    // A passive device never faults a sector, let alone detects one.
    EXPECT_EQ(on.sectors_faulted, 0u) << "cell " << i;
    EXPECT_EQ(on.crc_detected, 0u) << "cell " << i;
  }
}

TEST(Engine, MultiCellRunMatchesSequentialPerCellInjection) {
  ToyApp app;
  const std::uint64_t runs = 48, seed = 7;
  const auto plan = toy_grid(app, runs, seed);
  const auto report = exp::Engine().run(plan);

  // Reference: the pre-engine behavior — one FaultInjector per cell, runs
  // executed sequentially with FaultGenerator's per-run seed stream.
  const auto reference = exp::reference_run(plan);
  for (std::size_t i = 0; i < plan.cells().size(); ++i) {
    ASSERT_TRUE(reference.cells[i].error.empty()) << reference.cells[i].error;
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(report.cells[i].tally.count(static_cast<Outcome>(o)),
                reference.cells[i].tally.count(static_cast<Outcome>(o)))
          << "cell " << i << " (" << plan.cells()[i].label << ") outcome " << o;
    }
    EXPECT_EQ(report.cells[i].primitive_count, reference.cells[i].primitive_count);
  }
}

// --- Engine: errors, details, cancellation ----------------------------------

TEST(Engine, CellErrorIsCapturedNotThrown) {
  SilentApp silent;
  ToyApp toy;
  auto builder = exp::PlanBuilder().runs(4);
  builder.cell(silent, "BF");
  builder.cell(toy, "BF");
  const auto report = exp::Engine().run(builder.build());
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_NE(report.cells[0].error.find("never executed primitive"), std::string::npos);
  EXPECT_EQ(report.cells[0].tally.total(), 0u);
  EXPECT_TRUE(report.cells[1].error.empty());
  EXPECT_EQ(report.cells[1].tally.total(), 4u);
}

TEST(Engine, KeepDetailsRetainsPerRunResults) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(6);
  builder.cell(app, "BF");
  exp::EngineOptions options;
  options.keep_details = true;
  const auto report = exp::Engine(options).run(builder.build());
  EXPECT_EQ(report.cells[0].primitive_count, 9u);  // 4 + 4 data writes + header
  ASSERT_EQ(report.cells[0].details.size(), 6u);
  core::OutcomeTally from_details;
  for (const auto& r : report.cells[0].details) from_details.add(r.outcome);
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(from_details.count(static_cast<Outcome>(o)),
              report.cells[0].tally.count(static_cast<Outcome>(o)));
  }
}

// --- Engine: run replay --------------------------------------------------------

using test_support::non_arena_stats;
using test_support::record_fields;

TEST(Engine, ReplayedRunsMatchDirectExecutionOnEveryModel) {
  ToyApp toy;
  SectorApp sectors;
  montage::MontageConfig montage_config;
  montage_config.scene.tile_x0 = {0, 37, 74};
  montage_config.scene.tile_y0 = {0, 36};
  const montage::MontageApp montage(montage_config);
  nyx::NyxConfig nyx_config;
  nyx_config.field.n = 16;
  const nyx::NyxApp nyx(nyx_config);

  auto builder = exp::PlanBuilder().runs(16).seed(9);
  for (const char* fault :
       {"BF", "SW", "SHORN_WRITE@pwrite{tail=stale}", "SHORN_WRITE@pwrite{tail=garbage}",
        "DW", "IO_ERROR@pwrite"}) {
    builder.cell(toy, fault);  // cells 0-5
  }
  for (const char* fault : {"TORN_SECTOR@pwrite", "LSE", "MW", "BIT_ROT@pwrite"}) {
    builder.cell(sectors, fault);  // cells 6-9
  }
  // Cells 10-12 resume Montage from its stage-3 checkpoint; the read-side
  // faults need an application that reads while it runs.
  for (const char* fault : {"SW", "BIT_FLIP@pread", "DROPPED_WRITE@pread"}) {
    builder.cell(montage, fault, 3);
  }
  builder.cell(nyx, "SW");  // cell 13
  const auto plan = builder.build();

  // The reference: each cell prepared the same way, every run executed
  // directly from its seed, plus the replay label that seed sequence implies
  // — the run's instance is feature-free, and a lower-index run draws it.
  exp::EngineOptions reference_options;
  exp::CellPreparer preparer(plan, reference_options);
  std::vector<std::vector<core::RunResult>> direct(plan.size());
  std::vector<std::vector<bool>> expected_replayed(plan.size());
  std::vector<std::uint64_t> expected_replays(plan.size(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    exp::PreparedCell cell = preparer.prepare(i);
    ASSERT_TRUE(cell.error.empty()) << plan.cells()[i].label << ": " << cell.error;
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < plan.cells()[i].runs; ++r) {
      const core::RunDraw draw = cell.injector->draw(cell.generator->run_seed(r));
      direct[i].push_back(cell.injector->execute_at(draw.instance, draw.feature_seed));
      const bool feature_free = !direct[i].back().record.features_drawn;
      if (seen.insert(draw.instance).second) {
        // The premise replay rests on: whether a fault draws a feature is a
        // function of its instance, whatever the feature seed.
        EXPECT_EQ(cell.injector->execute_at(draw.instance, ~draw.feature_seed)
                      .record.features_drawn,
                  !feature_free)
            << plan.cells()[i].label << " instance " << draw.instance;
        expected_replayed[i].push_back(false);
        continue;
      }
      expected_replayed[i].push_back(feature_free);
      if (feature_free) ++expected_replays[i];
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(plan);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const exp::CellResult& cell = report.cells[i];
      SCOPED_TRACE(cell.cell.label + " at " + std::to_string(threads) + " threads");
      ASSERT_TRUE(cell.error.empty()) << cell.error;
      ASSERT_EQ(cell.details.size(), direct[i].size());
      std::uint64_t replayed = 0;
      for (std::size_t r = 0; r < direct[i].size(); ++r) {
        const core::RunResult& got = cell.details[r];
        const core::RunResult& want = direct[i][r];
        EXPECT_EQ(got.outcome, want.outcome) << "run " << r;
        EXPECT_EQ(got.fault_fired, want.fault_fired) << "run " << r;
        EXPECT_EQ(record_fields(got.record), record_fields(want.record)) << "run " << r;
        EXPECT_EQ(got.crash_reason, want.crash_reason) << "run " << r;
        EXPECT_EQ(got.analyze_skipped, want.analyze_skipped) << "run " << r;
        EXPECT_EQ(non_arena_stats(got.fs_stats), non_arena_stats(want.fs_stats))
            << "run " << r;
        EXPECT_EQ(got.replayed, expected_replayed[i][r]) << "run " << r;
        if (got.replayed) ++replayed;
      }
      EXPECT_EQ(cell.runs_replayed, replayed);
      // Labels come from the plan, so racing threads change nothing.
      EXPECT_EQ(cell.runs_replayed, expected_replays[i]);
    }
    // Bit flips and media faults draw a feature every run; the feature-free
    // models (shorn adjacent-data and stale tails, drops, I/O errors) repeat.
    // MW (cell 8) is both: a misdirected write into a one-sector file has no
    // victim sector to draw, so SectorApp's first write replays.
    for (const std::size_t i : {0, 3, 6, 7, 9, 11}) {
      EXPECT_EQ(report.cells[i].runs_replayed, 0u) << report.cells[i].cell.label;
    }
    for (const std::size_t i : {1, 2, 4, 5, 8, 10, 13}) {
      EXPECT_GT(expected_replays[i], 0u) << report.cells[i].cell.label;
    }
    EXPECT_TRUE(report.cells[10].checkpointed);
  }
}

// --- Engine: unobserved-fault synthesis ----------------------------------------

/// An analysis as one comparable value (metrics by bit pattern, so NaNs of a
/// corrupted run compare equal to themselves).
auto analysis_fields(const std::optional<core::AnalysisResult>& a) {
  std::vector<std::pair<std::string, std::uint64_t>> metrics;
  if (a.has_value()) {
    for (const auto& [name, v] : a->metrics) metrics.emplace_back(name, std::bit_cast<std::uint64_t>(v));
  }
  return std::tuple(a.has_value(), a ? a->comparison_blob : util::Bytes{},
                    a ? a->report : std::string{}, metrics);
}

/// Expects `got` to equal the direct execution `want` in every field but
/// the timers, the arena counters and the replayed/synthesized flags.
void expect_same_run(const core::RunResult& got, const core::RunResult& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.fault_fired, want.fault_fired);
  EXPECT_EQ(record_fields(got.record), record_fields(want.record));
  EXPECT_EQ(got.crash_reason, want.crash_reason);
  EXPECT_EQ(analysis_fields(got.analysis), analysis_fields(want.analysis));
  EXPECT_EQ(got.analyze_skipped, want.analyze_skipped);
  EXPECT_EQ(non_arena_stats(got.fs_stats), non_arena_stats(want.fs_stats));
}

/// Per cell: the runs the engine synthesizes and the runs it resumes late.
struct SynthesisCounts {
  std::uint64_t synthesized = 0;
  std::uint64_t resumed_late = 0;
  bool operator==(const SynthesisCounts&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const SynthesisCounts& c) {
    return os << "{synthesized " << c.synthesized << ", resumed late " << c.resumed_late << "}";
  }
};

/// Runs `plan` through the engine at 1 and 4 threads (keep_details) and
/// checks every run against direct FaultInjector::execute, and every run
/// the injector synthesizes or resumes late against execute_at of the same
/// draw, FsDiff included.  Returns the per-cell counts, which the engine
/// must report exactly: a repeat of a feature-free instance counts as
/// replayed only, whichever run of the instance ran.
std::vector<SynthesisCounts> expect_synthesis_matches_execution(
    const exp::ExperimentPlan& plan, exp::EngineOptions options) {
  exp::CellPreparer preparer(plan, options);
  std::vector<std::vector<core::RunResult>> direct(plan.size());
  std::vector<SynthesisCounts> expected(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    SCOPED_TRACE(plan.cells()[i].label);
    exp::PreparedCell cell = preparer.prepare(i);
    EXPECT_TRUE(cell.error.empty()) << cell.error;
    if (!cell.error.empty()) return expected;
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < plan.cells()[i].runs; ++r) {
      const std::uint64_t seed = cell.generator->run_seed(r);
      direct[i].push_back(cell.injector->execute(seed));
      const core::RunDraw draw = cell.injector->draw(seed);
      const bool repeat =
          !seen.insert(draw.instance).second && !direct[i].back().record.features_drawn;
      vfs::FsDiff synthesized_diff;
      const auto synthesized = cell.injector->synthesize(draw, &synthesized_diff);
      if (!synthesized.has_value()) continue;
      SCOPED_TRACE("run " + std::to_string(r) + ", instance " + std::to_string(draw.instance));
      EXPECT_NE(synthesized->synthesized, synthesized->resumed_late);
      expect_same_run(*synthesized, direct[i].back());
      vfs::FsDiff executed_diff;
      (void)cell.injector->execute_at(draw.instance, draw.feature_seed, &executed_diff);
      EXPECT_TRUE(synthesized_diff == executed_diff);
      if (repeat) continue;
      ++(synthesized->synthesized ? expected[i].synthesized : expected[i].resumed_late);
    }
  }

  options.keep_details = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const auto report = exp::Engine(options).run(plan);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const exp::CellResult& cell = report.cells[i];
      SCOPED_TRACE(cell.cell.label + " at " + std::to_string(threads) + " threads");
      EXPECT_TRUE(cell.error.empty()) << cell.error;
      EXPECT_EQ(cell.details.size(), direct[i].size());
      if (cell.details.size() != direct[i].size()) continue;
      SynthesisCounts counted;
      for (std::size_t r = 0; r < direct[i].size(); ++r) {
        SCOPED_TRACE("run " + std::to_string(r));
        const core::RunResult& run = cell.details[r];
        expect_same_run(run, direct[i][r]);
        EXPECT_LE(int{run.replayed} + int{run.synthesized} + int{run.resumed_late}, 1);
        if (run.synthesized) ++counted.synthesized;
        if (run.resumed_late) ++counted.resumed_late;
      }
      // A function of the plan alone: exact at any thread count.
      EXPECT_EQ(cell.runs_synthesized, counted.synthesized);
      EXPECT_EQ(cell.runs_resumed_late, counted.resumed_late);
      EXPECT_EQ(counted, expected[i]);
    }
  }
  return expected;
}

TEST(Engine, SynthesizedRunsMatchDirectExecutionOnEveryModel) {
  ToyApp toy;
  SectorApp sectors;
  montage::MontageConfig montage_config;
  montage_config.scene.tile_x0 = {0, 37, 74};
  montage_config.scene.tile_y0 = {0, 36};
  const montage::MontageApp montage(montage_config);
  nyx::NyxConfig nyx_config;
  nyx_config.field.n = 16;
  nyx_config.timesteps = 2;
  const nyx::NyxApp nyx(nyx_config);
  const qmc::QmcApp qmc;

  auto builder = exp::PlanBuilder().runs(12).seed(5);
  for (const char* fault :
       {"BF", "BIT_FLIP@pwrite{width=4}", "SW", "SHORN_WRITE@pwrite{tail=stale}",
        "SHORN_WRITE@pwrite{tail=garbage,completed=3}", "DW", "IO_ERROR@pwrite"}) {
    builder.cell(toy, fault);  // cells 0-6
  }
  for (const char* fault : {"TORN_SECTOR@pwrite", "LSE", "MW", "BIT_ROT@pwrite"}) {
    builder.cell(sectors, fault);  // cells 7-10
  }
  for (const int stage : {3, 4}) {  // cells 11-16
    for (const char* fault : {"BF", "SHORN_WRITE@pwrite{tail=garbage}", "BIT_FLIP@pread"}) {
      builder.cell(montage, fault, stage);
    }
  }
  builder.cell(nyx, "BF");                                 // cell 17: whole run
  builder.cell(nyx, "SHORN_WRITE@pwrite{tail=garbage}", 2);  // cell 18
  builder.cell(qmc, "BF", 2);                              // cell 19
  builder.cell(qmc, "DW", 2);                              // cell 20
  const auto plan = builder.build();

  const auto counts = expect_synthesis_matches_execution(plan, exp::EngineOptions{});
  ASSERT_EQ(counts.size(), plan.size());
  // The toy never reads a write back: every silent write fault synthesizes,
  // the adjacent-data shorn write once per instance drawn (its repeats
  // replay).
  EXPECT_EQ(counts[0], (SynthesisCounts{12, 0}));
  EXPECT_EQ(counts[1], (SynthesisCounts{12, 0}));
  EXPECT_GT(counts[2].synthesized, 0u);
  EXPECT_EQ(counts[4], (SynthesisCounts{12, 0}));
  // Montage's mAdd reads every stage-3 tile back in stage 4, so those runs
  // resume there; stage 4 writes most of its outputs after its last
  // re-read; Nyx's later dump rewrites a slab of the first; QMC reads
  // nothing back.
  EXPECT_EQ(counts[11], (SynthesisCounts{0, 12}));
  EXPECT_EQ(counts[12], (SynthesisCounts{0, 12}));
  EXPECT_GT(counts[14].synthesized, 0u);
  EXPECT_GT(counts[15].synthesized, 0u);
  EXPECT_GT(counts[17].synthesized, 0u);
  EXPECT_GT(counts[18].synthesized, 0u);
  EXPECT_EQ(counts[19], (SynthesisCounts{12, 0}));
  // SectorApp writes four 512 B sectors once each and reads none back.  A
  // rotted or unreadable sector always synthesizes; a torn or misdirected
  // one only in the middle two: the first is the first write into its
  // extent, and the last, torn, would leave the file short.
  EXPECT_EQ(counts[7], (SynthesisCounts{7, 0}));
  EXPECT_EQ(counts[8], (SynthesisCounts{12, 0}));
  EXPECT_EQ(counts[9], (SynthesisCounts{7, 0}));
  EXPECT_EQ(counts[10], (SynthesisCounts{12, 0}));
  // Models synthesis leaves alone, and the last stage has no later one.
  for (const std::size_t i : {3, 5, 6, 13, 16, 20}) {
    EXPECT_EQ(counts[i], SynthesisCounts{}) << plan.cells()[i].label;
  }
  for (const std::size_t i : {14, 15, 17, 18}) {
    EXPECT_EQ(counts[i].resumed_late, 0u) << plan.cells()[i].label;
  }
}

TEST(Engine, MediaRunsMatchTheReferenceOracleCrashTextIncluded) {
  // A misdirected write faults its target sector and its victim.  The
  // engine classifies from the dirty ranges (the lower one read first), the
  // oracle reads the whole file in one pread; a read spanning both faulted
  // sectors must name the same one either way.
  nyx::NyxConfig config;
  config.field.n = 80;
  config.timesteps = 2;
  const nyx::NyxApp nyx(config);
  for (const std::uint64_t seed : {42u, 7u}) {
    auto builder = exp::PlanBuilder().runs(64).seed(seed);
    for (const char* fault : {"MW", "LSE", "BIT_ROT@pwrite{sector=512,scrub=on,width=1}"}) {
      builder.cell(nyx, fault);
    }
    const auto plan = builder.build();
    exp::EngineOptions options;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(plan);
    const auto reference = exp::reference_run(plan);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      SCOPED_TRACE(plan.cells()[i].label + " at seed " + std::to_string(seed));
      ASSERT_TRUE(report.cells[i].error.empty()) << report.cells[i].error;
      ASSERT_EQ(report.cells[i].details.size(), reference.cells[i].details.size());
      for (std::size_t r = 0; r < report.cells[i].details.size(); ++r) {
        SCOPED_TRACE("run " + std::to_string(r));
        const core::RunResult& got = report.cells[i].details[r];
        const core::RunResult& want = reference.cells[i].details[r];
        EXPECT_EQ(got.outcome, want.outcome);
        EXPECT_EQ(got.fault_fired, want.fault_fired);
        EXPECT_EQ(record_fields(got.record), record_fields(want.record));
        EXPECT_EQ(got.crash_reason, want.crash_reason);
      }
    }
  }
}

/// The bench's media-scrub plan: Nyx 80^3 with two dumps under the four
/// media signatures, `runs` per cell.
exp::ExperimentPlan media_scrub_plan(const nyx::NyxApp& nyx, std::uint64_t runs) {
  return exp::PlanBuilder()
      .runs(runs)
      .seed(42)
      .app(nyx)
      .faults({"BIT_ROT@pwrite{sector=512,scrub=on,width=1}",
               "TORN_SECTOR@pwrite{sector=4096,scrub=off}", "LSE", "MW"})
      .product()
      .build();
}

TEST(Engine, MediaScrubShapedPlanSynthesizesAndMatchesTheOracle) {
  // Nyx reads nothing back while it runs, so a media fault's sector is
  // observed only by the second dump's rewrite of slab z=0 (or, for a torn
  // or misdirected slice, by its position); every other run is synthesized
  // from the golden tree.  Each run must still equal the reference oracle's
  // execution, at 1 and 4 threads, and the synthesized count is a function
  // of the plan.
  nyx::NyxConfig config;
  config.field.n = 80;
  config.timesteps = 2;
  const nyx::NyxApp nyx(config);
  constexpr std::uint64_t kRuns = 200;
  const auto plan = media_scrub_plan(nyx, kRuns);
  const auto reference = exp::reference_run(plan);
  // Measured at seed 42: BIT_ROT, TORN_SECTOR{4096}, LSE, MW.
  const std::vector<std::uint64_t> synthesized = {190, 157, 190, 177};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(plan);
    ASSERT_EQ(report.cells.size(), synthesized.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const exp::CellResult& cell = report.cells[i];
      SCOPED_TRACE(cell.cell.label + " at " + std::to_string(threads) + " threads");
      ASSERT_TRUE(cell.error.empty()) << cell.error;
      ASSERT_EQ(cell.details.size(), kRuns);
      std::uint64_t counted = 0;
      for (std::size_t r = 0; r < kRuns; ++r) {
        SCOPED_TRACE("run " + std::to_string(r));
        const core::RunResult& got = cell.details[r];
        const core::RunResult& want = reference.cells[i].details[r];
        EXPECT_EQ(got.outcome, want.outcome);
        EXPECT_EQ(got.fault_fired, want.fault_fired);
        EXPECT_EQ(record_fields(got.record), record_fields(want.record));
        EXPECT_EQ(got.crash_reason, want.crash_reason);
        EXPECT_EQ(got.fs_stats.sectors_faulted, want.fs_stats.sectors_faulted);
        EXPECT_EQ(got.fs_stats.crc_detected, want.fs_stats.crc_detected);
        if (got.synthesized) ++counted;
      }
      EXPECT_EQ(cell.runs_synthesized, counted);
      EXPECT_EQ(cell.runs_synthesized, synthesized[i]);
    }
  }
}

TEST(Engine, LateResumedRunsMatchDirectExecution) {
  const LateReaderApp reader;
  montage::MontageConfig montage_config;
  montage_config.scene.tile_x0 = {0, 37, 74};
  montage_config.scene.tile_y0 = {0, 36};
  const montage::MontageApp montage(montage_config);

  auto builder = exp::PlanBuilder().runs(12).seed(11);
  for (const char* fault : {"BF", "SHORN_WRITE@pwrite{tail=garbage}", "SW",
                            "SHORN_WRITE@pwrite{completed=8}"}) {
    for (const int stage : {1, 2}) builder.cell(reader, fault, stage);  // cells 0-7
  }
  for (const int stage : {1, 2, 3}) {
    for (const char* fault : {"BF", "SW"}) builder.cell(montage, fault, stage);  // cells 8-13
  }
  const auto plan = builder.build();

  const auto counts = expect_synthesis_matches_execution(plan, exp::EngineOptions{});
  ASSERT_EQ(counts.size(), plan.size());
  // Stage 1 writes the header (read in stage 3) and four chunks (two read in
  // stage 2, two in stage 3); stage 2 writes two chunks read in stage 3.  So
  // every run of the reader resumes late, except that a feature-free shorn
  // write resumes once per instance drawn (its repeats replay).  Montage's
  // stage-1 and stage-3 writes are first read in a later stage; at this
  // seed its stage-2 cells draw only writes stage 2 reads back itself.
  const std::vector<SynthesisCounts> want = {
      {0, 12}, {0, 12}, {0, 12}, {0, 12}, {0, 4},  {0, 2},  {0, 4},
      {0, 2},  {0, 12}, {0, 10}, {0, 0},  {0, 0},  {0, 12}, {0, 10}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(counts[i], want[i]) << plan.cells()[i].label;
  }

  // Runs resumed late crash where the resumed stage rejects the header.
  exp::EngineOptions options;
  options.keep_details = true;
  const auto report = exp::Engine(options).run(plan);
  std::uint64_t late_crashes = 0;
  for (const std::size_t i : {0, 2, 4}) {
    for (const core::RunResult& run : report.cells[i].details) {
      if (run.resumed_late && run.outcome == Outcome::Crash) {
        EXPECT_EQ(run.crash_reason, "late-reader: bad header");
        ++late_crashes;
      }
    }
  }
  EXPECT_GT(late_crashes, 0u);
}

TEST(FaultInjector, AsksForEachObservingStageOnceAndChecksTheAnswer) {
  const LateReaderApp app;
  const auto signature = faults::parse_fault_signature("BF");
  const auto golden =
      std::make_shared<const core::AnalysisResult>(core::FaultInjector::run_golden(app, 1));
  const auto checkpoint = core::Checkpoint::capture(app, 1, 1);
  const auto stage3 = core::Checkpoint::capture(app, 1, 3);

  // No answer: every run executes.
  std::vector<int> asked;
  core::FaultInjector unanswered(app, signature, 1, 1);
  unanswered.prepare_with_checkpoint(golden, checkpoint, nullptr, [&](int stage) {
    asked.push_back(stage);
    return core::StageGolden{};
  });
  // In instance order: the header, read in stage 3, then chunks 0-1, read
  // in stage 2.
  EXPECT_EQ(asked, (std::vector<int>{3, 2}));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_FALSE(unanswered.synthesize(unanswered.draw(seed)).has_value());
  }

  // An answer for another stage is a configuration error.
  core::FaultInjector misanswered(app, signature, 1, 1);
  EXPECT_THROW(misanswered.prepare_with_checkpoint(
                   golden, checkpoint, nullptr,
                   [&](int) {
                     return core::StageGolden{stage3, stage3->grow_golden_tree(app, 1)};
                   }),
               std::invalid_argument);
}

TEST(Engine, SynthesisUnderForcedBlockDeviceMatchesExecution) {
  montage::MontageConfig montage_config;
  montage_config.scene.tile_x0 = {0, 37, 74};
  montage_config.scene.tile_y0 = {0, 36};
  const montage::MontageApp montage(montage_config);
  auto builder = exp::PlanBuilder().runs(12).seed(8);
  builder.cell(montage, "BF", 4);
  exp::EngineOptions options;
  options.force_block_device = true;
  const auto counts = expect_synthesis_matches_execution(builder.build(), options);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_GT(counts[0].synthesized, 0u);
}

TEST(Engine, ProgressReachesTotalRuns) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(5);
  builder.cell(app, "BF");
  builder.cell(app, "DW");
  std::atomic<std::uint64_t> last_done{0}, last_total{0};
  exp::EngineOptions options;
  options.threads = 2;
  options.progress = [&](std::uint64_t done, std::uint64_t total) {
    last_done.store(done);
    last_total.store(total);
  };
  const auto report = exp::Engine(options).run(builder.build());
  EXPECT_EQ(report.total_runs, 10u);
  EXPECT_EQ(last_total.load(), 10u);
  EXPECT_EQ(last_done.load(), 10u);
}

TEST(Engine, CancellationProducesPartialCancelledReport) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(256);
  builder.cell(app, "BF");
  builder.cell(app, "DW");
  std::unique_ptr<exp::Engine> engine;
  exp::EngineOptions options;
  options.progress = [&](std::uint64_t done, std::uint64_t) {
    if (done >= 8) engine->request_cancel();
  };
  engine = std::make_unique<exp::Engine>(options);
  const auto report = engine->run(builder.build());
  EXPECT_TRUE(report.cancelled);
  EXPECT_LT(report.total_runs, 512u);
  EXPECT_GE(report.total_runs, 8u);
  std::uint64_t completed = 0;
  for (const auto& cell : report.cells) completed += cell.runs_completed;
  EXPECT_EQ(completed, report.total_runs);
}

// --- CellCollector -----------------------------------------------------------

/// Records every emitted cell, in emission order.
struct RecordingSink final : exp::ResultSink {
  std::vector<exp::CellResult> cells;
  void cell(const exp::CellResult& result) override { cells.push_back(result); }
};

exp::ExperimentPlan two_cell_plan(const core::Application& app, std::uint64_t runs) {
  auto builder = exp::PlanBuilder().runs(runs).seed(5);
  builder.cell(app, "BF");
  builder.cell(app, "DW");
  return builder.build();
}

/// A synthetic run whose execute_ms makes the Sum fold order-sensitive:
/// (1e16 + 1.0) - 1e16 == 0, but (1e16 - 1e16) + 1.0 == 1.
core::RunResult synthetic_run(std::uint64_t r) {
  static constexpr double kMs[] = {1e16, 1.0, -1e16};
  core::RunResult run;
  run.outcome = static_cast<Outcome>(r % core::kOutcomeCount);
  run.fault_fired = r % 3 != 0;
  run.analyze_skipped = r % 2 == 0;
  run.execute_ms = kMs[r % 3];
  run.analyze_ms = 0.1 * static_cast<double>(r);
  run.fs_stats.pread_calls = 100 + r;
  run.analysis.emplace();
  return run;
}

void expect_same_tally(const core::OutcomeTally& a, const core::OutcomeTally& b) {
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(a.count(static_cast<Outcome>(o)), b.count(static_cast<Outcome>(o)));
  }
}

TEST(CellCollector, ShuffledLandingFoldsBitwiseLikeRunOrder) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 9);
  std::vector<std::uint64_t> order(9);
  for (std::uint64_t r = 0; r < 9; ++r) order[r] = r;

  const auto collect = [&](const std::vector<std::uint64_t>& runs) {
    RecordingSink sink;
    exp::CellCollector collector(plan, sink, /*keep_details=*/false);
    for (std::size_t c = 0; c < 2; ++c) {
      collector.set_facts(c, exp::CellFacts{});
      for (const std::uint64_t r : runs) EXPECT_TRUE(collector.land(c, r, synthetic_run(r)));
    }
    EXPECT_EQ(sink.cells.size(), 2u);  // both finalized on their last landing
    return collector.finish();
  };
  const exp::ExperimentReport in_order = collect(order);
  // Summed in this landing order, execute_ms would be 1.0; in run order 0.0.
  const exp::ExperimentReport shuffled = collect({2, 0, 8, 5, 3, 7, 1, 6, 4});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(in_order.cells[0].execute_ms),
            std::bit_cast<std::uint64_t>(0.0));
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(test_support::counter_values(shuffled.cells[c]),
              test_support::counter_values(in_order.cells[c]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(shuffled.cells[c].execute_ms),
              std::bit_cast<std::uint64_t>(in_order.cells[c].execute_ms));
    expect_same_tally(shuffled.cells[c].tally, in_order.cells[c].tally);
    EXPECT_EQ(shuffled.cells[c].faults_not_fired, in_order.cells[c].faults_not_fired);
    EXPECT_EQ(shuffled.cells[c].runs_completed, 9u);
  }
  EXPECT_EQ(test_support::counter_values(shuffled), test_support::counter_values(in_order));
  EXPECT_EQ(shuffled.total_runs, 18u);
}

TEST(CellCollector, FeatureFreeLandingFillsItsInstanceAndLabelsItsRepeats) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 9);
  exp::CellFacts facts;
  facts.primitive_count = 3;  // nine runs over three instances repeat some
  const std::vector<std::uint64_t> leaders = exp::instance_runs(plan.cells()[0], 3).leader;
  RecordingSink sink;
  exp::CellCollector collector(plan, sink, /*keep_details=*/true);
  std::uint64_t repeats = 0;
  std::set<std::uint64_t> landed_instances;
  for (std::size_t c = 0; c < 2; ++c) collector.set_facts(c, facts);
  // Highest run first: the first landing of each instance is its last run.
  for (std::uint64_t r = 9; r-- > 0;) {
    core::RunResult run = synthetic_run(r);
    run.fs_stats.arena_slabs_allocated = 7;
    run.record.features_drawn = false;
    const bool first = landed_instances.insert(leaders[r]).second;
    EXPECT_EQ(collector.land(0, r, run), first) << "run " << r;
    run.record.features_drawn = true;  // cell 1: every run lands alone
    EXPECT_TRUE(collector.land(1, r, run)) << "run " << r;
    if (leaders[r] != r) ++repeats;
  }
  ASSERT_GT(repeats, 0u);
  const exp::ExperimentReport report = collector.finish();
  const exp::CellResult& filled = report.cells[0];
  ASSERT_EQ(filled.details.size(), 9u);
  for (std::uint64_t r = 0; r < 9; ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    const core::RunResult& got = filled.details[r];
    EXPECT_EQ(got.replayed, leaders[r] != r);
    // The landed run keeps its timers and arena counters; a fill has none.
    std::uint64_t last = r;
    for (std::uint64_t later = r + 1; later < 9; ++later) {
      if (leaders[later] == leaders[r]) last = later;
    }
    const core::RunResult source = synthetic_run(last);
    EXPECT_EQ(got.outcome, source.outcome);
    EXPECT_EQ(got.fs_stats.pread_calls, source.fs_stats.pread_calls);
    EXPECT_EQ(got.execute_ms, last == r ? source.execute_ms : 0.0);
    EXPECT_EQ(got.fs_stats.arena_slabs_allocated, last == r ? 7u : 0u);
  }
  EXPECT_EQ(filled.runs_replayed, repeats);
  EXPECT_EQ(filled.runs_completed, 9u);
  EXPECT_EQ(report.cells[1].runs_replayed, 0u);
  EXPECT_EQ(report.cells[1].runs_completed, 9u);
}

TEST(CellCollector, FeatureFreeSynthesisCountsOnlyItsLeader) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 9);
  exp::CellFacts facts;
  facts.primitive_count = 3;
  const std::vector<std::uint64_t> leaders = exp::instance_runs(plan.cells()[0], 3).leader;
  const std::set<std::uint64_t> instances(leaders.begin(), leaders.end());
  RecordingSink sink;
  exp::CellCollector collector(plan, sink, /*keep_details=*/true);
  for (std::size_t c = 0; c < 2; ++c) collector.set_facts(c, facts);
  // Highest run first, so a repeat lands before its leader and fills it.
  for (std::uint64_t r = 9; r-- > 0;) {
    core::RunResult run = synthetic_run(r);
    run.record.features_drawn = false;
    run.synthesized = true;  // cell 0
    (void)collector.land(0, r, run);
    run.synthesized = false;
    run.resumed_late = true;  // cell 1
    (void)collector.land(1, r, run);
  }
  for (std::uint64_t r = 0; r < 9; ++r) {
    // A filled slot keeps how its instance ran (a journal row relabels the
    // leader from it); the fold counts only the leader.
    ASSERT_NE(collector.landed(0, r), nullptr);
    EXPECT_TRUE(collector.landed(0, r)->synthesized) << "run " << r;
  }
  const exp::ExperimentReport report = collector.finish();
  for (std::size_t c = 0; c < 2; ++c) {
    const exp::CellResult& cell = report.cells[c];
    SCOPED_TRACE(cell.cell.label);
    ASSERT_EQ(cell.details.size(), 9u);
    for (std::uint64_t r = 0; r < 9; ++r) {
      const bool leader = leaders[r] == r;
      EXPECT_EQ(cell.details[r].replayed, !leader) << "run " << r;
      EXPECT_EQ(cell.details[r].synthesized, leader && c == 0) << "run " << r;
      EXPECT_EQ(cell.details[r].resumed_late, leader && c == 1) << "run " << r;
    }
    EXPECT_EQ(cell.runs_replayed, 9u - instances.size());
    EXPECT_EQ(c == 0 ? cell.runs_synthesized : cell.runs_resumed_late, instances.size());
    EXPECT_EQ(c == 0 ? cell.runs_resumed_late : cell.runs_synthesized, 0u);
  }
}

TEST(CellCollector, DuplicateLandingIsRejectedAndCountedOnce) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 3);
  RecordingSink sink;
  exp::CellCollector collector(plan, sink, /*keep_details=*/true);
  core::RunResult first = synthetic_run(1);
  first.worker_id = 4;
  core::RunResult second = synthetic_run(2);
  second.worker_id = 9;
  EXPECT_TRUE(collector.land(0, 1, first));
  EXPECT_FALSE(collector.land(0, 1, second));
  ASSERT_NE(collector.landed(0, 1), nullptr);
  EXPECT_EQ(collector.landed(0, 1)->worker_id, 4u);
  EXPECT_TRUE(collector.landed(0, 1)->analysis.has_value());  // keep_details
  EXPECT_EQ(collector.landed(0, 0), nullptr);
  const exp::ExperimentReport report = collector.finish();
  EXPECT_EQ(report.cells[0].runs_completed, 1u);
  EXPECT_EQ(report.cells[0].tally.count(first.outcome), 1u);
  EXPECT_EQ(report.cells[0].details.size(), 1u);
  EXPECT_EQ(report.cells[0].worker_ids, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(report.total_runs, 1u);
}

TEST(CellCollector, ErrorFactsFinalizeAtOnceButEmitInPlanOrder) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 4);
  RecordingSink sink;
  exp::CellCollector collector(plan, sink, /*keep_details=*/false);
  exp::CellFacts broken;
  broken.error = "never executes the target primitive";
  EXPECT_TRUE(collector.set_facts(1, broken, /*worker_id=*/7));
  EXPECT_FALSE(collector.land(1, 0, synthetic_run(0)));  // final: nothing lands
  EXPECT_TRUE(sink.cells.empty());  // cell 0 is still open
  for (std::uint64_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(sink.cells.empty());
    EXPECT_TRUE(collector.land(0, r, synthetic_run(r)));
  }
  ASSERT_EQ(sink.cells.size(), 2u);
  EXPECT_EQ(sink.cells[0].index, 0u);
  EXPECT_EQ(sink.cells[1].index, 1u);
  EXPECT_EQ(sink.cells[1].error, broken.error);
  EXPECT_EQ(sink.cells[1].runs_completed, 0u);
  EXPECT_EQ(sink.cells[1].worker_ids, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(collector.finish().total_runs, 4u);
}

TEST(CellCollector, FinishAfterPartialLandingKeepsTheLandedRuns) {
  ToyApp app;
  const auto plan = two_cell_plan(app, 8);
  RecordingSink sink;
  exp::CellCollector collector(plan, sink, /*keep_details=*/false);
  for (const std::uint64_t r : {6, 1, 3}) EXPECT_TRUE(collector.land(0, r, synthetic_run(r)));
  collector.retire(0, 2);
  EXPECT_FALSE(collector.landed(0, 6)->analysis.has_value());  // no details: dropped
  EXPECT_EQ(collector.landed(0, 2), nullptr);
  EXPECT_TRUE(collector.land(1, 5, synthetic_run(5)));
  EXPECT_TRUE(sink.cells.empty());
  const exp::ExperimentReport report = collector.finish();
  ASSERT_EQ(sink.cells.size(), 2u);
  EXPECT_EQ(report.cells[0].runs_completed, 3u);
  EXPECT_EQ(report.cells[1].runs_completed, 1u);
  EXPECT_EQ(report.total_runs, 4u);
  EXPECT_TRUE(report.cells[0].error.empty());
}

// --- Sinks -------------------------------------------------------------------

TEST(Sinks, CellsStreamInPlanOrder) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(16).seed(3);
  builder.cell(app, "BF");
  builder.cell(app, "DW");
  builder.cell(app, "SHORN_WRITE@pwrite");

  struct OrderSink final : exp::ResultSink {
    std::vector<std::size_t> order;
    bool began = false, ended = false;
    void begin(const exp::ExperimentPlan&) override { began = true; }
    void cell(const exp::CellResult& result) override { order.push_back(result.index); }
    void end(const exp::ExperimentReport&) override { ended = true; }
  } sink;

  exp::EngineOptions options;
  options.threads = 4;  // stress emission ordering under concurrency
  exp::Engine(options).run(builder.build(), sink);
  EXPECT_TRUE(sink.began);
  EXPECT_TRUE(sink.ended);
  EXPECT_EQ(sink.order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Sinks, CsvRoundTrip) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(12).seed(5);
  builder.cell(app, "BIT_FLIP@pwrite{width=2}", -1, "with,comma \"quoted\"");
  builder.cell(app, "SHORN_WRITE@pwrite", -1, "label\nwith newline and\r\nCRLF");
  builder.cell(app, "DW", 2);
  const auto plan = builder.build();

  std::ostringstream out;
  exp::CsvSink sink(out);
  const auto report = exp::Engine().run(plan, sink);

  std::istringstream in(out.str());
  const auto rows = exp::read_csv_results(in);
  ASSERT_EQ(rows.size(), report.cells.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto expected = exp::to_sink_row(report.cells[i]);
    EXPECT_EQ(rows[i].index, expected.index);
    EXPECT_EQ(rows[i].label, expected.label);
    EXPECT_EQ(rows[i].application, expected.application);
    EXPECT_EQ(rows[i].fault, expected.fault);
    EXPECT_EQ(rows[i].stage, expected.stage);
    EXPECT_EQ(rows[i].runs, expected.runs);
    EXPECT_EQ(rows[i].seed, expected.seed);
    EXPECT_EQ(rows[i].primitive_count, expected.primitive_count);
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(rows[i].tally.count(static_cast<Outcome>(o)),
                expected.tally.count(static_cast<Outcome>(o)));
    }
    EXPECT_EQ(rows[i].faults_not_fired, expected.faults_not_fired);
    EXPECT_EQ(rows[i].chunks_allocated, expected.chunks_allocated);
    EXPECT_EQ(rows[i].chunk_detaches, expected.chunk_detaches);
    EXPECT_EQ(rows[i].cow_bytes_copied, expected.cow_bytes_copied);
    // Timers are serialized at fixed 4-decimal-ms precision.
    EXPECT_NEAR(rows[i].execute_ms, expected.execute_ms, 1e-3);
    EXPECT_NEAR(rows[i].analyze_ms, expected.analyze_ms, 1e-3);
    EXPECT_EQ(rows[i].analyze_skipped, expected.analyze_skipped);
    EXPECT_EQ(rows[i].golden_cached, expected.golden_cached);
    EXPECT_EQ(rows[i].checkpoint_loaded, expected.checkpoint_loaded);
    EXPECT_EQ(rows[i].error, expected.error);
  }
}

TEST(Sinks, JsonlRoundTrip) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(12).seed(5);
  builder.cell(app, "BF", -1, "label \"with\" quotes\nand newline");
  builder.cell(app, "SHORN_WRITE@pwrite", 1);
  const auto plan = builder.build();

  std::ostringstream out;
  exp::JsonlSink sink(out);
  const auto report = exp::Engine().run(plan, sink);

  std::istringstream in(out.str());
  const auto rows = exp::read_jsonl_results(in);
  ASSERT_EQ(rows.size(), report.cells.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto expected = exp::to_sink_row(report.cells[i]);
    EXPECT_EQ(rows[i].label, expected.label);
    EXPECT_EQ(rows[i].fault, expected.fault);
    EXPECT_EQ(rows[i].stage, expected.stage);
    EXPECT_EQ(rows[i].runs, expected.runs);
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(rows[i].tally.count(static_cast<Outcome>(o)),
                expected.tally.count(static_cast<Outcome>(o)));
    }
    EXPECT_EQ(rows[i].golden_cached, expected.golden_cached);
    EXPECT_EQ(rows[i].chunks_allocated, expected.chunks_allocated);
    EXPECT_EQ(rows[i].chunk_detaches, expected.chunk_detaches);
    EXPECT_EQ(rows[i].cow_bytes_copied, expected.cow_bytes_copied);
    EXPECT_NEAR(rows[i].execute_ms, expected.execute_ms, 1e-3);
    EXPECT_NEAR(rows[i].analyze_ms, expected.analyze_ms, 1e-3);
    EXPECT_EQ(rows[i].analyze_skipped, expected.analyze_skipped);
  }
}

TEST(Sinks, ReadersAcceptLegacyFilesWithoutStorageColumns) {
  // Result files written before the extent-store columns existed must stay
  // loadable; the missing counters default to zero.
  const std::string legacy_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,golden_cached,checkpointed,error\n"
      "0,OLD-BF,nyx,BF,-1,10,42,7,8,1,1,0,2,1,0,\n";
  std::istringstream csv_in(legacy_csv);
  const auto csv_rows = exp::read_csv_results(csv_in);
  ASSERT_EQ(csv_rows.size(), 1u);
  EXPECT_EQ(csv_rows[0].label, "OLD-BF");
  EXPECT_EQ(csv_rows[0].faults_not_fired, 2u);
  EXPECT_TRUE(csv_rows[0].golden_cached);
  EXPECT_EQ(csv_rows[0].chunks_allocated, 0u);
  EXPECT_EQ(csv_rows[0].cow_bytes_copied, 0u);

  const std::string legacy_jsonl =
      "{\"index\":0,\"label\":\"OLD-BF\",\"application\":\"nyx\",\"fault\":\"BF\","
      "\"stage\":-1,\"runs\":10,\"seed\":42,\"primitive_count\":7,\"benign\":8,"
      "\"detected\":1,\"sdc\":1,\"crash\":0,\"faults_not_fired\":2,"
      "\"golden_cached\":true,\"checkpointed\":false,\"error\":\"\"}\n";
  std::istringstream jsonl_in(legacy_jsonl);
  const auto jsonl_rows = exp::read_jsonl_results(jsonl_in);
  ASSERT_EQ(jsonl_rows.size(), 1u);
  EXPECT_EQ(jsonl_rows[0].label, "OLD-BF");
  EXPECT_EQ(jsonl_rows[0].chunk_detaches, 0u);

  // The layout is decided by the document's header: a 16-field row under the
  // current header is truncation, not a legacy record.
  const std::string truncated_csv =
      std::string(exp::CsvSink::header()) + "\n" +
      "0,OLD-BF,nyx,BF,-1,10,42,7,8,1,1,0,2,1,0,\n";
  std::istringstream truncated_in(truncated_csv);
  EXPECT_THROW((void)exp::read_csv_results(truncated_in), std::invalid_argument);
}

TEST(Sinks, ReadersAcceptExtentEraFilesWithoutTimerColumns) {
  // The extent-store generation (storage-traffic columns, no phase timers)
  // must stay loadable; timers and the skip counter default to zero.
  const std::string extent_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,chunks_allocated,chunk_detaches,"
      "cow_bytes_copied,golden_cached,checkpointed,error\n"
      "0,PR3-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,1,1,\n";
  std::istringstream csv_in(extent_csv);
  const auto csv_rows = exp::read_csv_results(csv_in);
  ASSERT_EQ(csv_rows.size(), 1u);
  EXPECT_EQ(csv_rows[0].label, "PR3-BF");
  EXPECT_EQ(csv_rows[0].chunks_allocated, 33u);
  EXPECT_EQ(csv_rows[0].cow_bytes_copied, 4096u);
  EXPECT_TRUE(csv_rows[0].checkpointed);
  EXPECT_EQ(csv_rows[0].execute_ms, 0.0);
  EXPECT_EQ(csv_rows[0].analyze_ms, 0.0);
  EXPECT_EQ(csv_rows[0].analyze_skipped, 0u);

  // A 19-field row under the current header is truncation, not extent-era.
  const std::string truncated_csv =
      std::string(exp::CsvSink::header()) + "\n" +
      "0,PR3-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,1,1,\n";
  std::istringstream truncated_in(truncated_csv);
  EXPECT_THROW((void)exp::read_csv_results(truncated_in), std::invalid_argument);

  const std::string extent_jsonl =
      "{\"index\":0,\"label\":\"PR3-BF\",\"application\":\"nyx\",\"fault\":\"BF\","
      "\"stage\":2,\"runs\":10,\"seed\":42,\"primitive_count\":7,\"benign\":8,"
      "\"detected\":1,\"sdc\":1,\"crash\":0,\"faults_not_fired\":2,"
      "\"chunks_allocated\":33,\"chunk_detaches\":4,\"cow_bytes_copied\":4096,"
      "\"golden_cached\":true,\"checkpointed\":true,\"error\":\"\"}\n";
  std::istringstream jsonl_in(extent_jsonl);
  const auto jsonl_rows = exp::read_jsonl_results(jsonl_in);
  ASSERT_EQ(jsonl_rows.size(), 1u);
  EXPECT_EQ(jsonl_rows[0].chunks_allocated, 33u);
  EXPECT_EQ(jsonl_rows[0].execute_ms, 0.0);
  EXPECT_EQ(jsonl_rows[0].analyze_skipped, 0u);
}

TEST(Sinks, ReadersAcceptTimedEraFilesWithoutCheckpointLoadedColumn) {
  // The diff-classification generation (phase timers, no checkpoint_loaded
  // column) must stay loadable; the persistence flag defaults to false.
  const std::string timed_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,chunks_allocated,chunk_detaches,"
      "cow_bytes_copied,execute_ms,analyze_ms,analyze_skipped,"
      "golden_cached,checkpointed,error\n"
      "0,PR4-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,12.5000,3.2500,6,1,1,\n";
  std::istringstream csv_in(timed_csv);
  const auto csv_rows = exp::read_csv_results(csv_in);
  ASSERT_EQ(csv_rows.size(), 1u);
  EXPECT_EQ(csv_rows[0].label, "PR4-BF");
  EXPECT_NEAR(csv_rows[0].execute_ms, 12.5, 1e-9);
  EXPECT_EQ(csv_rows[0].analyze_skipped, 6u);
  EXPECT_TRUE(csv_rows[0].checkpointed);
  EXPECT_FALSE(csv_rows[0].checkpoint_loaded);

  // A 22-field row under the current header is truncation.
  const std::string truncated_csv =
      std::string(exp::CsvSink::header()) + "\n" +
      "0,PR4-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,12.5000,3.2500,6,1,1,\n";
  std::istringstream truncated_in(truncated_csv);
  EXPECT_THROW((void)exp::read_csv_results(truncated_in), std::invalid_argument);

  const std::string timed_jsonl =
      "{\"index\":0,\"label\":\"PR4-BF\",\"application\":\"nyx\",\"fault\":\"BF\","
      "\"stage\":2,\"runs\":10,\"seed\":42,\"primitive_count\":7,\"benign\":8,"
      "\"detected\":1,\"sdc\":1,\"crash\":0,\"faults_not_fired\":2,"
      "\"chunks_allocated\":33,\"chunk_detaches\":4,\"cow_bytes_copied\":4096,"
      "\"execute_ms\":12.5000,\"analyze_ms\":3.2500,\"analyze_skipped\":6,"
      "\"golden_cached\":true,\"checkpointed\":true,\"error\":\"\"}\n";
  std::istringstream jsonl_in(timed_jsonl);
  const auto jsonl_rows = exp::read_jsonl_results(jsonl_in);
  ASSERT_EQ(jsonl_rows.size(), 1u);
  EXPECT_EQ(jsonl_rows[0].analyze_skipped, 6u);
  EXPECT_FALSE(jsonl_rows[0].checkpoint_loaded);
}

TEST(Sinks, ReadersAcceptPersistDistAndArenaEraFiles) {
  // One fixture per archived generation between the timed era and today.
  // Persist era (23 columns): checkpoint_loaded but no worker_id.
  const std::string persist_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,chunks_allocated,chunk_detaches,"
      "cow_bytes_copied,execute_ms,analyze_ms,analyze_skipped,"
      "golden_cached,checkpointed,checkpoint_loaded,error\n"
      "0,PR5-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,12.5000,3.2500,6,1,1,1,\n";
  std::istringstream persist_in(persist_csv);
  const auto persist_rows = exp::read_csv_results(persist_in);
  ASSERT_EQ(persist_rows.size(), 1u);
  EXPECT_EQ(persist_rows[0].label, "PR5-BF");
  EXPECT_TRUE(persist_rows[0].checkpoint_loaded);
  EXPECT_TRUE(persist_rows[0].worker_id.empty());
  EXPECT_EQ(persist_rows[0].sectors_faulted, 0u);

  // Distributed era (24 columns): worker_id but no arena columns.
  const std::string dist_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,chunks_allocated,chunk_detaches,"
      "cow_bytes_copied,execute_ms,analyze_ms,analyze_skipped,"
      "golden_cached,checkpointed,checkpoint_loaded,worker_id,error\n"
      "0,PR6-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,12.5000,3.2500,6,1,1,1,1+2,\n";
  std::istringstream dist_in(dist_csv);
  const auto dist_rows = exp::read_csv_results(dist_in);
  ASSERT_EQ(dist_rows.size(), 1u);
  EXPECT_EQ(dist_rows[0].worker_id, "1+2");
  EXPECT_EQ(dist_rows[0].arena_slabs_allocated, 0u);
  EXPECT_EQ(dist_rows[0].crc_detected, 0u);

  // Arena era (26 columns): arena traffic but no media-layer columns.
  const std::string arena_csv =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,chunks_allocated,chunk_detaches,"
      "cow_bytes_copied,arena_slabs_allocated,arena_bytes_recycled,"
      "execute_ms,analyze_ms,analyze_skipped,"
      "golden_cached,checkpointed,checkpoint_loaded,worker_id,error\n"
      "0,PR8-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,5,65536,12.5000,3.2500,6,"
      "1,1,1,3,\n";
  std::istringstream arena_in(arena_csv);
  const auto arena_rows = exp::read_csv_results(arena_in);
  ASSERT_EQ(arena_rows.size(), 1u);
  EXPECT_EQ(arena_rows[0].arena_slabs_allocated, 5u);
  EXPECT_EQ(arena_rows[0].arena_bytes_recycled, 65536u);
  EXPECT_EQ(arena_rows[0].worker_id, "3");
  EXPECT_EQ(arena_rows[0].sectors_faulted, 0u);
  EXPECT_EQ(arena_rows[0].crc_detected, 0u);

  // An arena-era (26-field) row under the current header is truncation, not
  // a legacy record.
  const std::string truncated_csv =
      std::string(exp::CsvSink::header()) + "\n" +
      "0,PR8-BF,nyx,BF,2,10,42,7,8,1,1,0,2,33,4,4096,5,65536,12.5000,3.2500,6,"
      "1,1,1,3,\n";
  std::istringstream truncated_in(truncated_csv);
  EXPECT_THROW((void)exp::read_csv_results(truncated_in), std::invalid_argument);
}

TEST(RunCounterTable, EveryCounterSurvivesCsvAndJsonl) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(1);
  builder.cell(app, "BF", -1, "TABLE");
  const auto plan = builder.build();
  auto report = exp::Engine().run(plan);
  ASSERT_EQ(report.cells.size(), 1u);
  exp::CellResult& result = report.cells[0];
  test_support::set_distinct_counters(result);

  std::ostringstream csv_out;
  exp::CsvSink csv(csv_out);
  csv.begin(plan);
  csv.cell(result);
  csv.end(report);
  std::istringstream csv_in(csv_out.str());
  const auto csv_rows = exp::read_csv_results(csv_in);
  ASSERT_EQ(csv_rows.size(), 1u);
  EXPECT_EQ(test_support::counter_values(csv_rows[0]), test_support::counter_values(result));

  std::ostringstream jsonl_out;
  exp::JsonlSink jsonl(jsonl_out);
  jsonl.cell(result);
  std::istringstream jsonl_in(jsonl_out.str());
  const auto jsonl_rows = exp::read_jsonl_results(jsonl_in);
  ASSERT_EQ(jsonl_rows.size(), 1u);
  EXPECT_EQ(test_support::counter_values(jsonl_rows[0]), test_support::counter_values(result));
}

TEST(Sinks, ScrubbedBitRotCellKeepsItsDetectedSplitOnDisk) {
  // Every Detected of a scrubbed single-bit rot comes from the CRC scrub;
  // the files must keep that split, not only the console trailer.
  SectorApp app;
  exp::PlanBuilder builder;
  builder.runs(24).seed(77);
  builder.cell(app, "BIT_ROT@pwrite{sector=512,scrub=on,width=1}");
  std::ostringstream csv_out, jsonl_out;
  exp::CsvSink csv(csv_out);
  exp::JsonlSink jsonl(jsonl_out);
  exp::MultiSink sinks;
  sinks.add(csv).add(jsonl);
  const auto report = exp::Engine().run(builder.build(), sinks);
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_EQ(report.cells[0].detected_crc, 24u);

  std::istringstream csv_in(csv_out.str()), jsonl_in(jsonl_out.str());
  for (const auto& rows : {exp::read_csv_results(csv_in), exp::read_jsonl_results(jsonl_in)}) {
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].detected_crc, 24u);
    EXPECT_EQ(rows[0].tally.count(Outcome::Detected), rows[0].detected_crc);
  }
}

/// Message of the std::invalid_argument `parse` throws ("" if none).
template <class F>
std::string invalid_argument_message(F&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string csv_error(const std::string& doc) {
  return invalid_argument_message([&] {
    std::istringstream in(doc);
    (void)exp::read_csv_results(in);
  });
}

std::string jsonl_error(const std::string& doc) {
  return invalid_argument_message([&] {
    std::istringstream in(doc);
    (void)exp::read_jsonl_results(in);
  });
}

TEST(CsvReader, MapsPermutedColumnsByName) {
  const std::string doc =
      "detected_crc,error,crash,sdc,detected,benign,primitive_count,seed,runs,stage,"
      "fault,application,label,index,checkpointed\n"
      "2,boom,0,1,2,3,7,42,6,2,BF,nyx,PERMUTED,5,1\n";
  std::istringstream in(doc);
  const auto rows = exp::read_csv_results(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].index, 5u);
  EXPECT_EQ(rows[0].label, "PERMUTED");
  EXPECT_EQ(rows[0].application, "nyx");
  EXPECT_EQ(rows[0].fault, "BF");
  EXPECT_EQ(rows[0].stage, 2);
  EXPECT_EQ(rows[0].runs, 6u);
  EXPECT_EQ(rows[0].seed, 42u);
  EXPECT_EQ(rows[0].primitive_count, 7u);
  EXPECT_EQ(rows[0].tally.count(Outcome::Benign), 3u);
  EXPECT_EQ(rows[0].tally.count(Outcome::Detected), 2u);
  EXPECT_EQ(rows[0].tally.count(Outcome::Sdc), 1u);
  EXPECT_EQ(rows[0].tally.count(Outcome::Crash), 0u);
  EXPECT_EQ(rows[0].detected_crc, 2u);
  EXPECT_TRUE(rows[0].checkpointed);
  EXPECT_EQ(rows[0].error, "boom");
  EXPECT_EQ(rows[0].sectors_faulted, 0u);  // absent counter reads as 0
}

TEST(CsvReader, RejectsUnknownRepeatedAndMissingColumns) {
  const std::string header = exp::CsvSink::header();
  EXPECT_NE(csv_error(header + ",bogus_counter\n").find("bogus_counter"), std::string::npos);
  EXPECT_NE(csv_error(header + ",label\n").find("label"), std::string::npos);
  // Drop an identity column (crash) and, separately, the error column.
  const auto without = [&](const std::string& column) {
    std::string h = header;
    h.erase(h.find(column + ","), column.size() + 1);
    return h;
  };
  EXPECT_NE(csv_error(without("crash") + "\n").find("crash"), std::string::npos);
  const std::string no_error = header.substr(0, header.rfind(','));
  EXPECT_NE(csv_error(no_error + "\n").find("error"), std::string::npos);
  // A missing optional column is fine.
  EXPECT_EQ(csv_error(without("worker_id") + "\n"), "");
}

TEST(CsvReader, RejectsRecordWhoseFieldCountDiffersFromItsHeader) {
  const std::string doc =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,error\n"
      "0,SHORT,nyx,BF,-1,10,42,7,8,1,1,0\n";
  EXPECT_NE(csv_error(doc).find("fields"), std::string::npos);
}

TEST(JsonlReader, RejectsMalformedBooleansAndEscapesNamingTheKey) {
  const std::string prefix =
      "{\"index\":0,\"label\":\"L\",\"application\":\"nyx\",\"fault\":\"BF\","
      "\"stage\":-1,\"runs\":1,\"seed\":1,\"primitive_count\":1,\"benign\":1,"
      "\"detected\":0,\"sdc\":0,\"crash\":0,\"error\":\"\"";
  EXPECT_EQ(jsonl_error(prefix + ",\"golden_cached\":true}\n"), "");
  EXPECT_NE(jsonl_error(prefix + ",\"golden_cached\":1}\n").find("golden_cached"),
            std::string::npos);
  EXPECT_NE(jsonl_error(prefix + ",\"checkpointed\":tru}\n").find("checkpointed"),
            std::string::npos);
  EXPECT_NE(jsonl_error(prefix + ",\"worker_id\":\"\\u00zz\"}\n").find("worker_id"),
            std::string::npos);
  EXPECT_EQ(jsonl_error(prefix + ",\"worker_id\":\"\\u0041\"}\n"), "");
}

TEST(Sinks, MixedGenerationJsonlStreamsLoadTogether) {
  // JSONL is keyed, not positional, so one stream may mix eras — e.g. a
  // campaign journal appended across harness upgrades.  Absent keys default
  // to zero.
  const std::string mixed =
      // Pre-extent era: no storage, timer or media keys.
      "{\"index\":0,\"label\":\"OLD\",\"application\":\"nyx\",\"fault\":\"BF\","
      "\"stage\":-1,\"runs\":10,\"seed\":1,\"primitive_count\":7,\"benign\":9,"
      "\"detected\":1,\"sdc\":0,\"crash\":0,\"faults_not_fired\":0,"
      "\"golden_cached\":true,\"checkpointed\":false,\"error\":\"\"}\n"
      // Arena era: storage + arena keys, no media keys.
      "{\"index\":1,\"label\":\"ARENA\",\"application\":\"nyx\",\"fault\":\"SW\","
      "\"stage\":2,\"runs\":10,\"seed\":2,\"primitive_count\":7,\"benign\":8,"
      "\"detected\":1,\"sdc\":1,\"crash\":0,\"faults_not_fired\":0,"
      "\"chunks_allocated\":33,\"chunk_detaches\":4,\"cow_bytes_copied\":4096,"
      "\"arena_slabs_allocated\":5,\"arena_bytes_recycled\":65536,"
      "\"execute_ms\":12.5,\"analyze_ms\":3.25,\"analyze_skipped\":6,"
      "\"golden_cached\":true,\"checkpointed\":true,\"error\":\"\"}\n"
      // Current era: media keys present.
      "{\"index\":2,\"label\":\"MEDIA\",\"application\":\"nyx\",\"fault\":\"BR\","
      "\"stage\":-1,\"runs\":10,\"seed\":3,\"primitive_count\":9,\"benign\":1,"
      "\"detected\":9,\"sdc\":0,\"crash\":0,\"faults_not_fired\":0,"
      "\"chunks_allocated\":33,\"chunk_detaches\":4,\"cow_bytes_copied\":4096,"
      "\"arena_slabs_allocated\":0,\"arena_bytes_recycled\":0,"
      "\"sectors_faulted\":9,\"crc_detected\":12,"
      "\"execute_ms\":12.5,\"analyze_ms\":3.25,\"analyze_skipped\":0,"
      "\"golden_cached\":true,\"checkpointed\":false,\"error\":\"\"}\n";
  std::istringstream in(mixed);
  const auto rows = exp::read_jsonl_results(in);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].sectors_faulted, 0u);
  EXPECT_EQ(rows[0].arena_slabs_allocated, 0u);
  EXPECT_EQ(rows[1].arena_bytes_recycled, 65536u);
  EXPECT_EQ(rows[1].crc_detected, 0u);
  EXPECT_EQ(rows[2].sectors_faulted, 9u);
  EXPECT_EQ(rows[2].crc_detected, 12u);
}

TEST(Sinks, CellsReportPhaseTimersAndSkips) {
  // Each run contributes execute/analyze wall time; with diff classification
  // on by default the toy app's Benign-identical runs may skip analysis, and
  // whatever the split, the columns must survive a CSV round trip.
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(8);
  builder.cell(app, "BF");
  std::ostringstream out;
  exp::CsvSink sink(out);
  const auto report = exp::Engine().run(builder.build(), sink);
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_TRUE(report.cells[0].error.empty()) << report.cells[0].error;
  EXPECT_GT(report.cells[0].execute_ms, 0.0);
  EXPECT_LE(report.cells[0].analyze_skipped, report.cells[0].runs_completed);

  std::istringstream in(out.str());
  const auto rows = exp::read_csv_results(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].execute_ms, report.cells[0].execute_ms, 1e-3);
  EXPECT_NEAR(rows[0].analyze_ms, report.cells[0].analyze_ms, 1e-3);
  EXPECT_EQ(rows[0].analyze_skipped, report.cells[0].analyze_skipped);
}

TEST(Sinks, CellsReportStorageTraffic) {
  // Every ToyApp run writes through MemFs, so the engine's per-cell
  // aggregation of vfs::FsStats must report extent allocations.
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(6);
  builder.cell(app, "BF");
  const auto report = exp::Engine().run(builder.build());
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_GT(report.cells[0].chunks_allocated, 0u);
}

TEST(Sinks, MultiSinkFansOutToAllChildren) {
  ToyApp app;
  auto builder = exp::PlanBuilder().runs(4);
  builder.cell(app, "BF");
  std::ostringstream csv_out, jsonl_out;
  exp::CsvSink csv(csv_out);
  exp::JsonlSink jsonl(jsonl_out);
  exp::MultiSink multi;
  multi.add(csv).add(jsonl);
  exp::Engine().run(builder.build(), multi);
  std::istringstream csv_in(csv_out.str()), jsonl_in(jsonl_out.str());
  EXPECT_EQ(exp::read_csv_results(csv_in).size(), 1u);
  EXPECT_EQ(exp::read_jsonl_results(jsonl_in).size(), 1u);
}

// --- plan config -------------------------------------------------------------

constexpr const char* kPlanDoc = R"(
# defaults
runs = 6
seed = 11
threads = 2
csv = out.csv
checkpoint_dir = .ffis-checkpoints
unit_timeout_ms = 1500

[cell]
application = nyx
fault = BF
label = NYX-BF
grid = 16
halos = 4

[cell]
application = nyx
fault = DW
grid = 16
halos = 4

[cell]
application = nyx
fault = BF
seed = 12
grid = 24
halos = 4
)";

TEST(PlanConfig, ParsesDefaultsAndCells) {
  const auto config = exp::parse_plan_config(kPlanDoc);
  EXPECT_EQ(config.threads, 2u);
  EXPECT_EQ(config.csv_path, "out.csv");
  EXPECT_TRUE(config.jsonl_path.empty());
  EXPECT_EQ(config.checkpoint_dir, ".ffis-checkpoints");
  EXPECT_EQ(config.unit_timeout_ms, 1500u);
  ASSERT_EQ(config.cells.size(), 3u);
  EXPECT_EQ(config.cells[0].application, "nyx");
  EXPECT_EQ(config.cells[0].runs, 6u);
  EXPECT_EQ(config.cells[0].seed, 11u);
  EXPECT_EQ(config.cells[0].extra.at("label"), "NYX-BF");
  EXPECT_EQ(config.cells[2].seed, 12u);
}

TEST(PlanConfig, RejectsBadInput) {
  EXPECT_THROW((void)exp::parse_plan_config("runs = 5\n"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nruns = 0\n"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nruns = -3\n"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nseed = -1\n"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nstage = three\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nstage = 3x\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("label = X\n[cell]\nfault = BF\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nruns =  -5\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nthreads = 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\ncheckpoint_dir = /tmp/x\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nunit_timeout_ms = 100\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("unit_timeout_ms = soon\n[cell]\nfault = BF\n"),
               std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[weird]\n"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_plan_config("[cell]\nno equals sign\n"),
               std::invalid_argument);
}

// --- CampaignConfig ----------------------------------------------------------

TEST(CampaignConfig, ParsesKeysAndComments) {
  const auto cfg = exp::parse_campaign_config(
      "# campaign file\n"
      "application = qmc\n"
      "fault = SW   # shorn write\n"
      "runs = 250\n"
      "seed = 99\n"
      "stage = 3\n"
      "grid = 32\n");
  EXPECT_EQ(cfg.application, "qmc");
  EXPECT_EQ(cfg.fault, "SW");
  EXPECT_EQ(cfg.runs, 250u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.stage, 3);
  EXPECT_EQ(cfg.extra.at("grid"), "32");
}

TEST(CampaignConfig, RejectsMalformedLines) {
  EXPECT_THROW((void)exp::parse_campaign_config("not a key value"), std::invalid_argument);
  EXPECT_THROW((void)exp::parse_campaign_config("[cell]\nfault = BF\n"), std::invalid_argument);
  // Numbers parse whole or not at all: no sign wrap-around, no trailing junk.
  for (const char* line : {"runs = -5", "runs = 12abc", "stage = 2x", "seed = -1",
                           "runs = 0"}) {
    EXPECT_THROW((void)exp::parse_campaign_config(line), std::invalid_argument) << line;
  }
  try {
    (void)exp::parse_campaign_config("application = nyx\nruns = -5\n");
    ADD_FAILURE() << "runs = -5 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "config line 2: runs must be a non-negative integer, got '-5'");
  }
}

TEST(PlanConfig, BuildPlanRejectsMalformedApplicationExtras) {
  for (const char* grid : {"abc", "-1", "12x"}) {
    const auto config = exp::parse_plan_config(
        std::string("application = nyx\n[cell]\nfault = BF\ngrid = ") + grid + "\n");
    try {
      (void)exp::build_plan(config);
      ADD_FAILURE() << "grid = " << grid << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("grid"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + grid + "'"), std::string::npos) << what;
    }
  }
}

TEST(PlanConfig, BuildPlanDeduplicatesIdenticalApplications) {
  const auto config = exp::parse_plan_config(kPlanDoc);
  const auto plan = exp::build_plan(config);
  ASSERT_EQ(plan.size(), 3u);
  // Cells 0 and 1 share grid=16/halos=4 -> one instance; cell 2 differs.
  EXPECT_EQ(plan.cells()[0].app, plan.cells()[1].app);
  EXPECT_NE(plan.cells()[0].app, plan.cells()[2].app);
  EXPECT_EQ(plan.cells()[0].label, "NYX-BF");
  EXPECT_EQ(plan.cells()[1].label, "NYX-DW");  // auto-generated
}

}  // namespace
