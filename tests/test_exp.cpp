// Unit tests for ffis::exp — plan building and validation, the shared-pool
// engine (golden caching, determinism across thread counts, equivalence
// with sequential per-cell injection, cancellation, error capture), and the
// result sinks (console/CSV/JSONL round-trips, MultiSink fan-out).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>

#include "ffis/core/application.hpp"
#include "ffis/core/campaign.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/plan_config.hpp"
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

  void run(const core::RunContext& ctx) const override {
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

  void run(const core::RunContext& ctx) const override {
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
  void run(const core::RunContext&) const override {}
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem&) const override {
    return {};
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Benign;
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
  // Total app executions: 1 golden + 4 profiling + 32 injection runs.
  EXPECT_EQ(app.total_runs(), 1u + 4u + 32u);
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

TEST(Engine, ArenaRecyclingIsBitIdenticalAcrossThreadsAndFlag) {
  // Run recycling (EngineOptions::use_arena) is an allocation-path switch
  // only: the 2x2 matrix of {arena off/on} x {1/4 threads} must agree on
  // every tally AND every non-arena storage counter, bit for bit.
  ToyApp app;
  std::vector<exp::ExperimentReport> reports;
  for (const bool use_arena : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      exp::EngineOptions options;
      options.threads = threads;
      options.use_arena = use_arena;
      reports.push_back(exp::Engine(options).run(toy_grid(app, 64, 123)));
    }
  }
  const exp::ExperimentReport& base = reports[0];  // arena off, 1 thread
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
  // The arena variants actually took the arena path; the off variants never.
  EXPECT_EQ(reports[0].arena_slabs_allocated + reports[1].arena_slabs_allocated, 0u);
  EXPECT_GT(reports[2].arena_bytes_recycled, 0u);
  EXPECT_GT(reports[3].arena_bytes_recycled, 0u);
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
  for (std::size_t i = 0; i < plan.cells().size(); ++i) {
    const auto& cell = plan.cells()[i];
    faults::CampaignConfig config;
    config.application = cell.app->name();
    config.fault = cell.fault;
    config.runs = cell.runs;
    config.seed = cell.seed;
    config.stage = cell.stage;
    faults::FaultGenerator generator(config);
    core::FaultInjector injector(*cell.app, generator.signature(), cell.app_seed(),
                                 cell.stage);
    injector.prepare();
    core::OutcomeTally expected;
    for (std::uint64_t r = 0; r < runs; ++r) {
      expected.add(injector.execute(generator.run_seed(r)).outcome);
    }
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(report.cells[i].tally.count(static_cast<Outcome>(o)),
                expected.count(static_cast<Outcome>(o)))
          << "cell " << i << " (" << cell.label << ") outcome " << o;
    }
    EXPECT_EQ(report.cells[i].primitive_count, injector.primitive_count());
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
  ASSERT_EQ(report.cells[0].details.size(), 6u);
  core::OutcomeTally from_details;
  for (const auto& r : report.cells[0].details) from_details.add(r.outcome);
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(from_details.count(static_cast<Outcome>(o)),
              report.cells[0].tally.count(static_cast<Outcome>(o)));
  }
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

TEST(Engine, LegacyCampaignWrapperAllowsZeroRuns) {
  ToyApp app;
  faults::CampaignConfig config;
  config.application = app.name();
  config.fault = "BF";
  config.runs = 0;
  config.seed = 42;
  core::Campaign campaign(app, faults::FaultGenerator(config));
  const auto result = campaign.run();  // historical behavior: prepare, no runs
  EXPECT_EQ(result.runs, 0u);
  EXPECT_EQ(result.tally.total(), 0u);
  EXPECT_GT(result.primitive_count, 0u);
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
