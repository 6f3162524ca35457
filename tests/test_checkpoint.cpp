// Checkpoint-reuse tests: the stage-resume contract of each application
// (run == run_prefix + run_from, bit-for-bit on the file tree), the
// FaultInjector checkpoint path, the reference oracle (exp::reference_run)
// and the headline equivalence guarantee — the engine, checkpoints and diff
// classification included, produces the oracle's per-run outcomes at the
// same seeds, for stage-instrumented and whole-run cells, at multiple thread
// counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "counter_testing.hpp"
#include "write_recording.hpp"

namespace {

using namespace ffis;
using core::Outcome;
using test_support::record_fields;

// A stage-resumable toy: an ingest header plus two stages of seeded chunk
// writes into separate files.  Counters expose how often each entry point
// executes so the engine tests can assert the checkpoint arithmetic.
class StagedToyApp final : public core::Application {
 public:
  explicit StagedToyApp(std::size_t writes_per_stage = 4) : writes_(writes_per_stage) {}

  [[nodiscard]] std::string name() const override { return "staged-toy"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run_stages(const core::RunContext& ctx, int first, int last) const override {
    // Counted by the entry point the range stands for: run, run_prefix or
    // run_from.
    auto& passes = first > 0 ? resume_runs_ : last < stage_count() ? prefix_runs_ : full_runs_;
    passes.fetch_add(1, std::memory_order_relaxed);
    if (first == 0) do_ingest(ctx);
    for (int s = std::max(first, 1); s <= last; ++s) do_stage(ctx, s);
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    if (vfs::read_text_file(fs, "/header") != "MAGIC") {
      throw std::runtime_error("bad header");
    }
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/stage2");
    util::Bytes s1 = vfs::read_file(fs, "/stage1");
    result.metrics["s1_bytes"] = static_cast<double>(s1.size());
    return result;
  }

  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("s1_bytes") >= 1.0 ? Outcome::Sdc : Outcome::Detected;
  }

  [[nodiscard]] std::uint64_t full_runs() const { return full_runs_.load(); }
  [[nodiscard]] std::uint64_t prefix_runs() const { return prefix_runs_.load(); }
  [[nodiscard]] std::uint64_t resume_runs() const { return resume_runs_.load(); }

 private:
  void do_ingest(const core::RunContext& ctx) const {
    vfs::write_text_file(ctx.fs, "/header", "MAGIC");
  }
  void do_stage(const core::RunContext& ctx, int stage) const {
    ctx.enter_stage(stage);
    // Seed the stage stream from (app_seed, stage) so a resumed stage
    // reproduces the full run's bytes without replaying earlier stages.
    util::Rng rng(ctx.app_seed * 131 + static_cast<std::uint64_t>(stage));
    vfs::File f(ctx.fs, std::string("/stage") + std::to_string(stage),
                vfs::OpenMode::Write);
    std::uint64_t offset = 0;
    for (std::size_t w = 0; w < writes_; ++w) {
      util::Bytes chunk(48);
      for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
      offset += f.pwrite(chunk, offset);
    }
    ctx.leave_stage(stage);
  }

  std::size_t writes_;
  mutable std::atomic<std::uint64_t> full_runs_{0};
  mutable std::atomic<std::uint64_t> prefix_runs_{0};
  mutable std::atomic<std::uint64_t> resume_runs_{0};
};

// Small, fast app configurations for the real applications.
montage::MontageApp small_montage() {
  // A 3x2 sub-grid of the default scene geometry (same tile size/overlap, so
  // the pipeline's overlap constraints hold) at ~1/2 the default pixel count.
  montage::MontageConfig config;
  config.scene.tile_x0 = {0, 37, 74};
  config.scene.tile_y0 = {0, 36};
  return montage::MontageApp(config);
}

// --- Stage-resume contract: run == run_prefix + run_from ---------------------

void expect_same_tree(const core::Application& app, std::uint64_t app_seed) {
  vfs::MemFs whole;
  core::RunContext whole_ctx{.fs = whole, .app_seed = app_seed,
                             .instrumented_stage = -1, .instrument = nullptr};
  app.run(whole_ctx);
  ASSERT_GT(whole.total_bytes(), 0u);

  for (int stage = 1; stage <= app.stage_count(); ++stage) {
    vfs::MemFs split;
    core::RunContext ctx{.fs = split, .app_seed = app_seed,
                         .instrumented_stage = -1, .instrument = nullptr};
    app.run_prefix(ctx, stage);
    app.run_from(ctx, stage);
    const vfs::FsDiff diff = split.diff_tree(whole);
    EXPECT_TRUE(diff.empty()) << app.name() << " stage " << stage
                              << " resume diverges from run(): " << diff.changed.size()
                              << " changed, " << diff.created.size() << " created, "
                              << diff.deleted.size() << " deleted";
  }
}

TEST(StageResume, MontagePrefixPlusResumeEqualsRun) { expect_same_tree(small_montage(), 11); }

TEST(StageResume, QmcPrefixPlusResumeEqualsRun) { expect_same_tree(qmc::QmcApp(), 12); }

TEST(StageResume, NyxPrefixPlusResumeEqualsRun) {
  nyx::NyxConfig config;
  config.field.n = 16;
  expect_same_tree(nyx::NyxApp(config), 13);
}

TEST(StageResume, StagedToyPrefixPlusResumeEqualsRun) { expect_same_tree(StagedToyApp(), 14); }

TEST(StageResume, MultiDumpNyxPrefixPlusResumeEqualsRun) {
  // timesteps >= 2 turns Nyx into a multi-stage workload whose later stages
  // rewrite slabs of the plotfile in place; the resume contract must hold
  // for every split point.
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 3;
  expect_same_tree(nyx::NyxApp(config), 15);
}

// --- Every application: stage checks and pinned read streams ---------------

/// The pread stream of a run: how many calls, and an FNV-1a over their
/// (offset, length) pairs.
struct ReadPin {
  std::size_t count = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const ReadPin&, const ReadPin&) = default;
  friend std::ostream& operator<<(std::ostream& os, const ReadPin& p) {
    return os << "{" << p.count << ", 0x" << std::hex << p.digest << std::dec << "ULL}";
  }
};

ReadPin read_pin(const std::vector<test_support::ReadRecord>& reads) {
  std::uint64_t digest = util::fnv1a64({});
  for (const auto& r : reads) {
    for (const std::uint64_t v : {r.offset, r.length}) {
      digest = util::fnv1a64(std::as_bytes(std::span(&v, 1)), digest);
    }
  }
  return ReadPin{reads.size(), digest};
}

struct AppCase {
  std::string name;
  std::unique_ptr<const core::Application> (*make)();
  std::uint64_t app_seed;
  /// The fault-free pread stream of a full run ([0]) and of run_from(k)
  /// after run_prefix(k) ([k]).  Read-fault campaigns count these calls, so
  /// they pin instance selection the way the write-sequence pins do.  Only
  /// Montage reads while it runs; the others pin that they never do.
  std::vector<ReadPin> reads;
};

void PrintTo(const AppCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<const core::Application> small_nyx(int timesteps) {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = timesteps;
  return std::make_unique<const nyx::NyxApp>(config);
}

const AppCase kAppCases[] = {
    {"montage",
     +[]() -> std::unique_ptr<const core::Application> {
       // `new` from the prvalue: MontageApp owns a mutex, so it cannot move.
       return std::unique_ptr<const core::Application>(new montage::MontageApp(small_montage()));
     },
     11,
     {{57, 0x1cae2abc04640552ULL},
      {57, 0x1cae2abc04640552ULL},
      {51, 0xa97c693a098173d2ULL},
      {38, 0x6e43fd7f3da68fd9ULL},
      {25, 0xf4ad61d267dc340aULL}}},
    {"qmc",
     +[]() -> std::unique_ptr<const core::Application> {
       return std::make_unique<const qmc::QmcApp>();
     },
     12,
     {{0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}}},
    {"nyx1", +[] { return small_nyx(1); }, 13, {{0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}}},
    {"nyx3", +[] { return small_nyx(3); }, 15, {{0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}}},
    {"staged_toy",
     +[]() -> std::unique_ptr<const core::Application> {
       return std::make_unique<const StagedToyApp>();
     },
     14,
     {{0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}, {0, 0xcbf29ce484222325ULL}}},
};

class AppStages : public testing::TestWithParam<AppCase> {};

TEST_P(AppStages, OutOfRangeStageThrows) {
  const auto app = GetParam().make();
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  for (const int stage : {0, app->stage_count() + 1}) {
    for (const bool prefix : {true, false}) {
      try {
        prefix ? app->run_prefix(ctx, stage) : app->run_from(ctx, stage);
        ADD_FAILURE() << (prefix ? "run_prefix" : "run_from") << " accepted stage " << stage;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(app->name()), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(stage)), std::string::npos) << what;
      }
    }
  }
}

TEST_P(AppStages, ReadStreamIsPinned) {
  const AppCase& c = GetParam();
  const auto app = c.make();
  const auto context = [&](vfs::FileSystem& fs) {
    return core::RunContext{.fs = fs, .app_seed = c.app_seed, .instrumented_stage = -1,
                            .instrument = nullptr};
  };
  std::vector<ReadPin> pins;
  {
    vfs::MemFs backing;
    test_support::RecordingFs recording(backing);
    app->run(context(recording));
    pins.push_back(read_pin(recording.reads()));
  }
  for (int stage = 1; stage <= app->stage_count(); ++stage) {
    vfs::MemFs backing;
    app->run_prefix(context(backing), stage);
    test_support::RecordingFs recording(backing);
    app->run_from(context(recording), stage);
    pins.push_back(read_pin(recording.reads()));
  }
  EXPECT_EQ(pins, c.reads);
}

INSTANTIATE_TEST_SUITE_P(StageResume, AppStages, testing::ValuesIn(kAppCases),
                         [](const testing::TestParamInfo<AppCase>& info) {
                           return info.param.name;
                         });

TEST(StageResume, DefaultApplicationIsNotResumable) {
  // An Application that overrides nothing reports stage_count() == 0 and
  // rejects the resume entry points.
  class Plain final : public core::Application {
   public:
    [[nodiscard]] std::string name() const override { return "plain"; }
    void run_stages(const core::RunContext&, int, int) const override {}
    [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem&) const override { return {}; }
    [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                   const core::AnalysisResult&) const override {
      return Outcome::Benign;
    }
  } plain;
  EXPECT_EQ(plain.stage_count(), 0);
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  EXPECT_THROW(plain.run_prefix(ctx, 1), std::logic_error);
  EXPECT_THROW(plain.run_from(ctx, 1), std::logic_error);
}

// --- Checkpoint capture and the FaultInjector checkpoint path ----------------

TEST(Checkpoint, CaptureValidatesStageRange) {
  StagedToyApp app;
  EXPECT_THROW((void)core::Checkpoint::capture(app, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)core::Checkpoint::capture(app, 1, 3), std::invalid_argument);
  const auto cp = core::Checkpoint::capture(app, 1, 2);
  EXPECT_EQ(cp->stage(), 2);
  // The prefix contains the ingest and stage 1, not stage 2.
  auto fork = cp->fs().fork();
  EXPECT_TRUE(fork.exists("/stage1"));
  EXPECT_FALSE(fork.exists("/stage2"));
}

TEST(Checkpoint, ReportsSnapshotMemoryAndSharing) {
  StagedToyApp app;
  const auto cp = core::Checkpoint::capture(app, 7, 2);
  // Prefix tree: "/header" (5 bytes) + "/stage1" (4 x 48 bytes).
  EXPECT_EQ(cp->total_bytes(), 5u + 4u * 48u);
  EXPECT_GT(cp->allocated_chunks(), 0u);
  // Nothing shared until someone forks; everything shared while a fork
  // holds the extents untouched; nothing again once the fork dies.
  EXPECT_EQ(cp->cow_shared_bytes(), 0u);
  {
    vfs::MemFs fork = cp->fs().fork();
    EXPECT_EQ(cp->cow_shared_bytes(), cp->total_bytes());
    EXPECT_EQ(fork.cow_shared_bytes(), cp->total_bytes());
  }
  EXPECT_EQ(cp->cow_shared_bytes(), 0u);
}

TEST(Checkpoint, InjectorChecksStageMatch) {
  StagedToyApp app;
  faults::CampaignConfig config;
  config.application = app.name();
  config.fault = "BF";
  config.stage = 1;
  faults::FaultGenerator generator(config);
  core::FaultInjector injector(app, generator.signature(), /*app_seed=*/1,
                               /*instrumented_stage=*/1);
  const auto golden = std::make_shared<const core::AnalysisResult>(
      core::FaultInjector::run_golden(app, 1));
  const auto wrong_stage = core::Checkpoint::capture(app, 1, 2);
  EXPECT_THROW(injector.prepare_with_checkpoint(golden, wrong_stage),
               std::invalid_argument);
}

TEST(Checkpoint, InjectorRunsAreIdenticalWithAndWithoutCheckpoint) {
  StagedToyApp app;
  for (const int stage : {1, 2}) {
    faults::CampaignConfig config;
    config.application = app.name();
    config.fault = "BF";
    config.stage = stage;
    faults::FaultGenerator generator(config);

    core::FaultInjector classic(app, generator.signature(), 7, stage);
    classic.prepare();

    core::FaultInjector checkpointed(app, generator.signature(), 7, stage);
    checkpointed.prepare_with_checkpoint(
        std::make_shared<const core::AnalysisResult>(core::FaultInjector::run_golden(app, 7)),
        core::Checkpoint::capture(app, 7, stage));
    EXPECT_TRUE(checkpointed.checkpointed());
    EXPECT_FALSE(classic.checkpointed());

    // Same gated profile, and bit-identical outcomes run by run.
    ASSERT_EQ(checkpointed.primitive_count(), classic.primitive_count());
    for (std::uint64_t instance = 0; instance < classic.primitive_count(); ++instance) {
      const auto a = classic.execute_at(instance, /*feature_seed=*/instance * 97 + 5);
      const auto b = checkpointed.execute_at(instance, instance * 97 + 5);
      ASSERT_EQ(a.outcome, b.outcome) << "stage " << stage << " instance " << instance;
      ASSERT_EQ(a.fault_fired, b.fault_fired);
      ASSERT_EQ(a.analysis.has_value(), b.analysis.has_value());
      if (a.analysis) {
        EXPECT_EQ(a.analysis->comparison_blob, b.analysis->comparison_blob);
      }
    }
  }
}

// --- Engine: checkpoint cache arithmetic -------------------------------------

TEST(EngineCheckpoint, PrefixExecutesOncePerCellGroup) {
  StagedToyApp app;
  auto builder = exp::PlanBuilder().runs(6).seed(21);
  // Four stage-2 cells (distinct faults) share one checkpoint; one stage-1
  // cell gets its own; one whole-run cell bypasses checkpointing.
  builder.cell(app, "BF", 2);
  builder.cell(app, "DW", 2);
  builder.cell(app, "SHORN_WRITE@pwrite", 2);
  builder.cell(app, "BIT_FLIP@pwrite{width=4}", 2);
  builder.cell(app, "BF", 1);
  builder.cell(app, "BF", -1);
  const auto report = exp::Engine().run(builder.build());

  for (const auto& cell : report.cells) ASSERT_TRUE(cell.error.empty()) << cell.error;
  EXPECT_EQ(report.checkpoint_builds, 2u);      // stages {2, 1}
  EXPECT_EQ(report.checkpoint_cache_hits, 3u);  // three extra stage-2 cells
  EXPECT_TRUE(report.cells[0].checkpointed);
  EXPECT_FALSE(report.cells[0].checkpoint_cached);
  EXPECT_TRUE(report.cells[1].checkpointed);
  EXPECT_TRUE(report.cells[1].checkpoint_cached);
  EXPECT_TRUE(report.cells[4].checkpointed);
  EXPECT_FALSE(report.cells[4].checkpoint_cached);
  EXPECT_FALSE(report.cells[5].checkpointed);

  // Full executions: 1 golden + 1 whole-run profile + 6 whole-run injections
  // (BIT_FLIP draws a bit every run, so none of them replays), less the
  // runs synthesized: the app never reads a write back, so every BIT_FLIP
  // run is.
  EXPECT_EQ(report.cells[5].runs_replayed, 0u);
  EXPECT_EQ(report.cells[5].runs_synthesized, 6u);
  EXPECT_EQ(app.full_runs(), 1u + 1u + 6u - report.cells[5].runs_synthesized);
  // Prefixes: one per checkpoint build.
  EXPECT_EQ(app.prefix_runs(), 2u);
  // Resumes: 5 folded profiling passes + 2 diff-classification golden-tree
  // continuations (one per checkpoint BUILD — cells sharing a checkpoint
  // share its golden tree) + 5 x 6 injection runs, less the runs that repeat
  // an earlier feature-free run of their instance (DW, SHORN_WRITE)
  // and the checkpointed cells' synthesized runs (the BIT_FLIP cells, and
  // one SHORN_WRITE run per instance).
  // Racing threads may both execute a repeated instance: at most one extra
  // execution per replayed run, and no count changes.
  EXPECT_EQ(report.cells[1].runs_synthesized, 0u);
  EXPECT_GT(report.cells[2].runs_synthesized, 0u);  // one per instance drawn
  const std::uint64_t resumed = 5u + 2u + 30u - report.runs_replayed -
                                (report.runs_synthesized - report.cells[5].runs_synthesized);
  EXPECT_GE(app.resume_runs(), resumed);
  EXPECT_LE(app.resume_runs(), resumed + report.runs_replayed);
}

// --- The reference oracle ----------------------------------------------------

// Writes nothing, so it never executes any fault's target primitive.
class SilentApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "silent"; }
  void run_stages(const core::RunContext&, int, int) const override {}
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem&) const override { return {}; }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Benign;
  }
};

TEST(ReferenceRun, TakesNoFastPath) {
  // The oracle's definition: each cell prepares on its own (one golden and
  // one profiling run) and executes every run in full — no checkpoint, no
  // replay of the feature-free DW runs, no synthesis of the BF runs nothing
  // reads back, no diff.
  StagedToyApp app;
  const SilentApp silent;
  constexpr std::uint64_t kRuns = 6;
  auto builder = exp::PlanBuilder().runs(kRuns).seed(21);
  builder.cell(app, "BF", 2);
  builder.cell(app, "DW", 2);
  builder.cell(silent, "BF");
  const auto report = exp::reference_run(builder.build());

  ASSERT_EQ(report.cells.size(), 3u);
  for (const std::size_t i : {0, 1}) {
    const exp::CellResult& cell = report.cells[i];
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    EXPECT_EQ(cell.runs_completed, kRuns);
    EXPECT_FALSE(cell.checkpointed);
    ASSERT_EQ(cell.details.size(), kRuns);
    for (const core::RunResult& run : cell.details) {
      EXPECT_FALSE(run.replayed || run.synthesized || run.analyze_skipped);
      EXPECT_EQ(run.analysis.has_value(), run.outcome != Outcome::Crash);
    }
  }
  EXPECT_EQ(app.full_runs(), 2 * (1 + 1 + kRuns));
  EXPECT_EQ(app.prefix_runs(), 0u);
  EXPECT_EQ(app.resume_runs(), 0u);
  EXPECT_EQ(report.runs_replayed, 0u);
  EXPECT_EQ(report.runs_synthesized, 0u);
  EXPECT_EQ(report.analyze_skipped, 0u);
  EXPECT_EQ(report.total_runs, 2 * kRuns);

  EXPECT_NE(report.cells[2].error.find("never executed primitive"), std::string::npos)
      << report.cells[2].error;
  EXPECT_EQ(report.cells[2].tally.total(), 0u);
}

// --- Diff-driven classification ----------------------------------------------

// Workload shaped so the extent diff provably empties on every run: the
// analyzed artifact is written in stage 1, and the instrumented stage 2
// writes a scratch file it unlinks before finishing — whatever the fault did
// to the scratch bytes, the final tree equals the golden tree.  The run
// itself performs no reads, so a Benign-via-diff run must report zero
// bytes_read even though the analysis phase would have read /out.
class ScratchStageApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "scratch-stage"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run_stages(const core::RunContext& ctx, int first, int last) const override {
    if (first == 0) vfs::write_text_file(ctx.fs, "/out", "RESULT 42\n");
    if (first <= 1 && 1 <= last) {
      ctx.enter_stage(1);
      vfs::write_text_file(ctx.fs, "/stage1", "intermediate");
      ctx.leave_stage(1);
    }
    if (last < 2) return;
    ctx.enter_stage(2);
    {
      vfs::File f(ctx.fs, "/scratch", vfs::OpenMode::Write);
      util::Bytes chunk(64, std::byte{0x5A});
      for (int w = 0; w < 4; ++w) {
        (void)f.pwrite(chunk, static_cast<std::uint64_t>(w) * chunk.size());
      }
    }
    ctx.fs.unlink("/scratch");
    ctx.leave_stage(2);
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/out");
    result.metrics["out_bytes"] = static_cast<double>(result.comparison_blob.size());
    return result;
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Sdc;
  }
};

TEST(DiffClassification, BenignRunPerformsZeroAnalysisPhaseReads) {
  ScratchStageApp app;
  constexpr std::uint64_t kRuns = 12;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(99);
    builder.cell(app, "BF", 2);
    return builder.build();
  };

  exp::EngineOptions options;
  options.keep_details = true;
  const auto with_diff = exp::Engine(options).run(make_plan());
  const auto without_diff = exp::reference_run(make_plan());
  ASSERT_TRUE(with_diff.cells[0].error.empty()) << with_diff.cells[0].error;
  ASSERT_TRUE(without_diff.cells[0].error.empty()) << without_diff.cells[0].error;
  // The unlink observes every write to the scratch file, so every run
  // executes rather than being synthesized.
  EXPECT_EQ(with_diff.cells[0].runs_synthesized, 0u);

  // Every run's fault lands in the scratch file that is unlinked before the
  // run ends, so every run is Benign — and with the diff the verdict needs
  // no analysis and not a single read (the workload only writes).
  EXPECT_EQ(with_diff.cells[0].tally.count(Outcome::Benign), kRuns);
  EXPECT_EQ(with_diff.cells[0].analyze_skipped, kRuns);
  EXPECT_EQ(with_diff.analyze_skipped, kRuns);
  ASSERT_EQ(with_diff.cells[0].details.size(), kRuns);
  for (const auto& run : with_diff.cells[0].details) {
    EXPECT_TRUE(run.fault_fired);
    EXPECT_TRUE(run.analyze_skipped);
    EXPECT_FALSE(run.analysis.has_value());
    EXPECT_EQ(run.fs_stats.pread_calls, 0u);
    EXPECT_EQ(run.fs_stats.bytes_read, 0u);
  }

  // Control: the reference oracle reaches the same tally by actually reading.
  EXPECT_EQ(without_diff.cells[0].tally.count(Outcome::Benign), kRuns);
  EXPECT_EQ(without_diff.cells[0].analyze_skipped, 0u);
  for (const auto& run : without_diff.cells[0].details) {
    EXPECT_FALSE(run.analyze_skipped);
    EXPECT_GT(run.fs_stats.bytes_read, 0u);
  }
}

// --- Engine vs the reference oracle: the headline equivalence guarantee ----

TEST(ReferenceRun, EngineMatchesPerRunAcrossThreadCounts) {
  const auto montage_app = small_montage();
  const qmc::QmcApp qmc_app;
  nyx::NyxConfig nyx_config;
  nyx_config.field.n = 16;
  const nyx::NyxApp nyx_app(nyx_config);
  const StagedToyApp toy_app;
  const ScratchStageApp scratch_app;

  constexpr std::uint64_t kRuns = 24, kSeed = 1234;
  exp::PlanBuilder builder;
  builder.runs(kRuns).seed(kSeed);
  // Stage-instrumented cells...
  builder.app(montage_app).fault("BF").stages(1, 4).product();
  builder.cell(qmc_app, "BF", 1);
  builder.cell(qmc_app, "SHORN_WRITE@pwrite", 2);
  builder.cell(nyx_app, "BF", 1);
  builder.cell(toy_app, "DW", 2);
  builder.cell(scratch_app, "BF", 2);  // guarantees analyze_skipped > 0
  // ...and whole-run cells through the same engine.
  builder.cell(montage_app, "BF", -1);
  builder.cell(qmc_app, "BF", -1);
  builder.cell(nyx_app, "DW", -1);
  const auto plan = builder.build();

  const auto reference = exp::reference_run(plan);
  for (const auto& cell : reference.cells) {
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    ASSERT_EQ(cell.details.size(), kRuns);
    EXPECT_EQ(cell.analyze_skipped, 0u);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(plan);
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const exp::CellResult& cell = report.cells[i];
      const exp::CellResult& want = reference.cells[i];
      SCOPED_TRACE(cell.cell.label + " at " + std::to_string(threads) + " threads");
      ASSERT_TRUE(cell.error.empty()) << cell.error;
      // The folded profiling pass observes exactly what the full one does.
      EXPECT_EQ(cell.primitive_count, want.primitive_count);
      ASSERT_EQ(cell.details.size(), kRuns);
      for (std::size_t r = 0; r < kRuns; ++r) {
        const core::RunResult& run = cell.details[r];
        const core::RunResult& ref = want.details[r];
        EXPECT_EQ(run.outcome, ref.outcome) << "run " << r;
        EXPECT_EQ(run.fault_fired, ref.fault_fired) << "run " << r;
        EXPECT_EQ(record_fields(run.record), record_fields(ref.record)) << "run " << r;
        EXPECT_EQ(run.crash_reason, ref.crash_reason) << "run " << r;
      }
    }

    // The checkpoint-folded profile finds exactly the write sites the full
    // profile finds: every cell synthesizes the runs the uncheckpointed
    // engine synthesized at this seed.  Montage reads every stage-1..3 write
    // back, so those cells synthesize none, and resume late the runs whose
    // write a later stage reads first; QMC reads back no write, so its BF
    // cells are synthesized whole and its adjacent-data shorn-write cell
    // synthesizes one run per instance drawn (the rest replay).
    const std::vector<std::uint64_t> synthesized = {0, 0, 0, 15, kRuns, 16, 19, 0, 0, 1, kRuns, 0};
    const std::vector<std::uint64_t> resumed_late = {kRuns, 1, kRuns, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(report.cells.size(), synthesized.size());
    for (std::size_t i = 0; i < synthesized.size(); ++i) {
      EXPECT_EQ(report.cells[i].runs_synthesized, synthesized[i]) << report.cells[i].cell.label;
      EXPECT_EQ(report.cells[i].runs_resumed_late, resumed_late[i])
          << report.cells[i].cell.label;
    }
    // Every stage-instrumented cell of a resumable app actually used the
    // checkpoint path (montage x4, qmc x2, nyx x1, toy x1, scratch x1).
    std::size_t checkpointed_cells = 0;
    for (const auto& cell : report.cells) {
      if (cell.checkpointed) ++checkpointed_cells;
    }
    EXPECT_EQ(checkpointed_cells, 9u);
    EXPECT_EQ(report.checkpoint_builds, 9u);  // all keys distinct here
    // The diff fast path genuinely fired (at minimum the scratch-stage cell
    // skips all of its analyses), without perturbing a single outcome above.
    EXPECT_GE(report.analyze_skipped, kRuns);
  }
}

TEST(DiffClassification, MismatchedCheckpointGeometryRejectedAtPrepare) {
  // A checkpoint captured at one extent size cannot be diffed against runs
  // on another: the mismatch must surface as a configuration error at
  // prepare time, never as per-run Crash outcomes polluting the tally.
  StagedToyApp app;
  faults::CampaignConfig config;
  config.application = app.name();
  config.fault = "BF";
  config.stage = 2;
  faults::FaultGenerator generator(config);
  core::FaultInjector injector(app, generator.signature(), /*app_seed=*/1,
                               /*instrumented_stage=*/2);
  injector.set_fs_options(vfs::MemFs::Options{.chunk_size = 1024});
  const auto golden = std::make_shared<const core::AnalysisResult>(
      core::FaultInjector::run_golden(app, 1));
  const auto checkpoint = core::Checkpoint::capture(app, 1, 2);  // default 64 KiB
  EXPECT_THROW(injector.prepare_with_checkpoint(golden, checkpoint),
               std::invalid_argument);
}

TEST(DiffClassification, NyxDirtySlabSplicePreservesTalliesAndReadsLess) {
  // 3-dump Nyx instrumented at stage 3 (slab z=1): with 1 KiB extents the
  // dirty chunks sit strictly inside the dataset's raw data, so analyze_dirty
  // takes the splice path — pread only the corrupted slab, reuse the cached
  // golden field elsewhere — instead of re-reading the whole plotfile.
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 3;
  nyx::NyxApp app(config);

  constexpr std::uint64_t kRuns = 16;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(7);
    builder.cell(app, "BF", 3);
    return builder.build();
  };

  exp::EngineOptions options;
  options.keep_details = true;
  options.fs_options.chunk_size = 1024;
  const auto with_diff = exp::Engine(options).run(make_plan());
  const auto without_diff = exp::reference_run(make_plan());
  ASSERT_TRUE(with_diff.cells[0].error.empty()) << with_diff.cells[0].error;
  ASSERT_TRUE(without_diff.cells[0].error.empty()) << without_diff.cells[0].error;

  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(with_diff.cells[0].tally.count(static_cast<Outcome>(o)),
              without_diff.cells[0].tally.count(static_cast<Outcome>(o)));
  }

  std::uint64_t diff_reads = 0, full_reads = 0;
  for (const auto& run : with_diff.cells[0].details) diff_reads += run.fs_stats.bytes_read;
  for (const auto& run : without_diff.cells[0].details) full_reads += run.fs_stats.bytes_read;
  // The full path reads the whole ~33 KiB plotfile per run; the splice path
  // reads only the dirty extents of one 2 KiB slab.
  EXPECT_GT(full_reads, 0u);
  EXPECT_LT(diff_reads * 4, full_reads);
}

/// The metrics a spliced Nyx analysis must reproduce bit for bit: the
/// average-value detector reads mean_density, and the rest summarize the
/// catalog.  Returns whether both runs reached analysis.
bool expect_same_nyx_metrics(const core::RunResult& run, const core::RunResult& ref,
                             const std::string& where) {
  if (!run.analysis || !ref.analysis) return false;
  for (const char* name : {"mean_density", "candidate_cells", "total_mass", "halo_count"}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(run.analysis->metric(name)),
              std::bit_cast<std::uint64_t>(ref.analysis->metric(name)))
        << where << " " << name;
  }
  return true;
}

TEST(DiffClassification, NyxSpliceTakesTheHeaderExtentAndMatchesFullAnalysisPerRun) {
  // 2-dump Nyx instrumented at stage 2 rewrites slab z=0, whose 8 KiB of
  // raw data follow the HDF5 header inside 64 KiB extent 0: every dirty
  // range starts at byte 0.  analyze_dirty must find the header part equal
  // to the golden bytes and splice (one read of that extent, never the whole
  // plotfile).  The stage-1 cells fault the whole plotfile write, header
  // included, so some runs corrupt metadata and must still take the full
  // analysis, crashing exactly as the reference does.
  nyx::NyxConfig config;
  config.field.n = 32;
  config.timesteps = 2;
  const nyx::NyxApp app(config);

  constexpr std::uint64_t kRuns = 48;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(2024);
    builder.app(app).faults({"BF", "SHORN_WRITE@pwrite"}).stage(2).product();
    builder.app(app).faults({"BF", "DW"}).stage(1).product();
    return builder.build();
  };
  constexpr std::size_t kStageTwoCells = 2;

  const auto reference = exp::reference_run(make_plan());
  std::uint64_t spliced_changes = 0, reference_crashes = 0;
  for (std::size_t c = 0; c < reference.cells.size(); ++c) {
    const auto& cell = reference.cells[c];
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    ASSERT_EQ(cell.details.size(), kRuns);
    if (c < kStageTwoCells) spliced_changes += kRuns - cell.tally.count(Outcome::Benign);
    reference_crashes += cell.tally.count(Outcome::Crash);
  }
  ASSERT_GT(spliced_changes, 0u);    // some spliced runs change the catalog
  ASSERT_GT(reference_crashes, 0u);  // the stage-1 cells really hit metadata

  const std::uint64_t file_size = reference.cells[0].details[0].fs_stats.bytes_read;
  ASSERT_GT(file_size, vfs::ExtentStore::kDefaultChunkSize);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(make_plan());
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const auto& cell = report.cells[c];
      const auto& want = reference.cells[c];
      ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
      ASSERT_EQ(cell.details.size(), kRuns);
      EXPECT_EQ(cell.tally.count(Outcome::Crash), want.tally.count(Outcome::Crash))
          << cell.cell.label << " at " << threads << " threads";
      for (std::size_t r = 0; r < kRuns; ++r) {
        const core::RunResult& run = cell.details[r];
        const core::RunResult& ref = want.details[r];
        EXPECT_EQ(run.outcome, ref.outcome)
            << cell.cell.label << " run " << r << " at " << threads << " threads";
        EXPECT_EQ(run.crash_reason, ref.crash_reason) << cell.cell.label << " run " << r;
        if (run.analysis && ref.analysis) {
          EXPECT_EQ(run.analysis->report, ref.analysis->report)
              << cell.cell.label << " run " << r;
        }
        expect_same_nyx_metrics(run, ref, cell.cell.label + " run " + std::to_string(r));
        if (c < kStageTwoCells) {
          // Spliced: at most the one dirty extent is read, not the file.
          EXPECT_LE(run.fs_stats.bytes_read, vfs::ExtentStore::kDefaultChunkSize)
              << cell.cell.label << " run " << r;
          EXPECT_LE(run.fs_stats.pread_calls, 1u) << cell.cell.label << " run " << r;
          EXPECT_EQ(ref.fs_stats.bytes_read, file_size) << cell.cell.label << " run " << r;
        }
      }
    }
  }
}

TEST(DiffClassification, NyxSpliceMatchesReferenceMetricsUnderEveryModel) {
  // A 3-dump BF cell at stage 3 (slab z=1), the media models over a whole
  // 2-dump run (multi-sector, zeroed and misdirected patches), and a 1-dump
  // BF cell with the average-value detector, which classifies by the
  // mean_density metric.  Every run's outcome, catalog and metrics must match
  // the reference oracle's full analysis bit for bit, at 1 and 4 threads.
  const auto nyx_app = [](int timesteps, bool detector) {
    nyx::NyxConfig config;
    config.field.n = 32;
    config.timesteps = timesteps;
    config.use_average_value_detector = detector;
    return std::make_shared<const nyx::NyxApp>(config);
  };
  const auto three_dumps = nyx_app(3, false);
  const auto two_dumps = nyx_app(2, false);
  const auto detector = nyx_app(1, true);

  constexpr std::uint64_t kRuns = 32;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(77);
    builder.cell(*three_dumps, "BF", 3);
    builder.app(*two_dumps)
        .faults({"BIT_ROT@pwrite{sector=512,scrub=on,width=1}",
                 "TORN_SECTOR@pwrite{sector=4096,scrub=off}", "LSE", "MW"})
        .product();
    builder.cell(*detector, "BF", 1);
    return builder.build();
  };

  const auto reference = exp::reference_run(make_plan());
  std::uint64_t changed = 0;
  for (const auto& cell : reference.cells) {
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    changed += kRuns - cell.tally.count(Outcome::Benign);
  }
  ASSERT_GT(changed, 0u);
  EXPECT_GT(reference.cells.back().tally.count(Outcome::Detected), 0u);  // the detector fired

  std::map<const core::Application*, std::uint64_t> incremental;  // per app
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(make_plan());
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const auto& cell = report.cells[c];
      const auto& want = reference.cells[c];
      ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
      ASSERT_EQ(cell.details.size(), kRuns);
      for (std::size_t r = 0; r < kRuns; ++r) {
        const std::string where =
            cell.cell.label + " run " + std::to_string(r) + " at " + std::to_string(threads);
        const core::RunResult& run = cell.details[r];
        const core::RunResult& ref = want.details[r];
        EXPECT_EQ(run.outcome, ref.outcome) << where;
        EXPECT_EQ(run.crash_reason, ref.crash_reason) << where;
        if (run.analysis && ref.analysis) {
          EXPECT_EQ(run.analysis->report, ref.analysis->report) << where;
        }
        if (run.analysis && run.analysis->path == core::AnalysisPath::SplicedIncremental) {
          ++incremental[cell.cell.app];
        }
        expect_same_nyx_metrics(run, ref, where);
      }
    }
  }
  // Each app's spliced runs went through the golden index's incremental path.
  for (const auto& app : {three_dumps, two_dumps, detector}) {
    EXPECT_GT(incremental[app.get()], 0u) << app->config().timesteps << " dumps";
  }
}

TEST(DiffClassification, NyxSplicePathShareOnBenchShapedCells) {
  // The bench's nyx-classify BF cells: 80^3 with two dumps at stage 2 and
  // 96^3 with three dumps at stage 3, seed 42.  Every run is spliced, and the
  // golden index must take its incremental path on every run except those
  // whose threshold falls below its band (a flip that drives the mean
  // negative); those, and only those, take its spanning path, and none takes
  // the full finder.
  const auto nyx_app = [](std::size_t n, int timesteps) {
    nyx::NyxConfig config;
    config.field.n = n;
    config.timesteps = timesteps;
    return std::make_shared<const nyx::NyxApp>(config);
  };
  const auto small = nyx_app(80, 2);
  const auto large = nyx_app(96, 3);
  constexpr std::uint64_t kRuns = 400;
  exp::PlanBuilder builder;
  builder.runs(kRuns).seed(42);
  builder.cell(*small, "BF", 2);
  builder.cell(*large, "BF", 3);
  exp::EngineOptions options;
  options.threads = 4;
  options.keep_details = true;
  const auto report = exp::Engine(options).run(builder.build());

  ASSERT_EQ(report.cells.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const auto& cell = report.cells[c];
    const nyx::NyxApp& app = c == 0 ? *small : *large;
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;

    // The band floor of the golden field, as the index builds it.
    vfs::MemFs golden_fs;
    core::run_fault_free(app, cell.cell.app_seed(), golden_fs, 0, app.stage_count());
    const nyx::DensityField golden = nyx::read_plotfile(golden_fs, app.config().plotfile_path);
    const nyx::HaloIndex index(golden.n(), golden.data(), app.config().halo);

    std::uint64_t analyzed = 0, below_band = 0;
    std::map<core::AnalysisPath, std::uint64_t> paths;
    for (const core::RunResult& run : cell.details) {
      if (!run.analysis) continue;
      ++analyzed;
      ++paths[run.analysis->path];
      const double threshold =
          app.config().halo.threshold_factor * run.analysis->metric("mean_density");
      if (threshold < index.band_floor()) ++below_band;
    }
    const std::uint64_t incremental = paths[core::AnalysisPath::SplicedIncremental];
    EXPECT_EQ(analyzed, kRuns) << cell.cell.label;
    EXPECT_EQ(paths[core::AnalysisPath::SplicedSpanning], below_band) << cell.cell.label;
    // The full finder over the spliced field, and the full read.
    EXPECT_EQ(paths[core::AnalysisPath::Spliced], 0u) << cell.cell.label;
    EXPECT_EQ(paths[core::AnalysisPath::FullRead], 0u) << cell.cell.label;
    EXPECT_EQ(incremental + below_band, analyzed) << cell.cell.label;
    // Measured at seed 42: 389 of 400 runs at 80^3 and 392 of 400 at 96^3.
    EXPECT_GE(incremental, c == 0 ? 389u : 392u) << cell.cell.label;
  }
}

TEST(DiffClassification, QmcSpliceMatchesFullAnalysisPerRun) {
  // QMC stage 2 writes the DMC series s001 (~97 KiB, two 64 KiB extents).
  // A bit flip or shorn chunk changes a few bytes of it in place, so
  // analyze_dirty re-parses only the lines holding them over the golden
  // index; a dropped chunk leaves a NUL hole (flagged, also spliced) and a
  // dropped header write takes the full parse and crashes.  Every run must
  // match the full analysis of the reference oracle.
  const qmc::QmcApp app;

  constexpr std::uint64_t kRuns = 48;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(2024);
    builder.app(app).faults({"BF", "SHORN_WRITE@pwrite", "DROPPED_WRITE"}).stage(2).product();
    return builder.build();
  };

  const auto reference = exp::reference_run(make_plan());
  std::uint64_t changed = 0;
  for (const auto& cell : reference.cells) {
    ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
    ASSERT_EQ(cell.details.size(), kRuns);
    changed += kRuns - cell.tally.count(Outcome::Benign);
  }
  ASSERT_GT(changed, 0u);  // the faults really change s001

  std::map<core::AnalysisPath, std::uint64_t> paths;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::EngineOptions options;
    options.threads = threads;
    options.keep_details = true;
    const auto report = exp::Engine(options).run(make_plan());
    ASSERT_EQ(report.cells.size(), reference.cells.size());
    for (std::size_t c = 0; c < report.cells.size(); ++c) {
      const auto& cell = report.cells[c];
      const auto& want = reference.cells[c];
      ASSERT_TRUE(cell.error.empty()) << cell.cell.label << ": " << cell.error;
      ASSERT_EQ(cell.details.size(), kRuns);
      for (std::size_t r = 0; r < kRuns; ++r) {
        const core::RunResult& run = cell.details[r];
        const core::RunResult& ref = want.details[r];
        EXPECT_EQ(run.outcome, ref.outcome)
            << cell.cell.label << " run " << r << " at " << threads << " threads";
        EXPECT_EQ(run.crash_reason, ref.crash_reason) << cell.cell.label << " run " << r;
        ASSERT_EQ(run.analysis.has_value(), ref.analysis.has_value())
            << cell.cell.label << " run " << r;
        if (run.analysis) {
          EXPECT_EQ(run.analysis->report, ref.analysis->report) << cell.cell.label << " run " << r;
          EXPECT_EQ(run.analysis->metrics, ref.analysis->metrics)
              << cell.cell.label << " run " << r;
          // The oracle, with diff classification off, reads every run in full.
          EXPECT_EQ(ref.analysis->path, core::AnalysisPath::FullRead);
          ++paths[run.analysis->path];
        }
      }
    }
  }
  EXPECT_GT(paths[core::AnalysisPath::Spliced], 0u);  // QMCA re-parsed only changed lines
}

TEST(EngineCheckpoint, CowTrafficIsOChunkPerResumedRun) {
  // A 2-dump Nyx cell instrumented at stage 2: every checkpointed run forks
  // the multi-chunk plotfile and rewrites one slab in place.  The extent
  // store must keep that copy-on-write cost at O(chunk) per run, the report
  // must expose the checkpoint cache's memory, and the sinks' counters must
  // show the checkpointed path allocating far less than full re-execution.
  nyx::NyxConfig config;
  config.field.n = 32;  // plotfile ~256 KiB -> several 64 KiB extents
  config.timesteps = 2;
  nyx::NyxApp app(config);

  constexpr std::uint64_t kRuns = 8;
  auto make_plan = [&] {
    exp::PlanBuilder builder;
    builder.runs(kRuns).seed(77);
    builder.cell(app, "BF", 2);
    return builder.build();
  };

  const auto with_cp = exp::Engine().run(make_plan());
  const auto without_cp = exp::reference_run(make_plan());
  ASSERT_TRUE(with_cp.cells[0].error.empty()) << with_cp.cells[0].error;
  ASSERT_TRUE(without_cp.cells[0].error.empty()) << without_cp.cells[0].error;
  ASSERT_TRUE(with_cp.cells[0].checkpointed);

  // Equivalence first: the fast path changes cost, never science.
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    EXPECT_EQ(with_cp.cells[0].tally.count(outcome),
              without_cp.cells[0].tally.count(outcome));
  }

  // The report audits the checkpoint cache: one capture holding the full
  // prefix plotfile.
  EXPECT_EQ(with_cp.checkpoint_builds, 1u);
  EXPECT_GT(with_cp.checkpoint_bytes, 200u * 1024u);
  EXPECT_GT(with_cp.checkpoint_chunks, 2u);

  // O(chunk) per resumed run: a slab rewrite touches at most 2 extents.
  const std::uint64_t max_cow = kRuns * 2 * vfs::ExtentStore::kDefaultChunkSize;
  EXPECT_GT(with_cp.cells[0].cow_bytes_copied, 0u);
  EXPECT_LE(with_cp.cells[0].cow_bytes_copied, max_cow);
  EXPECT_LE(with_cp.cells[0].chunk_detaches, kRuns * 2);

  // Full re-execution rewrites the whole plotfile every run instead.
  EXPECT_EQ(without_cp.cells[0].cow_bytes_copied, 0u);
  EXPECT_GT(without_cp.cells[0].chunks_allocated,
            4 * with_cp.cells[0].chunks_allocated);
}

}  // namespace
