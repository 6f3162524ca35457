// Unit tests for ffis::core — outcomes, profiler and injector, exercised
// against a small deterministic toy application.

#include <gtest/gtest.h>

#include <cmath>

#include "ffis/core/application.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using core::Outcome;

// A toy application: writes `writes_per_stage` chunks in each of two stages,
// reads them back and reports their checksum.  Classification: corrupted
// bytes in stage-2 data -> "Detected" if the header magic broke, else SDC.
class ToyApp final : public core::Application {
 public:
  explicit ToyApp(std::size_t writes_per_stage = 4) : writes_(writes_per_stage) {}

  [[nodiscard]] std::string name() const override { return "toy"; }

  void run_stages(const core::RunContext& ctx, int, int) const override {
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
    result.metrics["bytes"] = static_cast<double>(result.comparison_blob.size());
    return result;
  }

  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("header_ok") != 0.0 ? Outcome::Sdc : Outcome::Detected;
  }

 private:
  std::size_t writes_;
};

// --- Outcome ----------------------------------------------------------------------

TEST(Outcome, NamesRoundtrip) {
  for (std::size_t i = 0; i < core::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(core::parse_outcome(core::outcome_name(o)), o);
  }
  EXPECT_THROW(core::parse_outcome("weird"), std::invalid_argument);
}

TEST(OutcomeTally, CountsAndFractions) {
  core::OutcomeTally tally;
  EXPECT_EQ(tally.total(), 0u);
  EXPECT_DOUBLE_EQ(tally.fraction(Outcome::Sdc), 0.0);
  for (int i = 0; i < 6; ++i) tally.add(Outcome::Benign);
  for (int i = 0; i < 3; ++i) tally.add(Outcome::Sdc);
  tally.add(Outcome::Crash);
  EXPECT_EQ(tally.total(), 10u);
  EXPECT_DOUBLE_EQ(tally.fraction(Outcome::Benign), 0.6);
  EXPECT_DOUBLE_EQ(tally.fraction(Outcome::Sdc), 0.3);
  EXPECT_EQ(tally.count(Outcome::Detected), 0u);
}

TEST(OutcomeTally, MergeAdds) {
  core::OutcomeTally a, b;
  a.add(Outcome::Benign);
  b.add(Outcome::Benign);
  b.add(Outcome::Crash);
  a.merge(b);
  EXPECT_EQ(a.count(Outcome::Benign), 2u);
  EXPECT_EQ(a.count(Outcome::Crash), 1u);
}

TEST(OutcomeTally, ToStringShowsAllClasses) {
  core::OutcomeTally tally;
  tally.add(Outcome::Sdc);
  const std::string s = tally.to_string();
  EXPECT_NE(s.find("sdc=1 (100.0%)"), std::string::npos);
  EXPECT_NE(s.find("benign=0"), std::string::npos);
}

// --- IoProfiler --------------------------------------------------------------------

TEST(IoProfiler, CountsTargetPrimitive) {
  ToyApp app(4);
  const auto profile =
      core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1);
  // 1 header write + 8 data writes.
  EXPECT_EQ(profile.primitive_count, 9u);
  EXPECT_EQ(profile.bytes_written, 5u + 8u * 64u);
}

TEST(IoProfiler, StageScopingLimitsTheWindow) {
  ToyApp app(4);
  const auto stage2 =
      core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1, 2);
  EXPECT_EQ(stage2.primitive_count, 4u);  // only stage-2 writes counted
}

TEST(IoProfiler, CountIsDeterministic) {
  ToyApp app(3);
  const auto a = core::IoProfiler::profile(app, faults::parse_fault_signature("DW"), 7);
  const auto b = core::IoProfiler::profile(app, faults::parse_fault_signature("DW"), 7);
  EXPECT_EQ(a.primitive_count, b.primitive_count);
}

TEST(IoProfiler, HonorsTheRunStoresExtentGeometry) {
  // The pass's storage counters stand in for a synthesized run's execution
  // phase, so they must come from a store with the runs' chunk size.
  ToyApp app(4);
  const auto bf = faults::parse_fault_signature("BF");
  vfs::MemFs::Options small;
  small.chunk_size = 16;
  const auto fine = core::IoProfiler::profile(app, bf, 1, -1, small);
  const auto coarse = core::IoProfiler::profile(app, bf, 1);
  EXPECT_EQ(fine.fs_stats.chunks_allocated, 1u + 8u * 64u / 16u);  // header + data
  EXPECT_EQ(coarse.fs_stats.chunks_allocated, 2u);
  EXPECT_EQ(fine.primitive_count, coarse.primitive_count);

  core::FaultInjector injector(app, bf);
  injector.set_fs_options(small);
  injector.prepare();
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    const auto draw = injector.draw(seed);
    const auto synthesized = injector.synthesize(draw);
    ASSERT_TRUE(synthesized.has_value());  // the app never reads a write back
    const auto executed = injector.execute_at(draw.instance, draw.feature_seed);
    EXPECT_EQ(synthesized->outcome, executed.outcome);
    EXPECT_EQ(synthesized->fs_stats.chunks_allocated, executed.fs_stats.chunks_allocated);
    EXPECT_EQ(synthesized->fs_stats.chunk_detaches, executed.fs_stats.chunk_detaches);
    EXPECT_EQ(synthesized->fs_stats.cow_bytes_copied, executed.fs_stats.cow_bytes_copied);
    EXPECT_EQ(synthesized->fs_stats.pread_calls, executed.fs_stats.pread_calls);
    EXPECT_EQ(synthesized->fs_stats.bytes_read, executed.fs_stats.bytes_read);
  }
}

// --- FaultInjector --------------------------------------------------------------------

TEST(FaultInjector, PrepareIsRequired) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("BF"));
  EXPECT_THROW((void)injector.golden(), std::logic_error);
  EXPECT_THROW((void)injector.execute(1), std::logic_error);
  injector.prepare();
  EXPECT_NO_THROW((void)injector.golden());
}

TEST(FaultInjector, GoldenMatchesDirectRun) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("BF"), 5);
  injector.prepare();
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 5, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  EXPECT_EQ(injector.golden().comparison_blob, app.analyze(fs).comparison_blob);
}

TEST(FaultInjector, SameSeedSameResult) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("BF"));
  injector.prepare();
  const auto a = injector.execute(11);
  const auto b = injector.execute(11);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.record.instance, b.record.instance);
}

TEST(FaultInjector, BitFlipInDataIsSilent) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("BF"));
  injector.prepare();
  // Instance 1+ are data writes -> bit flips differ from golden -> SDC.
  const auto result = injector.execute_at(3, 1);
  EXPECT_TRUE(result.fault_fired);
  EXPECT_EQ(result.outcome, Outcome::Sdc);
}

TEST(FaultInjector, DroppedHeaderCrashes) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("DW"));
  injector.prepare();
  // Instance 0 is the 5-byte header write; dropping it leaves an empty
  // header -> analyze throws -> Crash.
  const auto result = injector.execute_at(0, 1);
  EXPECT_EQ(result.outcome, Outcome::Crash);
  EXPECT_FALSE(result.crash_reason.empty());
}

TEST(FaultInjector, StageScopedInjectionLandsInStage) {
  ToyApp app(4);
  core::FaultInjector injector(app, faults::parse_fault_signature("DW"), 1,
                               /*instrumented_stage=*/2);
  injector.prepare();
  EXPECT_EQ(injector.primitive_count(), 4u);
  // Every stage-2 instance maps to global data writes 4..7: the dropped
  // chunk zeroes bytes in the second half of /data.
  const auto result = injector.execute_at(0, 1);
  ASSERT_TRUE(result.fault_fired);
  EXPECT_EQ(result.outcome, Outcome::Sdc);
  ASSERT_TRUE(result.analysis.has_value());
  // Dropped write leaves a zero gap; blob differs from golden.
  EXPECT_NE(result.analysis->comparison_blob, injector.golden().comparison_blob);
}

TEST(FaultInjector, InstanceBeyondCountNeverFires) {
  ToyApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("BF"));
  injector.prepare();
  const auto result = injector.execute_at(injector.primitive_count() + 10, 1);
  EXPECT_FALSE(result.fault_fired);
  EXPECT_EQ(result.outcome, Outcome::Benign);
}

}  // namespace
