// Integration tests: full FFIS campaigns against the three mini-apps,
// asserting the qualitative shapes the paper reports, plus end-to-end
// metadata experiments (sweep + doctor).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/analysis/metadata_sweep.hpp"
#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using core::Outcome;

exp::CellResult run_campaign(const core::Application& app, const std::string& fault,
                             std::uint64_t runs, int stage = -1) {
  exp::PlanBuilder builder;
  builder.runs(runs).seed(42);
  builder.cell(app, fault, stage, "campaign");
  exp::CellResult cell = std::move(exp::Engine().run(builder.build()).cells.front());
  EXPECT_EQ(cell.error, "");
  return cell;
}

// Exact outcome counts {benign, detected, sdc, crash} at seed 42.  These pin
// the paper-level results so a refactor cannot drift them silently; the
// fraction checks beside each pin state the shape the paper reports.
using Counts = std::array<std::uint64_t, core::kOutcomeCount>;

void expect_tally(const core::OutcomeTally& tally, const Counts& expected) {
  for (std::size_t i = 0; i < core::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(tally.count(o), expected[i]) << core::outcome_name(o);
  }
}

void expect_pinned(const exp::CellResult& cell, const Counts& expected,
                   std::uint64_t primitive_count) {
  expect_tally(cell.tally, expected);
  EXPECT_EQ(cell.primitive_count, primitive_count);
  EXPECT_EQ(cell.faults_not_fired, 0u);
}

nyx::NyxConfig small_nyx_config() {
  nyx::NyxConfig config;
  config.field.n = 32;
  return config;
}

// --- Nyx campaign shapes (paper Fig. 7) --------------------------------------------

TEST(NyxCampaigns, BitFlipIsMostlyBenign) {
  nyx::NyxApp app(small_nyx_config());
  const auto result = run_campaign(app, "BF", 80);
  expect_pinned(result, {69, 1, 4, 6}, 18);
  // Paper: 91.1% benign, SDC 0.8% (lowest of the three apps).
  EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.6);
  EXPECT_LT(result.tally.fraction(Outcome::Sdc), 0.25);
}

TEST(NyxCampaigns, DroppedWriteIsAlmostAllSdc) {
  nyx::NyxApp app(small_nyx_config());
  const auto result = run_campaign(app, "DW", 80);
  expect_pinned(result, {5, 0, 65, 10}, 18);
  // Paper: 1000/1000 SDC.
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.8);
}

TEST(NyxCampaigns, ShornWriteIsTheMostBenignFault) {
  nyx::NyxApp app(small_nyx_config());
  const auto sw = run_campaign(app, "SW", 80);
  const auto dw = run_campaign(app, "DW", 80);
  expect_pinned(sw, {50, 0, 19, 11}, 18);
  expect_pinned(dw, {5, 0, 65, 10}, 18);
  // Paper: SW all benign; at minimum it must be far more benign than DW.
  EXPECT_GT(sw.tally.fraction(Outcome::Benign),
            dw.tally.fraction(Outcome::Benign) + 0.4);
}

TEST(NyxCampaigns, AverageValueDetectorConvertsDwSdcToDetected) {
  // The paper's headline mitigation: "all SDC cases with Nyx will be changed
  // to detected cases after using the average-value-based method".
  auto config = small_nyx_config();
  config.use_average_value_detector = true;
  nyx::NyxApp protected_app(config);
  const auto result = run_campaign(protected_app, "DW", 60);
  expect_pinned(result, {4, 49, 0, 7}, 18);
  EXPECT_EQ(result.tally.count(Outcome::Sdc), 0u);
  EXPECT_GT(result.tally.fraction(Outcome::Detected), 0.8);
}

// --- QMCPACK campaign shapes ----------------------------------------------------------

TEST(QmcCampaigns, BitFlipIsSdcHeavy) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "BF", 60);
  expect_pinned(result, {24, 1, 35, 0}, 40);
  // Paper: ~60% SDC, ~0.8% detected — SDC dominates the corrupted runs.
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.3);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc),
            3.0 * result.tally.fraction(Outcome::Detected));
}

TEST(QmcCampaigns, DroppedWriteIsDetectedHeavy) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "DW", 60);
  expect_pinned(result, {24, 33, 1, 2}, 40);
  // Paper: detected 43% >> SDC 8% — the NUL holes are visible corruption.
  EXPECT_GT(result.tally.fraction(Outcome::Detected),
            result.tally.fraction(Outcome::Sdc));
  EXPECT_GT(result.tally.fraction(Outcome::Detected), 0.3);
}

TEST(QmcCampaigns, ShornWriteHasNoDetected) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "SW", 60);
  expect_pinned(result, {24, 0, 34, 2}, 40);
  // Paper: all SHORN_WRITE faults are benign or SDC (none detected).
  EXPECT_LE(result.tally.fraction(Outcome::Detected), 0.05);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.3);
}

TEST(QmcCampaigns, FaultsInVmcSeriesAreBenign) {
  // ~40% of writes land in He.s000 / the XML echo, which the post-analysis
  // never reads: those runs must be benign (the error-masking the paper
  // attributes to multi-file output).
  qmc::QmcApp app;
  const auto result = run_campaign(app, "BF", 60);
  expect_pinned(result, {24, 1, 35, 0}, 40);
  EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.25);
  EXPECT_LT(result.tally.fraction(Outcome::Benign), 0.6);
}

// --- Montage campaign shapes ------------------------------------------------------------

TEST(MontageCampaigns, StageTwoIsTheMostResilient) {
  // Paper V-B: the mDiffExec stage has the lowest SDC rate because its
  // output feeds plane-fitting, which absorbs corruption.
  montage::MontageApp app;
  const auto mt1 = run_campaign(app, "BF", 60, 1);
  const auto mt2 = run_campaign(app, "BF", 60, 2);
  expect_pinned(mt1, {51, 2, 7, 0}, 80);
  expect_pinned(mt2, {56, 0, 4, 0}, 27);
  EXPECT_LE(mt2.tally.fraction(Outcome::Sdc), mt1.tally.fraction(Outcome::Sdc));
  EXPECT_GT(mt2.tally.fraction(Outcome::Benign), 0.7);
}

TEST(MontageCampaigns, BitFlipSdcRatesAreStableAcrossStages) {
  // Paper: BF SDC rates stay in a narrow band (12.8 / 8 / 9 / 6.8 %).
  montage::MontageApp app;
  const std::array<Counts, 4> pinned = {
      {{51, 2, 7, 0}, {56, 0, 4, 0}, {53, 2, 5, 0}, {56, 0, 4, 0}}};
  const std::array<std::uint64_t, 4> primitives = {80, 27, 80, 53};
  for (int stage = 1; stage <= 4; ++stage) {
    SCOPED_TRACE("stage " + std::to_string(stage));
    const auto result = run_campaign(app, "BF", 60, stage);
    expect_pinned(result, pinned[stage - 1], primitives[stage - 1]);
    EXPECT_LT(result.tally.fraction(Outcome::Sdc), 0.35) << "stage " << stage;
    EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.5) << "stage " << stage;
  }
}

TEST(MontageCampaigns, DroppedWritesAreNeverBenignInStageThree) {
  montage::MontageApp app;
  const auto result = run_campaign(app, "DW", 60, 3);
  expect_pinned(result, {0, 21, 39, 0}, 80);
  // Paper: 98.3% SDC in stage 3 — nothing is benign, little crashes.
  EXPECT_EQ(result.tally.count(Outcome::Benign), 0u);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.4);
  EXPECT_LT(result.tally.fraction(Outcome::Crash), 0.1);
}

// --- Metadata experiments end-to-end ------------------------------------------------------

class MetadataEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = small_nyx_config();
    app_ = std::make_unique<nyx::NyxApp>(config_);
    layout_ = nyx::plan_plotfile_layout(config_.field.n, config_.h5_options);
  }

  nyx::NyxConfig config_;
  std::unique_ptr<nyx::NyxApp> app_;
  h5::WriteInfo layout_;
};

TEST_F(MetadataEndToEnd, SweepReproducesTableThreeShape) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);
  // Pinned at seed 1 before the A/B retirements: 2424 metadata bytes.
  ASSERT_EQ(sweep.cases.size(), 2424u);
  expect_tally(sweep.tally, {2229, 5, 3, 187});
  // Every case's (offset, outcome, crash_reason), so no case can move to
  // another byte or change its crash message under an unchanged tally.
  std::uint64_t digest = util::fnv1a64({});
  for (const auto& c : sweep.cases) {
    const std::uint64_t head[] = {c.offset, static_cast<std::uint64_t>(c.outcome),
                                  c.crash_reason.size()};
    digest = util::fnv1a64(std::as_bytes(std::span(head)), digest);
    digest = util::fnv1a64(std::as_bytes(std::span(c.crash_reason)), digest);
  }
  EXPECT_EQ(digest, 0x9ab68f46d12cb8c1ULL) << std::hex << digest;

  // Table III: benign 85.7%, crash 14.1%, SDC 0.2%.
  EXPECT_GT(sweep.tally.fraction(Outcome::Benign), 0.75);
  EXPECT_GT(sweep.tally.fraction(Outcome::Crash), 0.03);
  EXPECT_LT(sweep.tally.fraction(Outcome::Crash), 0.25);
  EXPECT_LT(sweep.tally.fraction(Outcome::Sdc) + sweep.tally.fraction(Outcome::Detected),
            0.06);
}

TEST_F(MetadataEndToEnd, SdcBytesComeFromTheTableFourFields) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);

  for (const auto& byte_case : sweep.cases) {
    if (byte_case.outcome != Outcome::Sdc) continue;
    const auto* entry = layout_.field_map.find(byte_case.offset);
    ASSERT_NE(entry, nullptr);
    // SDC-capable bytes must be datatype/layout fields (Table IV's list),
    // never signatures, versions or unused space.
    EXPECT_TRUE(entry->cls == h5::FieldClass::DatatypeField ||
                entry->cls == h5::FieldClass::LayoutField)
        << entry->name << " produced SDC";
  }
}

TEST_F(MetadataEndToEnd, DoctorNeutralizesSweepSdcCases) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);

  // Re-run each SDC byte case and let the doctor repair the file first.
  std::shared_ptr<const vfs::MemFs> golden_tree;
  const auto golden = core::FaultInjector::run_golden(*app_, 1, &golden_tree);
  const analysis::Hdf5Doctor doctor(layout_, nyx::kDensityDatasetName);

  std::size_t sdc_cases = 0, repaired = 0;
  for (const auto& byte_case : sweep.cases) {
    if (byte_case.outcome != Outcome::Sdc) continue;
    ++sdc_cases;
    vfs::MemFs fs = golden_tree->fork(vfs::MemFs::Concurrency::SingleThread);
    analysis::corrupt_metadata_byte(fs, sweep_config, byte_case.offset);

    (void)doctor.diagnose_and_correct(fs, config_.plotfile_path);
    try {
      const auto fixed = app_->analyze(fs);
      if (fixed.comparison_blob == golden.comparison_blob) ++repaired;
    } catch (const std::exception&) {
    }
  }
  if (sdc_cases > 0) {
    // The doctor must neutralize the large majority of metadata SDC bytes.
    EXPECT_GE(static_cast<double>(repaired) / static_cast<double>(sdc_cases), 0.7)
        << repaired << " of " << sdc_cases;
  }
}

// --- Cross-cutting determinism ---------------------------------------------------------

TEST(Determinism, CampaignTalliesAreReproducible) {
  nyx::NyxApp app(small_nyx_config());
  const auto a = run_campaign(app, "BF", 30);
  const auto b = run_campaign(app, "BF", 30);
  for (std::size_t i = 0; i < core::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(a.tally.count(o), b.tally.count(o));
  }
}

}  // namespace
