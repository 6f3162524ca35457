// Unit tests for ffis::analysis — statistics, the HDF5 doctor, targeted
// field injection and the metadata sweep.

#include <gtest/gtest.h>

#include <cmath>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/analysis/metadata_sweep.hpp"
#include "ffis/analysis/stats.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/h5/reader.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;

// --- statistics -------------------------------------------------------------------

TEST(Stats, NormalQuantileKnownValues) {
  EXPECT_NEAR(analysis::normal_quantile_two_sided(0.95), 1.95996, 1e-4);
  EXPECT_NEAR(analysis::normal_quantile_two_sided(0.99), 2.57583, 1e-4);
  EXPECT_NEAR(analysis::normal_quantile_two_sided(0.6827), 1.0, 1e-3);
  EXPECT_THROW(analysis::normal_quantile_two_sided(0.0), std::invalid_argument);
  EXPECT_THROW(analysis::normal_quantile_two_sided(1.0), std::invalid_argument);
}

TEST(Stats, WaldIntervalBasics) {
  const auto ci = analysis::wald_interval(500, 1000);
  EXPECT_DOUBLE_EQ(ci.estimate, 0.5);
  EXPECT_NEAR(ci.half_width(), 0.031, 0.001);  // ~3.1% at n=1000, p=0.5
  EXPECT_LT(ci.low, 0.5);
  EXPECT_GT(ci.high, 0.5);
}

TEST(Stats, PaperSampleSizeGivesOneToTwoPercentBars) {
  // The paper quotes a 1-2% error bar for 1000 runs at 95% confidence.
  for (const std::uint64_t successes : {100ULL, 300ULL, 500ULL, 900ULL}) {
    const auto ci = analysis::wald_interval(successes, 1000);
    EXPECT_LE(ci.half_width(), 0.032);
    EXPECT_GE(ci.half_width(), 0.009);
  }
}

TEST(Stats, WilsonBetterBehavedAtExtremes) {
  const auto zero = analysis::wilson_interval(0, 1000);
  EXPECT_DOUBLE_EQ(zero.estimate, 0.0);
  EXPECT_DOUBLE_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  EXPECT_LT(zero.high, 0.01);

  const auto all = analysis::wilson_interval(1000, 1000);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  EXPECT_GT(all.low, 0.99);
}

TEST(Stats, IntervalsShrinkWithSampleSize) {
  const auto small = analysis::wilson_interval(5, 10);
  const auto large = analysis::wilson_interval(500, 1000);
  EXPECT_GT(small.half_width(), large.half_width());
}

TEST(Stats, ZeroTrialsRejected) {
  EXPECT_THROW((void)analysis::wald_interval(0, 0), std::invalid_argument);
  EXPECT_THROW((void)analysis::wilson_interval(0, 0), std::invalid_argument);
}

TEST(Stats, OutcomeRowFormatting) {
  core::OutcomeTally tally;
  for (int i = 0; i < 90; ++i) tally.add(core::Outcome::Benign);
  for (int i = 0; i < 10; ++i) tally.add(core::Outcome::Sdc);
  const std::string row = analysis::format_outcome_row("NYX-BF", tally);
  EXPECT_NE(row.find("NYX-BF"), std::string::npos);
  EXPECT_NE(row.find("90.0%"), std::string::npos);
  EXPECT_NE(row.find("10.0%"), std::string::npos);
  // Header and row align column-wise.
  EXPECT_EQ(analysis::outcome_row_header().size(), row.size());
}

// --- field injector -----------------------------------------------------------------

class FieldInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    h5::H5File file;
    h5::Dataset ds;
    ds.name = "baryon_density";
    ds.dims = {8, 8, 8};
    ds.data.assign(512, 1.25);
    file.datasets.push_back(std::move(ds));
    info_ = h5::write_h5(fs_, "/f.h5", file);
  }

  vfs::MemFs fs_;
  h5::WriteInfo info_;
  const std::string bias_ = "objectHeader[baryon_density].dataType.floatProperty.exponentBias";
};

TEST_F(FieldInjectorTest, ReadSetRoundtrip) {
  EXPECT_EQ(analysis::read_field_value(fs_, "/f.h5", info_.field_map, bias_), 1023u);
  analysis::set_field_value(fs_, "/f.h5", info_.field_map, bias_, 1000);
  EXPECT_EQ(analysis::read_field_value(fs_, "/f.h5", info_.field_map, bias_), 1000u);
}

TEST_F(FieldInjectorTest, AddDeltaNegative) {
  analysis::add_field_delta(fs_, "/f.h5", info_.field_map, bias_, -12);
  EXPECT_EQ(analysis::read_field_value(fs_, "/f.h5", info_.field_map, bias_), 1011u);
}

TEST_F(FieldInjectorTest, FlipBitsIsInvolution) {
  analysis::flip_field_bits(fs_, "/f.h5", info_.field_map, bias_, 3, 2);
  EXPECT_NE(analysis::read_field_value(fs_, "/f.h5", info_.field_map, bias_), 1023u);
  analysis::flip_field_bits(fs_, "/f.h5", info_.field_map, bias_, 3, 2);
  EXPECT_EQ(analysis::read_field_value(fs_, "/f.h5", info_.field_map, bias_), 1023u);
}

TEST_F(FieldInjectorTest, UnknownFieldAndBadBitRejected) {
  EXPECT_THROW(analysis::read_field_value(fs_, "/f.h5", info_.field_map, "bogus"),
               std::invalid_argument);
  EXPECT_THROW(analysis::flip_field_bits(fs_, "/f.h5", info_.field_map, bias_, 64),
               std::out_of_range);
}

// --- Hdf5Doctor -----------------------------------------------------------------------

class DoctorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nyx::NyxConfig config;
    config.field.n = 16;
    app_ = std::make_unique<nyx::NyxApp>(config);
    config_ = config;

    core::RunContext ctx{.fs = fs_, .app_seed = 1, .instrumented_stage = -1,
                         .instrument = nullptr};
    app_->run(ctx);
    golden_ = app_->analyze(fs_);

    layout_ = nyx::plan_plotfile_layout(config.field.n, config.h5_options);
    doctor_ = std::make_unique<analysis::Hdf5Doctor>(layout_, nyx::kDensityDatasetName);
  }

  std::string field(const std::string& suffix) const {
    return "objectHeader[baryon_density]." + suffix;
  }

  void expect_repair(analysis::FaultyField expected) {
    const auto diagnosis = doctor_->diagnose(fs_, config_.plotfile_path);
    EXPECT_EQ(diagnosis.field, expected)
        << analysis::faulty_field_name(diagnosis.field) << ": " << diagnosis.description;
    ASSERT_TRUE(diagnosis.correctable());
    ASSERT_TRUE(doctor_->correct(fs_, config_.plotfile_path, diagnosis));
    const auto after = doctor_->diagnose(fs_, config_.plotfile_path);
    EXPECT_TRUE(after.healthy()) << after.description;
    // Post-analysis output restored bit-for-bit.
    const auto repaired = app_->analyze(fs_);
    EXPECT_EQ(repaired.comparison_blob, golden_.comparison_blob);
  }

  vfs::MemFs fs_;
  nyx::NyxConfig config_;
  std::unique_ptr<nyx::NyxApp> app_;
  core::AnalysisResult golden_;
  h5::WriteInfo layout_;
  std::unique_ptr<analysis::Hdf5Doctor> doctor_;
};

TEST_F(DoctorTest, HealthyFileDiagnosesHealthy) {
  const auto d = doctor_->diagnose(fs_, config_.plotfile_path);
  EXPECT_TRUE(d.healthy());
  EXPECT_TRUE(d.mean_checked);
  EXPECT_NEAR(d.observed_mean, 1.0, 1e-9);
}

TEST_F(DoctorTest, ExponentBiasDownRepaired) {
  analysis::add_field_delta(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.exponentBias"), -12);
  const auto d = doctor_->diagnose(fs_, config_.plotfile_path);
  ASSERT_TRUE(d.bias_delta.has_value());
  EXPECT_EQ(*d.bias_delta, 12);
  expect_repair(analysis::FaultyField::ExponentBias);
}

TEST_F(DoctorTest, ExponentBiasUpRepaired) {
  analysis::add_field_delta(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.exponentBias"), 5);
  expect_repair(analysis::FaultyField::ExponentBias);
}

TEST_F(DoctorTest, ExponentLocationRepaired) {
  analysis::flip_field_bits(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.exponentLocation"), 0);
  expect_repair(analysis::FaultyField::ExponentLocation);
}

TEST_F(DoctorTest, ExponentSizeRepaired) {
  analysis::flip_field_bits(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.exponentSize"), 1);
  expect_repair(analysis::FaultyField::ExponentSize);
}

TEST_F(DoctorTest, MantissaLocationRepaired) {
  analysis::set_field_value(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.mantissaLocation"), 3);
  expect_repair(analysis::FaultyField::MantissaLocation);
}

TEST_F(DoctorTest, MantissaSizeRepaired) {
  analysis::flip_field_bits(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.mantissaSize"), 2);
  expect_repair(analysis::FaultyField::MantissaSize);
}

TEST_F(DoctorTest, NormalizationBitRepaired) {
  analysis::flip_field_bits(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.classBitField0"), 5);
  expect_repair(analysis::FaultyField::MantissaNormalization);
}

TEST_F(DoctorTest, ArdRepairedEvenThoughMeanIsUnchanged) {
  // The ARD case the paper singles out: the average value stays 1, so only
  // the structural rule (ARD == metadata size) can catch it.
  analysis::add_field_delta(fs_, config_.plotfile_path, layout_.field_map,
                            field("layout.addressOfRawData"), -16 * 8);
  expect_repair(analysis::FaultyField::AddressOfRawData);
}

TEST_F(DoctorTest, DiagnoseAndCorrectLoopConverges) {
  analysis::add_field_delta(fs_, config_.plotfile_path, layout_.field_map,
                            field("dataType.floatProperty.exponentBias"), -3);
  const auto final_diagnosis = doctor_->diagnose_and_correct(fs_, config_.plotfile_path);
  EXPECT_TRUE(final_diagnosis.healthy());
}

TEST_F(DoctorTest, DataCorruptionIsNotAttributedToAField) {
  // Corrupt raw data (not metadata): mean deviates but fields are
  // consistent -> Unknown, not correctable.
  vfs::File f(fs_, config_.plotfile_path, vfs::OpenMode::ReadWrite);
  util::Bytes zeros(4096);
  f.pwrite(zeros, layout_.data_addresses.front());
  f.reset();
  const auto d = doctor_->diagnose(fs_, config_.plotfile_path);
  EXPECT_EQ(d.field, analysis::FaultyField::Unknown);
  EXPECT_FALSE(d.correctable());
}

// --- metadata sweep ----------------------------------------------------------------------

TEST(MetadataSweep, SmallNyxSweepHasPaperShape) {
  nyx::NyxConfig config;
  config.field.n = 16;
  nyx::NyxApp app(config);
  const auto layout = nyx::plan_plotfile_layout(config.field.n, config.h5_options);

  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config.plotfile_path;
  sweep_config.metadata_bytes = layout.metadata_size;
  const auto sweep = analysis::metadata_sweep(app, 1, sweep_config);

  EXPECT_EQ(sweep.cases.size(), layout.metadata_size);
  EXPECT_EQ(sweep.tally.total(), layout.metadata_size);
  // Paper Table III shape: benign dominates, crash second, SDC rare.
  EXPECT_GT(sweep.tally.fraction(core::Outcome::Benign), 0.70);
  EXPECT_GT(sweep.tally.fraction(core::Outcome::Crash), 0.02);
  EXPECT_LT(sweep.tally.fraction(core::Outcome::Sdc), 0.05);

  // Signature bytes always crash.
  const auto by_class = sweep.tally_by_class(layout.field_map);
  const auto& signature_tally = by_class.at("signature");
  EXPECT_EQ(signature_tally.fraction(core::Outcome::Crash), 1.0);
  // Unused space is overwhelmingly benign.
  const auto& unused_tally = by_class.at("unused");
  EXPECT_GT(unused_tally.fraction(core::Outcome::Benign), 0.95);
}

TEST(MetadataSweep, RejectsBadConfig) {
  nyx::NyxConfig config;
  config.field.n = 16;
  nyx::NyxApp app(config);
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = "/wrong/path.h5";
  sweep_config.metadata_bytes = 100;
  EXPECT_THROW((void)analysis::metadata_sweep(app, 1, sweep_config),
               std::invalid_argument);
  sweep_config.metadata_bytes = 0;
  EXPECT_THROW((void)analysis::metadata_sweep(app, 1, sweep_config),
               std::invalid_argument);
}

}  // namespace
