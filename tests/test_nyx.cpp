// Unit tests for the mini-Nyx application: density field, halo finder,
// plotfile I/O and outcome classification.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/halo_finder.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/core/application.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "write_recording.hpp"

namespace {

using namespace ffis;
using nyx::DensityField;
using nyx::FieldConfig;
using nyx::HaloFinderConfig;

// --- density field --------------------------------------------------------------

TEST(DensityField, GenerationIsDeterministic) {
  FieldConfig config;
  config.n = 16;
  const auto a = nyx::generate_density_field(config);
  const auto b = nyx::generate_density_field(config);
  EXPECT_EQ(a.data(), b.data());
  config.seed = 2;
  const auto c = nyx::generate_density_field(config);
  EXPECT_NE(a.data(), c.data());
}

class FieldMeanIsOne : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FieldMeanIsOne, MassConservation) {
  FieldConfig config;
  config.n = 24;
  config.seed = GetParam();
  const auto field = nyx::generate_density_field(config);
  // The average-value detector relies on |mean - 1| staying far below 1e-3.
  EXPECT_NEAR(field.mean(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldMeanIsOne, ::testing::Values(1u, 2u, 3u, 42u, 1000u));

TEST(DensityField, ValuesArePositiveWithDenseBlobs) {
  FieldConfig config;
  config.n = 32;
  const auto field = nyx::generate_density_field(config);
  for (const double v : field.data()) EXPECT_GT(v, 0.0);
  // Halos make the max far exceed the 81.66x threshold over the mean.
  EXPECT_GT(field.max(), 81.66);
}

TEST(DensityField, IndexingIsRowMajorZyx) {
  DensityField field(4, std::vector<double>(64, 0.0));
  field.at(1, 2, 3) = 7.0;
  EXPECT_EQ(field.data()[(3 * 4 + 2) * 4 + 1], 7.0);
  EXPECT_EQ(field.linear_index(1, 2, 3), (3u * 4 + 2) * 4 + 1);
}

TEST(DensityField, RejectsMismatchedSizes) {
  EXPECT_THROW(DensityField(4, std::vector<double>(63)), std::invalid_argument);
  FieldConfig tiny;
  tiny.n = 4;
  EXPECT_THROW((void)nyx::generate_density_field(tiny), std::invalid_argument);
}

// --- halo finder -----------------------------------------------------------------

DensityField uniform_field(std::size_t n, double value = 1.0) {
  return DensityField(n, std::vector<double>(n * n * n, value));
}

TEST(HaloFinder, NoHalosInUniformField) {
  const auto catalog = nyx::find_halos(uniform_field(8));
  EXPECT_TRUE(catalog.halos.empty());
  EXPECT_EQ(catalog.candidate_cells, 0u);
  EXPECT_DOUBLE_EQ(catalog.mean_density, 1.0);
  EXPECT_NEAR(catalog.threshold, 81.66, 1e-9);
}

TEST(HaloFinder, DetectsACraftedBlob) {
  auto field = uniform_field(16);
  // A 2x2x2 blob well above threshold (mean stays ~1).
  for (std::size_t z = 4; z < 6; ++z)
    for (std::size_t y = 4; y < 6; ++y)
      for (std::size_t x = 4; x < 6; ++x) field.at(x, y, z) = 500.0;

  const auto catalog = nyx::find_halos(field);
  ASSERT_EQ(catalog.halos.size(), 1u);
  EXPECT_EQ(catalog.halos[0].cells, 8u);
  EXPECT_NEAR(catalog.halos[0].cx, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].cy, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].cz, 4.5, 1e-9);
  EXPECT_NEAR(catalog.halos[0].mass, 8 * 500.0, 1e-9);
}

TEST(HaloFinder, MinCellsRuleFiltersSmallClumps) {
  auto field = uniform_field(16);
  for (std::size_t x = 2; x < 6; ++x) field.at(x, 2, 2) = 900.0;  // 4 cells only
  HaloFinderConfig config;
  config.min_cells = 8;
  EXPECT_TRUE(nyx::find_halos(field, config).halos.empty());
  config.min_cells = 4;
  EXPECT_EQ(nyx::find_halos(field, config).halos.size(), 1u);
}

TEST(HaloFinder, SixConnectivityDoesNotLinkDiagonals) {
  auto field = uniform_field(16);
  // Two 8-cell blobs touching only at a corner: must remain two halos.
  for (std::size_t z = 2; z < 4; ++z)
    for (std::size_t y = 2; y < 4; ++y)
      for (std::size_t x = 2; x < 4; ++x) field.at(x, y, z) = 800.0;
  for (std::size_t z = 4; z < 6; ++z)
    for (std::size_t y = 4; y < 6; ++y)
      for (std::size_t x = 4; x < 6; ++x) field.at(x, y, z) = 700.0;
  const auto catalog = nyx::find_halos(field);
  EXPECT_EQ(catalog.halos.size(), 2u);
}

TEST(HaloFinder, FaceContactMergesComponents) {
  auto field = uniform_field(16);
  for (std::size_t z = 2; z < 4; ++z)
    for (std::size_t y = 2; y < 4; ++y)
      for (std::size_t x = 2; x < 6; ++x) field.at(x, y, z) = 600.0;  // one 16-cell bar
  const auto catalog = nyx::find_halos(field);
  ASSERT_EQ(catalog.halos.size(), 1u);
  EXPECT_EQ(catalog.halos[0].cells, 16u);
}

TEST(HaloFinder, ThresholdScalesWithMean) {
  // Scaling all data by 2^k scales threshold and masses but keeps the same
  // candidate set — the Exponent-Bias SDC signature of Table IV.
  FieldConfig config;
  config.n = 24;
  auto field = nyx::generate_density_field(config);
  const auto golden = nyx::find_halos(field);
  for (auto& v : field.data()) v *= 4096.0;
  const auto scaled = nyx::find_halos(field);
  ASSERT_EQ(scaled.halos.size(), golden.halos.size());
  for (std::size_t i = 0; i < golden.halos.size(); ++i) {
    EXPECT_EQ(scaled.halos[i].cells, golden.halos[i].cells);
    EXPECT_DOUBLE_EQ(scaled.halos[i].cx, golden.halos[i].cx);
    EXPECT_NEAR(scaled.halos[i].mass, golden.halos[i].mass * 4096.0,
                golden.halos[i].mass);
  }
}

TEST(HaloFinder, NonFiniteDataYieldsEmptyCatalog) {
  auto field = uniform_field(8);
  field.at(1, 1, 1) = std::numeric_limits<double>::infinity();
  const auto catalog = nyx::find_halos(field);
  EXPECT_TRUE(catalog.halos.empty());  // threshold became infinite
}

TEST(HaloFinder, SortedByMassDescending) {
  FieldConfig config;
  config.n = 32;
  const auto field = nyx::generate_density_field(config);
  const auto catalog = nyx::find_halos(field);
  ASSERT_GE(catalog.halos.size(), 2u);
  for (std::size_t i = 1; i < catalog.halos.size(); ++i) {
    EXPECT_GE(catalog.halos[i - 1].mass, catalog.halos[i].mass);
  }
}

TEST(HaloFinder, CatalogTextIsStableAndParsable) {
  FieldConfig config;
  config.n = 24;
  const auto field = nyx::generate_density_field(config);
  const auto a = nyx::find_halos(field).to_text();
  const auto b = nyx::find_halos(field).to_text();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("total_halos="), std::string::npos);
}

// --- plotfile I/O -----------------------------------------------------------------

TEST(Plotfile, RoundtripPreservesField) {
  FieldConfig config;
  config.n = 16;
  const auto field = nyx::generate_density_field(config);
  vfs::MemFs fs;
  const auto info = nyx::write_plotfile(fs, "/plt.h5", field);
  EXPECT_EQ(info.data_addresses[0], info.metadata_size);
  const auto back = nyx::read_plotfile(fs, "/plt.h5");
  EXPECT_EQ(back.n(), field.n());
  EXPECT_EQ(back.data(), field.data());
}

TEST(Plotfile, NonCubicDatasetRejected) {
  vfs::MemFs fs;
  h5::H5File file;
  h5::Dataset ds;
  ds.name = nyx::kDensityDatasetName;
  ds.dims = {4, 4, 8};
  ds.data.resize(128, 1.0);
  file.datasets.push_back(std::move(ds));
  (void)h5::write_h5(fs, "/bad.h5", file);
  EXPECT_THROW((void)nyx::read_plotfile(fs, "/bad.h5"), h5::H5FormatError);
}

// --- NyxApp ------------------------------------------------------------------------

TEST(NyxApp, RunAnalyzeGoldenIsBenign) {
  nyx::NyxConfig config;
  config.field.n = 32;
  nyx::NyxApp app(config);
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto a = app.analyze(fs);
  const auto b = app.analyze(fs);
  EXPECT_EQ(a.comparison_blob, b.comparison_blob);
  EXPECT_GE(a.metric("halo_count"), 1.0);
  EXPECT_NEAR(a.metric("mean_density"), 1.0, 1e-9);
}

TEST(NyxApp, FieldCacheServesRepeatedRuns) {
  nyx::NyxConfig config;
  config.field.n = 16;
  nyx::NyxApp app(config);
  const auto f1 = app.field(3);
  const auto f2 = app.field(3);
  EXPECT_EQ(f1.get(), f2.get());  // same cached object
  // field(4) evicts the seed-3 cache entry; f1's shared ownership keeps the
  // seed-3 field alive regardless.
  const auto f3 = app.field(4);
  EXPECT_NE(f1->data(), f3->data());
}

TEST(NyxApp, WritesAreChunked) {
  nyx::NyxConfig config;
  config.field.n = 16;  // 32 KB raw data
  config.h5_options.data_chunk_bytes = 4096;
  nyx::NyxApp app(config);
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  core::RunContext ctx{.fs = counting, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  EXPECT_EQ(counting.count(vfs::Primitive::Pwrite), 10u);  // 8 data + metadata + EOF
  EXPECT_EQ(counting.count(vfs::Primitive::Mknod), 1u);    // lock protocol
  EXPECT_EQ(counting.count(vfs::Primitive::Unlink), 1u);
}

TEST(NyxApp, RejectsNonPositiveTimesteps) {
  nyx::NyxConfig config;
  config.timesteps = 0;
  EXPECT_THROW(nyx::NyxApp{config}, std::invalid_argument);
}

TEST(NyxApp, RejectsAverageValueDetectorWithSlabGrowth) {
  // Slab growth shifts the fault-free mean off 1, which would make the
  // mean-based detector flag every divergent run (SDC tally silently 0).
  nyx::NyxConfig config;
  config.timesteps = 2;
  config.use_average_value_detector = true;
  EXPECT_THROW(nyx::NyxApp{config}, std::invalid_argument);
  config.slab_growth = 0.0;  // no mean shift: the combination is sound again
  EXPECT_NO_THROW(nyx::NyxApp{config});
}

TEST(NyxApp, MultiDumpUpdatesSlabsInPlace) {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 3;  // stage 2 advances slab z=0, stage 3 slab z=1
  nyx::NyxApp app(config);
  EXPECT_EQ(app.stage_count(), 3);

  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 5, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);

  const auto base_field = app.field(5);  // hold ownership, not a reference
  const DensityField& base = *base_field;
  const DensityField updated = nyx::read_plotfile(fs, config.plotfile_path);
  const std::size_t n = base.n();
  // Slab 0 scaled by 1 + growth*1, slab 1 by 1 + growth*2, the rest intact.
  for (std::size_t x = 0; x < n; x += 5) {
    for (std::size_t y = 0; y < n; y += 5) {
      EXPECT_DOUBLE_EQ(updated.at(x, y, 0), base.at(x, y, 0) * (1.0 + config.slab_growth));
      EXPECT_DOUBLE_EQ(updated.at(x, y, 1),
                       base.at(x, y, 1) * (1.0 + 2.0 * config.slab_growth));
      EXPECT_DOUBLE_EQ(updated.at(x, y, 2), base.at(x, y, 2));
      EXPECT_DOUBLE_EQ(updated.at(x, y, n - 1), base.at(x, y, n - 1));
    }
  }
}

TEST(NyxApp, MultiDumpRunsAreDeterministic) {
  nyx::NyxConfig config;
  config.field.n = 16;
  config.timesteps = 2;
  nyx::NyxApp app(config);
  core::AnalysisResult results[2];
  for (auto& result : results) {
    vfs::MemFs fs;
    core::RunContext ctx{.fs = fs, .app_seed = 9, .instrumented_stage = -1,
                         .instrument = nullptr};
    app.run(ctx);
    result = app.analyze(fs);
  }
  EXPECT_EQ(results[0].comparison_blob, results[1].comparison_blob);
}

TEST(NyxApp, SlabUpdateWritesOnlyTheSlab) {
  nyx::NyxConfig config;
  config.field.n = 16;  // slab = 16*16*8 = 2 KiB of a ~35 KiB file
  config.timesteps = 2;
  nyx::NyxApp app(config);
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  core::RunContext ctx{.fs = backing, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  // Stage 1 via the plain run of a single-dump twin, then count only the
  // in-place update traffic of stage 2.
  nyx::NyxConfig first = config;
  first.timesteps = 1;
  nyx::NyxApp{first}.run(ctx);
  core::RunContext update_ctx{.fs = counting, .app_seed = 1, .instrumented_stage = -1,
                              .instrument = nullptr};
  app.run_from(update_ctx, 2);
  const std::uint64_t slab_bytes = 16ull * 16ull * sizeof(double);
  EXPECT_EQ(counting.bytes_written(), slab_bytes);
  EXPECT_EQ(counting.count(vfs::Primitive::Truncate), 0u);  // strictly in place
}

TEST(NyxApp, ClassifyPaperRule) {
  nyx::NyxApp app;
  core::AnalysisResult golden, faulty;
  golden.metrics["halo_count"] = 12;
  golden.metrics["mean_density"] = 1.0;
  faulty.metrics["halo_count"] = 0;
  faulty.metrics["mean_density"] = 1.0;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);  // no halos
  faulty.metrics["halo_count"] = 11;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);  // halos but different
}

TEST(NyxApp, AverageValueDetectorFlagsMeanShift) {
  nyx::NyxConfig config;
  config.use_average_value_detector = true;
  nyx::NyxApp app(config);
  core::AnalysisResult golden, faulty;
  golden.metrics["halo_count"] = 12;
  faulty.metrics["halo_count"] = 11;
  faulty.metrics["mean_density"] = 0.9983;  // the paper's DW signature
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
  faulty.metrics["mean_density"] = 1.0000001;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);
}

// --- write-sequence pins -------------------------------------------------------------
// Pinned against the per-element codec: however the raw data is encoded or
// handed to pwrite, stage 1 and the slab updates must lay down the identical
// pwrite stream (offsets, slicing and bytes), so instance selection and every
// FsStats counter stay the same.

using test_support::RecordingFs;
using test_support::WriteRecord;

nyx::NyxConfig pinned_config(std::size_t chunk_bytes) {
  nyx::NyxConfig config;
  config.field.n = 16;  // 32 KiB of raw data, 2 KiB per slab
  config.timesteps = 3;
  config.h5_options.data_chunk_bytes = chunk_bytes;
  return config;
}

core::RunContext plain_context(vfs::FileSystem& fs) {
  return core::RunContext{.fs = fs, .app_seed = 7, .instrumented_stage = -1,
                          .instrument = nullptr};
}

TEST(NyxWriteSequence, Stage1PlotfileWritesArePinned) {
  const nyx::NyxApp app(pinned_config(8192));
  vfs::MemFs backing;
  RecordingFs recording(backing);
  app.run_prefix(plain_context(recording), 2);  // stage 1 only
  // Four 8 KiB raw-data slices, then the metadata block and the EOF update.
  const std::vector<WriteRecord> expected = {
      {2424, 8192, 0x4d9ed51bd5317d36ULL}, {10616, 8192, 0x3f1ffc080918ce4fULL},
      {18808, 8192, 0xbd25977b25b98031ULL}, {27000, 8192, 0x5633731c02444daULL},
      {0, 2424, 0x2c59fff0050174deULL},     {40, 8, 0x7e22a81db326a27aULL},
  };
  EXPECT_EQ(recording.writes(), expected);
}

TEST(NyxWriteSequence, SlabUpdateWritesArePinned) {
  // 1536-byte slices split each 2 KiB slab unevenly (1536 + 512).
  const nyx::NyxApp app(pinned_config(1536));
  vfs::MemFs backing;
  app.run_prefix(plain_context(backing), 2);
  RecordingFs recording(backing);
  app.run_from(plain_context(recording), 2);  // stages 2 and 3
  const std::vector<WriteRecord> expected = {
      {2424, 1536, 0xe2c0cc5670b23dcbULL}, {3960, 512, 0xef12ef316cadf192ULL},
      {4472, 1536, 0x8a5b124e0c99b399ULL}, {6008, 512, 0x4971378413f081ddULL},
  };
  EXPECT_EQ(recording.writes(), expected);
}

TEST(NyxWriteSequence, ProfiledPrimitiveCountsArePinned) {
  const nyx::NyxApp app(pinned_config(4096));
  const auto bf = faults::parse_fault_signature("BF");
  std::vector<std::uint64_t> counts, bytes;
  for (const int stage : {-1, 1, 2, 3}) {
    const auto profile = core::IoProfiler::profile(app, bf, 7, stage);
    counts.push_back(profile.primitive_count);
    bytes.push_back(profile.bytes_written);
  }
  // Whole run, then stages 1-3: 8 data slices + metadata + EOF, one slab each.
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{12, 10, 1, 1}));
  // bytes_written counts the whole run whichever stage is instrumented.
  EXPECT_EQ(bytes, (std::vector<std::uint64_t>{39296, 39296, 39296, 39296}));
}

}  // namespace
