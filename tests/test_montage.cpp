// Unit tests for the mini-Montage application: FITS format, image ops,
// scene, plane fitting, pipeline stages and classification.

#include <gtest/gtest.h>

#include <cmath>

#include "ffis/apps/montage/fits.hpp"
#include "ffis/apps/montage/image.hpp"
#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/montage/scene.hpp"
#include "ffis/apps/montage/stages.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "write_recording.hpp"

namespace {

using namespace ffis;
using montage::Image;

// --- Image ------------------------------------------------------------------------

TEST(Image, FiniteStatsSkipBlanks) {
  Image img(4, 4, 0, 0, 5.0);
  img.at(1, 1) = montage::kBlank;
  img.at(2, 2) = 1.5;
  img.at(3, 3) = 9.0;
  EXPECT_DOUBLE_EQ(img.finite_min(), 1.5);
  EXPECT_DOUBLE_EQ(img.finite_max(), 9.0);
  EXPECT_EQ(img.finite_count(), 15u);
}

TEST(Image, AllBlankStatsAreNan) {
  Image img(2, 2, 0, 0, montage::kBlank);
  EXPECT_TRUE(std::isnan(img.finite_min()));
  EXPECT_EQ(img.finite_count(), 0u);
}

TEST(Image, ContainsChecksFootprint) {
  Image img(4, 4, 10.0, 20.0);
  EXPECT_TRUE(img.contains(10.0, 20.0));
  EXPECT_TRUE(img.contains(13.9, 23.9));
  EXPECT_FALSE(img.contains(14.0, 22.0));
  EXPECT_FALSE(img.contains(9.9, 22.0));
}

TEST(Image, PgmRenderingQuantizesAndMarksBlanks) {
  Image img(2, 1, 0, 0);
  img.at(0, 0) = 0.0;
  img.at(1, 0) = montage::kBlank;
  const std::string pgm = montage::render_pgm(img, 0.0, 1.0);
  EXPECT_EQ(pgm.substr(0, 3), "P5\n");
  EXPECT_EQ(static_cast<unsigned char>(pgm[pgm.size() - 2]), 0u);  // value 0.0
  EXPECT_EQ(static_cast<unsigned char>(pgm.back()), 0u);           // blank -> 0
}

TEST(Image, PgmMasksSubQuantumChanges) {
  // The 8-bit preview hides pixel changes below one grey level — the reason
  // some Montage faults are benign even though mosaic.fits differs.
  Image a(4, 4, 0, 0, 50.0);
  Image b = a;
  b.at(0, 0) += 1e-6;
  EXPECT_EQ(montage::render_pgm(a, 0.0, 100.0), montage::render_pgm(b, 0.0, 100.0));
}

// --- FITS --------------------------------------------------------------------------

TEST(Fits, RoundtripWithBlanksAndOrigin) {
  Image img(12, 7, 37.0, 41.5);
  util::Rng rng(5);
  for (auto& p : img.pixels) p = rng.gaussian(80.0, 3.0);
  img.at(3, 2) = montage::kBlank;

  vfs::MemFs fs;
  montage::write_fits(fs, "/img.fits", img);
  const Image back = montage::read_fits(fs, "/img.fits");
  EXPECT_EQ(back.width, img.width);
  EXPECT_EQ(back.height, img.height);
  EXPECT_DOUBLE_EQ(back.x0, img.x0);
  EXPECT_DOUBLE_EQ(back.y0, img.y0);
  for (std::size_t i = 0; i < img.pixels.size(); ++i) {
    if (std::isnan(img.pixels[i])) {
      EXPECT_TRUE(std::isnan(back.pixels[i]));
    } else {
      EXPECT_EQ(back.pixels[i], img.pixels[i]);
    }
  }
}

TEST(Fits, FileIsBlockAlignedAndBigEndian) {
  Image img(4, 4, 0, 0, 1.0);
  vfs::MemFs fs;
  montage::write_fits(fs, "/img.fits", img);
  const auto size = fs.stat("/img.fits").size;
  EXPECT_EQ(size % 2880, 0u);
  // 1.0 as big-endian binary64 starts 0x3F F0.
  const auto raw = vfs::read_file(fs, "/img.fits");
  EXPECT_EQ(std::to_integer<int>(raw[2880]), 0x3f);
  EXPECT_EQ(std::to_integer<int>(raw[2881]), 0xf0);
}

TEST(Fits, CorruptedHeaderCrashes) {
  Image img(4, 4, 0, 0, 1.0);
  vfs::MemFs fs;
  montage::write_fits(fs, "/img.fits", img);
  auto raw = vfs::read_file(fs, "/img.fits");

  auto corrupt_and_expect_throw = [&](std::size_t offset, std::byte value) {
    auto copy = raw;
    copy[offset] = value;
    vfs::write_file(fs, "/bad.fits", copy);
    EXPECT_THROW((void)montage::read_fits(fs, "/bad.fits"), montage::FitsError);
  };
  corrupt_and_expect_throw(0, std::byte{'X'});    // SIMPLE keyword
  corrupt_and_expect_throw(90, std::byte{'x'});   // BITPIX value area
}

TEST(Fits, TruncatedDataCrashes) {
  Image img(8, 8, 0, 0, 1.0);
  vfs::MemFs fs;
  montage::write_fits(fs, "/img.fits", img);
  auto raw = vfs::read_file(fs, "/img.fits");
  raw.resize(2880 + 100);
  vfs::write_file(fs, "/short.fits", raw);
  EXPECT_THROW((void)montage::read_fits(fs, "/short.fits"), montage::FitsError);
}

TEST(Fits, ImplausibleDimensionsRejected) {
  Image img(4, 4, 0, 0, 1.0);
  vfs::MemFs fs;
  montage::write_fits(fs, "/img.fits", img);
  auto raw = vfs::read_file(fs, "/img.fits");
  // NAXIS1 card value field: make it a negative number.
  const std::string header(reinterpret_cast<const char*>(raw.data()), 2880);
  const auto pos = header.find("NAXIS1");
  ASSERT_NE(pos, std::string::npos);
  auto negative = raw;
  negative[pos + 10 + 19] = std::byte{'9'};
  negative[pos + 10] = std::byte{'-'};
  vfs::write_file(fs, "/bad.fits", negative);
  EXPECT_THROW((void)montage::read_fits(fs, "/bad.fits"), montage::FitsError);

  // Values no integer holds are rejected by name before any cast.
  for (const std::string value : {"1e300", "-1e300", "inf", "nan"}) {
    SCOPED_TRACE(value);
    auto patched = raw;
    const std::string field = std::string(20 - value.size(), ' ') + value;
    for (std::size_t i = 0; i < field.size(); ++i) {
      patched[pos + 10 + i] = static_cast<std::byte>(field[i]);
    }
    vfs::write_file(fs, "/bad.fits", patched);
    try {
      (void)montage::read_fits(fs, "/bad.fits");
      ADD_FAILURE() << "accepted NAXIS1 = " << value;
    } catch (const montage::FitsError& e) {
      EXPECT_NE(std::string(e.what()).find("NAXIS1"), std::string::npos) << e.what();
    }
  }
}

// --- Scene ------------------------------------------------------------------------

TEST(Scene, DeterministicForSeed) {
  montage::SceneConfig config;
  const montage::Scene a(config), b(config);
  EXPECT_EQ(a.make_raw_tile(3).pixels, b.make_raw_tile(3).pixels);
}

TEST(Scene, TruthIsSkyPlusNonNegativeSources) {
  montage::SceneConfig config;
  config.star_count = 0;  // keep the corner probe free of random stars
  const montage::Scene scene(config);
  // Far corner: essentially pure sky (dark spot and galaxy are distant).
  EXPECT_NEAR(scene.truth_at(config.mosaic_width() - 2, config.mosaic_height() - 2),
              config.sky, 0.2);
  // Galaxy centre is bright.
  EXPECT_GT(scene.truth_at(config.galaxy_cx, config.galaxy_cy), config.sky + 10.0);
  // Dark spot is the global minimum region.
  // (small tolerance: the galaxy's exponential tail reaches everywhere)
  EXPECT_NEAR(scene.truth_at(config.dark_spot_x, config.dark_spot_y),
              config.sky - config.dark_spot_depth, 1e-3);
}

TEST(Scene, TileZeroHasNoBackgroundPlane) {
  montage::SceneConfig config;
  const montage::Scene scene(config);
  EXPECT_DOUBLE_EQ(scene.background_at(0, 50.0, 50.0), 0.0);
  // Other tiles generally have non-zero planes.
  bool any_nonzero = false;
  for (std::size_t k = 1; k < config.tile_count(); ++k) {
    if (scene.background_at(k, 50.0, 50.0) != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Scene, RawTilesHaveFractionalPointing) {
  montage::SceneConfig config;
  const montage::Scene scene(config);
  for (std::size_t k = 0; k < config.tile_count(); ++k) {
    const Image tile = scene.make_raw_tile(k);
    EXPECT_NE(tile.x0, std::floor(tile.x0));  // dx in [0.1, 0.9)
    EXPECT_EQ(tile.width, config.tile_size);
  }
  EXPECT_THROW((void)scene.make_raw_tile(config.tile_count()), std::out_of_range);
}

// --- plane fit ---------------------------------------------------------------------

TEST(FitPlane, ExactOnCleanPlane) {
  std::vector<double> xs, ys, vs;
  for (int x = 0; x < 20; ++x) {
    for (int y = 0; y < 10; ++y) {
      xs.push_back(x);
      ys.push_back(y);
      vs.push_back(2.5 - 0.03 * x + 0.07 * y);
    }
  }
  const auto p = montage::fit_plane(xs, ys, vs);
  EXPECT_NEAR(p.a, 2.5, 1e-9);
  EXPECT_NEAR(p.b, -0.03, 1e-9);
  EXPECT_NEAR(p.c, 0.07, 1e-9);
}

TEST(FitPlane, RobustToOutliersAndNans) {
  std::vector<double> xs, ys, vs;
  util::Rng rng(9);
  for (int x = 0; x < 30; ++x) {
    for (int y = 0; y < 15; ++y) {
      xs.push_back(x);
      ys.push_back(y);
      double v = 1.0 + 0.01 * x - 0.02 * y;
      const auto i = xs.size() - 1;
      if (i % 7 == 0) v += rng.uniform(-3.0, 3.0);          // ~14% outliers
      if (i % 97 == 0) v = std::nan("");                     // some blanks
      vs.push_back(v);
    }
  }
  const auto p = montage::fit_plane(xs, ys, vs);
  EXPECT_NEAR(p.a, 1.0, 0.05);
  EXPECT_NEAR(p.b, 0.01, 0.005);
  EXPECT_NEAR(p.c, -0.02, 0.005);
}

TEST(FitPlane, RejectsDegenerateInput) {
  EXPECT_THROW((void)montage::fit_plane({1.0}, {1.0}, {1.0}), montage::FitsError);
  // All samples NaN.
  const std::vector<double> xs = {0, 1, 2, 3}, ys = {0, 1, 2, 3};
  const std::vector<double> vs(4, std::nan(""));
  EXPECT_THROW((void)montage::fit_plane(xs, ys, vs), montage::FitsError);
}

// --- pipeline ------------------------------------------------------------------------

class Pipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    app_ = std::make_unique<montage::MontageApp>();
    core::RunContext ctx{.fs = fs_, .app_seed = 1, .instrumented_stage = -1,
                         .instrument = nullptr};
    app_->run(ctx);
  }
  vfs::MemFs fs_;
  std::unique_ptr<montage::MontageApp> app_;
};

TEST_F(Pipeline, GoldenMinInsidePaperWindow) {
  const auto analysis = app_->analyze(fs_);
  EXPECT_GE(analysis.metric("min"), 82.82);
  EXPECT_LE(analysis.metric("min"), 82.83);
  EXPECT_GT(analysis.metric("max"), 90.0);
  EXPECT_GT(analysis.metric("finite_pixels"), 10000.0);
}

TEST_F(Pipeline, BackgroundMatchingRemovesTilePlanes) {
  // The uncorrected mosaic still carries per-tile background planes; the
  // corrected one has them removed, so the two differ substantially away
  // from the anchor tile while agreeing on it.
  const Image corrected = montage::read_fits(fs_, app_->config().paths.mosaic_image());
  const Image uncorrected =
      montage::read_fits(fs_, app_->config().paths.uncorrected_mosaic());
  ASSERT_EQ(corrected.pixels.size(), uncorrected.pixels.size());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < corrected.pixels.size(); ++i) {
    const double c = corrected.pixels[i];
    const double u = uncorrected.pixels[i];
    if (std::isfinite(c) && std::isfinite(u)) {
      max_diff = std::max(max_diff, std::fabs(c - u));
    }
  }
  EXPECT_GT(max_diff, 0.05);  // background planes really were removed
}

TEST_F(Pipeline, AllStagesProduceTheirFiles) {
  const auto& paths = app_->config().paths;
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_TRUE(fs_.exists(paths.proj_image(k))) << k;
    EXPECT_TRUE(fs_.exists(paths.proj_area(k))) << k;
    EXPECT_TRUE(fs_.exists(paths.corr_image(k))) << k;
    EXPECT_TRUE(fs_.exists(paths.corr_area(k))) << k;
  }
  EXPECT_TRUE(fs_.exists(paths.fits_table()));
  EXPECT_TRUE(fs_.exists(paths.mosaic_image()));
  EXPECT_TRUE(fs_.exists(paths.preview()));
  EXPECT_TRUE(fs_.exists(paths.statistics()));
}

TEST_F(Pipeline, MosaicFullyCoversItsInterior) {
  const Image mosaic = montage::read_fits(fs_, app_->config().paths.mosaic_image());
  const double covered = static_cast<double>(mosaic.finite_count()) /
                         static_cast<double>(mosaic.pixels.size());
  EXPECT_GT(covered, 0.98);
}

TEST_F(Pipeline, UnreadableCorrImageIsSkippedByCoadd) {
  // Corrupt one corrected image's header: mAdd must skip it, not crash, and
  // the mosaic min stays in the window (the dark spot lives on tile 0).
  const auto& paths = app_->config().paths;
  auto raw = vfs::read_file(fs_, paths.corr_image(5));
  raw[0] = std::byte{'X'};
  vfs::write_file(fs_, paths.corr_image(5), raw);
  montage::stage4_coadd(fs_, montage::Scene(app_->config().scene), paths,
                        app_->config().stages);
  const auto analysis = app_->analyze(fs_);
  EXPECT_GE(analysis.metric("min"), 82.82);
  EXPECT_LE(analysis.metric("min"), 82.83);
}

TEST(MontageApp, StageGatingScopesWrites) {
  montage::MontageApp app;
  for (int stage = 1; stage <= 4; ++stage) {
    const auto profile =
        core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1, stage);
    EXPECT_GT(profile.primitive_count, 0u) << "stage " << stage;
  }
  const auto all = core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1);
  std::uint64_t sum = 0;
  for (int stage = 1; stage <= 4; ++stage) {
    sum += core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1, stage)
               .primitive_count;
  }
  // Stages 1-4 exclude only the raw-tile ingest writes.
  EXPECT_LT(sum, all.primitive_count);
}

TEST(MontageApp, GoldenMinStableAcrossSeeds) {
  montage::MontageApp app;
  for (const std::uint64_t seed : {2ULL, 5ULL, 9ULL}) {
    vfs::MemFs fs;
    core::RunContext ctx{.fs = fs, .app_seed = seed, .instrumented_stage = -1,
                         .instrument = nullptr};
    app.run(ctx);
    const auto analysis = app.analyze(fs);
    EXPECT_GE(analysis.metric("min"), 82.82) << "seed " << seed;
    EXPECT_LE(analysis.metric("min"), 82.83) << "seed " << seed;
  }
}

TEST(MontageApp, ClassifyRules) {
  montage::MontageApp app;
  core::AnalysisResult golden, faulty;
  faulty.metrics["min"] = 82.825;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);
  faulty.metrics["min"] = 82.5;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
  faulty.metrics["min"] = std::nan("");
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
}

// --- write-sequence pins -------------------------------------------------------------
// Pinned against the per-byte FITS loops: the bulk byte-swapping kernel must
// lay down the identical pwrite stream and the stages' profiled primitive
// counts must not move.

TEST(MontageWriteSequence, FitsWritesArePinned) {
  Image img(12, 7, 37.0, 41.5);
  util::Rng rng(5);
  for (auto& p : img.pixels) p = rng.gaussian(80.0, 3.0);
  img.at(3, 2) = montage::kBlank;
  img.at(4, 2) = -0.0;

  vfs::MemFs backing;
  test_support::RecordingFs recording(backing);
  montage::write_fits(recording, "/img.fits", img,
                      montage::FitsIoOptions{.data_chunk_bytes = 1000});
  // The header block, then one zero-padded data block in 1000-byte slices.
  const std::vector<test_support::WriteRecord> expected = {
      {0, 2880, 0x240df37944d9c5fbULL},
      {2880, 1000, 0x75ad92a4b49084afULL},
      {3880, 1000, 0x12633b178b17a745ULL},
      {4880, 880, 0x64bd2022b6d37e5ULL},
  };
  EXPECT_EQ(recording.writes(), expected);
}

TEST(MontageWriteSequence, RunWriteStreamIsPinned) {
  // Every pwrite of a full golden run, folded into one digest.
  const montage::MontageApp app;
  vfs::MemFs backing;
  test_support::RecordingFs recording(backing);
  app.run(core::RunContext{.fs = recording, .app_seed = 1, .instrumented_stage = -1,
                           .instrument = nullptr});
  std::uint64_t digest = util::fnv1a64({});
  for (const auto& w : recording.writes()) {
    for (const std::uint64_t v : {w.offset, w.length, w.fnv}) {
      digest = util::fnv1a64(std::as_bytes(std::span(&v, 1)), digest);
    }
  }
  EXPECT_EQ(recording.writes().size(), 280u);
  EXPECT_EQ(digest, 0x86985ac382dc1f95ULL);
}

TEST(MontageWriteSequence, ProfiledPrimitiveCountsArePinned) {
  montage::MontageApp app;
  std::vector<std::uint64_t> writes, bytes, reads;
  for (const int stage : {-1, 1, 2, 3, 4}) {
    const auto w = core::IoProfiler::profile(app, faults::parse_fault_signature("BF"), 1, stage);
    writes.push_back(w.primitive_count);
    bytes.push_back(w.bytes_written);
    reads.push_back(
        core::IoProfiler::profile(app, faults::parse_fault_signature("BF@pread"), 1, stage)
            .primitive_count);
  }
  // Whole run, then stages 1-4; bytes_written always counts the whole run.
  EXPECT_EQ(writes, (std::vector<std::uint64_t>{280, 80, 27, 80, 53}));
  EXPECT_EQ(bytes, (std::vector<std::uint64_t>{1678803, 1678803, 1678803, 1678803, 1678803}));
  EXPECT_EQ(reads, (std::vector<std::uint64_t>{95, 10, 23, 21, 41}));
}

}  // namespace
