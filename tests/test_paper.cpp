// Paper artifacts (ffis::paper): exact pins for every table, figure and
// ablation that tests/test_integration.cpp does not already pin (it holds
// Fig. 7 and Table III), plus an end-to-end pass over the registry that
// `ffis paper <artifact>` dispatches on.
//
// Every pin is taken at kPinned (8 runs per campaign cell, seed 42, a 32^3
// Nyx grid).  Counts are exact; doubles are compared bitwise (hex-float
// literals) wherever the computing path is deterministic, so a refactor
// cannot drift a paper-level result silently.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ffis/paper/paper.hpp"

namespace {

using namespace ffis;
using core::Outcome;

constexpr paper::Options kPinned{.runs = 8, .seed = 42, .grid = 32};

std::uint64_t fnv1a(const void* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  return hash;
}

// {benign, detected, sdc, crash}
using Counts = std::array<std::uint64_t, core::kOutcomeCount>;

struct CellPin {
  const char* label;
  Counts counts;
  std::uint64_t primitive_count;
};

void expect_cells(const exp::ExperimentReport& report, const std::vector<CellPin>& pins) {
  ASSERT_EQ(report.cells.size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto& cell = report.cells[i];
    SCOPED_TRACE(pins[i].label);
    EXPECT_EQ(cell.cell.label, pins[i].label);
    EXPECT_EQ(cell.error, "");
    EXPECT_EQ(cell.faults_not_fired, 0u);
    EXPECT_EQ(cell.primitive_count, pins[i].primitive_count);
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      EXPECT_EQ(cell.tally.count(static_cast<Outcome>(o)), pins[i].counts[o])
          << core::outcome_name(static_cast<Outcome>(o));
    }
  }
}

void expect_traffic(const paper::IoTraffic& t, const std::array<std::uint64_t, 6>& pin) {
  EXPECT_EQ(t.dataset_bytes, pin[0]);
  EXPECT_EQ(t.files, pin[1]);
  EXPECT_EQ(t.preads, pin[2]);
  EXPECT_EQ(t.pwrites, pin[3]);
  EXPECT_EQ(t.bytes_read, pin[4]);
  EXPECT_EQ(t.bytes_written, pin[5]);
}

/// Runs the test body from a fresh temporary directory (Fig. 9 writes its
/// images to the working directory).
class ScopedWorkingDirectory {
 public:
  ScopedWorkingDirectory()
      : previous_(std::filesystem::current_path()),
        dir_(std::filesystem::temp_directory_path() /
             ("ffis_test_paper_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(dir_);
    std::filesystem::current_path(dir_);
  }
  ~ScopedWorkingDirectory() {
    std::filesystem::current_path(previous_);
    std::filesystem::remove_all(dir_);
  }

 private:
  std::filesystem::path previous_;
  std::filesystem::path dir_;
};

// --- Tables -------------------------------------------------------------------------

TEST(PaperTable1, FaultModelDemonstrations) {
  const auto result = paper::table1_fault_models(kPinned);
  ASSERT_EQ(result.writes.size(), 4u);
  const auto& flip = result.writes[0];
  EXPECT_EQ(flip.signature, "BIT_FLIP@pwrite{width=2}");
  EXPECT_EQ(flip.record.corrupted_bytes, 1u);
  EXPECT_EQ(flip.record.flipped_bit, std::optional<std::size_t>(22956));
  EXPECT_EQ(flip.on_device, 4096u);

  const auto& shorn7 = result.writes[1];
  EXPECT_EQ(shorn7.signature,
            "SHORN_WRITE@pwrite{completed=7/8,tail=adjacent-data,sector=512,block=4096}");
  EXPECT_EQ(shorn7.record.corrupted_bytes, 0u);
  EXPECT_EQ(shorn7.record.shorn_from, std::optional<std::size_t>(3584));
  const auto& shorn3 = result.writes[2];
  EXPECT_EQ(shorn3.record.corrupted_bytes, 0u);
  EXPECT_EQ(shorn3.record.shorn_from, std::optional<std::size_t>(1536));

  const auto& dropped = result.writes[3];
  EXPECT_EQ(dropped.signature, "DROPPED_WRITE@pwrite");
  EXPECT_TRUE(dropped.record.dropped);
  EXPECT_EQ(dropped.record.corrupted_bytes, 4096u);
  EXPECT_EQ(dropped.on_device, 0u);
  for (const auto& demo : result.writes) EXPECT_EQ(demo.written, 4096u);

  ASSERT_EQ(result.modes.size(), 3u);
  EXPECT_EQ(result.modes[0].primitive, vfs::Primitive::Mknod);
  EXPECT_EQ(result.modes[0].mode, std::optional<std::uint32_t>(356));
  EXPECT_EQ(result.modes[1].primitive, vfs::Primitive::Chmod);
  EXPECT_EQ(result.modes[1].mode, std::optional<std::uint32_t>(237));
  EXPECT_EQ(result.modes[2].signature, "DROPPED_WRITE@mknod");
  EXPECT_FALSE(result.modes[2].mode.has_value());
}

TEST(PaperTable2, ApplicationIoProfiles) {
  const auto rows = paper::table2_applications(kPinned);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "nyx");
  expect_traffic(rows[0].traffic, {2099576, 1, 0, 130, 0, 2099584});
  EXPECT_EQ(rows[1].name, "qmcpack");
  expect_traffic(rows[1].traffic, {149826, 3, 0, 40, 0, 149826});
  EXPECT_EQ(rows[2].name, "montage");
  expect_traffic(rows[2].traffic, {1678803, 69, 95, 280, 2088802, 1678803});
}

TEST(PaperTable4, SdcFieldPostAnalysis) {
  const auto result = paper::table4_sdc_fields(kPinned);
  EXPECT_EQ(result.golden_halos, 2u);
  EXPECT_EQ(result.golden_mean, 0x1p+0);

  struct RowPin {
    const char* label;
    const char* mass;
    const char* locations;
    std::size_t halos_faulty;
    double mean;
  };
  const RowPin pins[] = {
      {"Mantissa Normalization (bit 5)", "changed", "changed", 2, 0x1.1ebc8p-1},
      {"Exponent Location", "changed", "changed", 0, 0x1.122283b71cf36p-512},
      {"Mantissa Location", "changed", "unchanged", 2, 0x1.08e0ep+0},
      {"Mantissa Size", "changed", "changed", 1, 0x1.14208p+0},
      {"Exponent Bias", "scaled x4096", "unchanged", 2, 0x1p+12},
      {"Address of Raw Data (ARD)", "unchanged", "shifted (0.00,1.00,0.00)", 2,
       0x1.ffc907ea19dfbp-1},
  };
  ASSERT_EQ(result.rows.size(), std::size(pins));
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const auto& row = result.rows[i];
    SCOPED_TRACE(pins[i].label);
    EXPECT_EQ(row.label, pins[i].label);
    EXPECT_FALSE(row.crashed);
    EXPECT_EQ(row.mass, pins[i].mass);
    EXPECT_EQ(row.locations, pins[i].locations);
    EXPECT_EQ(row.halos_golden, 2u);
    EXPECT_EQ(row.halos_faulty, pins[i].halos_faulty);
    EXPECT_EQ(row.mean, pins[i].mean);
  }
}

// --- Figures ------------------------------------------------------------------------

TEST(PaperFig5, BiasScalesAndArdShifts) {
  const auto result = paper::fig5_visualization(kPinned);
  EXPECT_EQ(result.scale_factor, 0x1p+12);
  EXPECT_EQ(result.shift_cells, 32);
  EXPECT_EQ(result.shifted_matching, 32736u);
  EXPECT_EQ(result.shifted_total, 32736u);
  EXPECT_EQ(result.ard_mean, 0x1.ffc907ea19dfbp-1);
  EXPECT_EQ(result.slice_z, 16u);

  ASSERT_EQ(result.slices.size(), 3u);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& slice : result.slices) {
    ASSERT_EQ(slice.rows.size(), 8u);
    for (const auto& row : slice.rows) {
      ASSERT_EQ(row.size(), 8u);
      for (const double v : row) hash = (hash ^ fnv1a(&v, sizeof v)) * 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(result.slices[0].rows[0][0], 0x1.87f08d0c509c9p-2);
  EXPECT_EQ(result.slices[1].rows[0][0], 0x1.87f08d0c509c9p-2 * 4096);
  EXPECT_EQ(hash, 0x3aa2d4166ae343f0ULL);
}

TEST(PaperFig6, MantissaSizeThinsHaloCandidates) {
  const auto result = paper::fig6_halo_cells(kPinned);
  EXPECT_EQ(result.golden_halos, 2u);
  EXPECT_EQ(result.golden_threshold, 0x1.46a3d70a3d70ap+6);
  EXPECT_EQ(result.golden_candidates, 25u);
  EXPECT_EQ(result.faulty_halos, 1u);
  EXPECT_EQ(result.faulty_threshold, 0x1.60521ba3d70a4p+6);
  EXPECT_EQ(result.faulty_candidates, 29u);
  EXPECT_EQ(result.cx, 13u);
  EXPECT_EQ(result.cy, 5u);
  EXPECT_EQ(result.cz, 28u);

  ASSERT_EQ(result.maps.size(), 2u);
  const std::string blank = ".............";
  const std::vector<std::string> original = {
      blank, blank, blank, blank, ".....##......", ".....###.....", ".....##......",
      blank, blank, blank, blank, blank};
  const std::vector<std::string> faulty = {
      blank, blank, blank, blank, "......#......", "....##.#.....", blank,
      blank, blank, blank, blank, blank};
  EXPECT_EQ(result.maps[0].rows, original);
  EXPECT_EQ(result.maps[0].candidates, 7u);
  EXPECT_EQ(result.maps[1].rows, faulty);
  EXPECT_EQ(result.maps[1].candidates, 4u);
}

TEST(PaperFig6, SmallGridHasNoHalo) {
  paper::Options options = kPinned;
  options.grid = 24;
  try {
    (void)paper::fig6_halo_cells(options);
    FAIL() << "expected no halos at grid 24";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "no halos in the golden run; increase the grid");
  }
}

TEST(PaperFig8, DroppedWriteMassDistribution) {
  const auto result = paper::fig8_mass_distribution(kPinned);
  EXPECT_EQ(result.golden_halos, 12u);
  EXPECT_EQ(result.faulty_halos, 105u);
  EXPECT_EQ(result.sdc_runs, 8u);
  const std::vector<double> edges = {
      0x0p+0,
      0x1.88e05bc01a36ep+8,
      0x1.88e05bc01a36ep+9,
      0x1.26a844d013a93p+10,
      0x1.88e05bc01a36ep+10,
      0x1.eb1872b020c4ap+10,
      0x1.26a844d013a93p+11,
      0x1.57c4504816f01p+11,
      0x1.88e05bc01a36ep+11,
      0x1.b9fc67381d7ddp+11,
      0x1.eb1872b020c4ap+11,
  };
  EXPECT_EQ(result.edges, edges);
  EXPECT_EQ(result.golden_bins, (std::vector<std::uint64_t>{0, 1, 3, 3, 2, 0, 0, 1, 1, 1}));
  EXPECT_EQ(result.faulty_bins,
            (std::vector<std::uint64_t>{0, 16, 25, 16, 24, 0, 0, 8, 8, 8}));
}

TEST(PaperFig9, DroppedMosaicChunkIsDetected) {
  const auto result = paper::fig9_faulty_image(kPinned);
  EXPECT_EQ(result.instance, 5u);
  EXPECT_EQ(result.golden_report, "min=82.825155\nmax=122.609418\nfinite=16185\n");
  EXPECT_EQ(result.faulty_report, "min=0.000000\nmax=122.609418\nfinite=16185\n");
  ASSERT_EQ(result.golden_image.size(), 16199u);
  EXPECT_EQ(fnv1a(result.golden_image.data(), result.golden_image.size()),
            0x5b5f778abad133dbULL);
  ASSERT_EQ(result.faulty_image.size(), 16199u);
  EXPECT_EQ(fnv1a(result.faulty_image.data(), result.faulty_image.size()),
            0x0e2289a285e07142ULL);
}

// --- Ablations ----------------------------------------------------------------------

TEST(PaperAblation, BitFlipWidth) {
  expect_cells(paper::ablation_bitflip_width(kPinned), {
                                                           {"BF-w1", {8, 0, 0, 0}, 130},
                                                           {"BF-w2", {7, 1, 0, 0}, 130},
                                                           {"BF-w4", {7, 0, 1, 0}, 130},
                                                           {"BF-w8", {7, 0, 1, 0}, 130},
                                                       });
}

TEST(PaperAblation, ShornFraction) {
  expect_cells(paper::ablation_shorn_fraction(kPinned),
               {
                   {"NYX-3/8-adj", {4, 0, 4, 0}, 130}, {"QMC-3/8-adj", {3, 0, 4, 1}, 40},
                   {"MT1-3/8-adj", {6, 0, 2, 0}, 80},  {"NYX-3/8-gar", {0, 5, 3, 0}, 130},
                   {"QMC-3/8-gar", {3, 4, 0, 1}, 40},  {"MT1-3/8-gar", {1, 4, 3, 0}, 80},
                   {"NYX-3/8-sta", {0, 0, 8, 0}, 130}, {"QMC-3/8-sta", {3, 4, 0, 1}, 40},
                   {"MT1-3/8-sta", {1, 2, 5, 0}, 80},  {"NYX-7/8-adj", {7, 0, 1, 0}, 130},
                   {"QMC-7/8-adj", {3, 0, 4, 1}, 40},  {"MT1-7/8-adj", {7, 0, 1, 0}, 80},
                   {"NYX-7/8-gar", {0, 2, 6, 0}, 130}, {"QMC-7/8-gar", {3, 4, 0, 1}, 40},
                   {"MT1-7/8-gar", {3, 1, 4, 0}, 80},  {"NYX-7/8-sta", {0, 0, 8, 0}, 130},
                   {"QMC-7/8-sta", {3, 4, 0, 1}, 40},  {"MT1-7/8-sta", {3, 2, 3, 0}, 80},
               });
}

TEST(PaperAblation, ReadFaults) {
  const auto result = paper::ablation_read_faults(kPinned);
  expect_cells(result.report, {
                                  {"BI-write", {7, 1, 0, 0}, 80},
                                  {"BI-read", {6, 0, 2, 0}, 21},
                                  {"SH-write", {7, 0, 1, 0}, 80},
                                  {"SH-read", {8, 0, 0, 0}, 21},
                                  {"DR-write", {0, 2, 6, 0}, 80},
                                  {"DR-read", {0, 1, 7, 0}, 21},
                              });
  expect_traffic(result.traffic, {1678803, 69, 95, 280, 2088802, 1678803});
}

TEST(PaperAblation, DoctorRestoresEveryField) {
  const auto rows = paper::ablation_doctor(kPinned);
  const std::pair<const char*, const char*> pins[] = {
      {"Exponent Bias (-12)", "sdc"},
      {"Exponent Bias (+7)", "sdc"},
      {"Exponent Location (bit flip)", "detected"},
      {"Mantissa Location (=2)", "sdc"},
      {"Mantissa Size (bit flip)", "sdc"},
      {"Exponent Size (bit flip)", "detected"},
      {"Mantissa Normalization (bit 5)", "sdc"},
      // The address wraps below zero: a bounds error, not a read before the file.
      {"Address of Raw Data (-4096)", "crash"},
  };
  ASSERT_EQ(rows.size(), std::size(pins));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(pins[i].first);
    EXPECT_EQ(rows[i].label, pins[i].first);
    EXPECT_EQ(rows[i].without_doctor, pins[i].second);
    EXPECT_EQ(rows[i].diagnosis, analysis::FaultyField::None);
    EXPECT_EQ(rows[i].with_doctor, "restored (bit-exact)");
  }
}

TEST(PaperAblation, PostAnalysisMasking) {
  const auto result = paper::ablation_post_analysis(kPinned);
  EXPECT_EQ(result.golden_halos, 2u);
  EXPECT_EQ(result.shells, 16u);
  struct RowPin {
    const char* label;
    std::size_t halos;
    double deviation;
  };
  const RowPin pins[] = {
      {"Exponent Bias (-12)", 2, 0x0p+0},
      {"Mantissa Size (bit flip)", 1, 0x1.cc79ef2b993c8p+4},
      {"Mantissa Normalization (bit 5)", 2, 0x1.a637df2a794d7p+6},
      {"ARD (-1 grid row)", 2, 0x1.54ca33f92b3fdp-7},
  };
  ASSERT_EQ(result.rows.size(), std::size(pins));
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    const auto& row = result.rows[i];
    SCOPED_TRACE(pins[i].label);
    EXPECT_EQ(row.label, pins[i].label);
    EXPECT_FALSE(row.crash.has_value());
    EXPECT_FALSE(row.halos_identical);
    EXPECT_EQ(row.halos, pins[i].halos);
    EXPECT_EQ(row.spectrum_deviation, pins[i].deviation);
  }
}

// --- Registry -----------------------------------------------------------------------

TEST(PaperRegistry, ListsEveryArtifactOnce) {
  std::set<std::string_view> names;
  for (const auto& artifact : paper::artifacts()) {
    EXPECT_TRUE(names.insert(artifact.name).second) << artifact.name;
    EXPECT_EQ(paper::find_artifact(artifact.name), &artifact);
    EXPECT_FALSE(artifact.title.empty());
    EXPECT_FALSE(artifact.reference.empty());
  }
  EXPECT_EQ(names.size(), 14u);
  EXPECT_EQ(paper::find_artifact("fig10"), nullptr);
  EXPECT_EQ(paper::find_artifact("ablation_shorn_fraction")->defaults.runs, 120u);
  EXPECT_EQ(paper::find_artifact("fig7_characterization")->defaults.runs, 200u);
}

TEST(PaperRegistry, OptionsFromEnvironment) {
  for (const char* name : {"FFIS_RUNS", "FFIS_SEED", "FFIS_NYX_GRID"}) ::unsetenv(name);
  const paper::Options defaults{.runs = 120, .seed = 42, .grid = 48};
  auto options = paper::options_from_env(defaults);
  EXPECT_EQ(options.runs, 120u);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.grid, 48u);

  ::setenv("FFIS_RUNS", "20", 1);
  ::setenv("FFIS_NYX_GRID", "32", 1);
  options = paper::options_from_env(defaults);
  EXPECT_EQ(options.runs, 20u);
  EXPECT_EQ(options.seed, 42u);
  EXPECT_EQ(options.grid, 32u);

  ::setenv("FFIS_RUNS", "12x", 1);
  EXPECT_THROW((void)paper::options_from_env(defaults), std::invalid_argument);
  ::unsetenv("FFIS_RUNS");
  ::setenv("FFIS_NYX_GRID", "-1", 1);
  EXPECT_THROW((void)paper::options_from_env(defaults), std::invalid_argument);
  ::unsetenv("FFIS_NYX_GRID");
}

// Every artifact end to end, as `ffis paper` runs it: banner, compute, print.
TEST(PaperRegistry, EveryArtifactReproducesEndToEnd) {
  const ScopedWorkingDirectory cwd;
  for (const auto& artifact : paper::artifacts()) {
    SCOPED_TRACE(std::string(artifact.name));
    std::FILE* out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    EXPECT_NO_THROW(paper::reproduce(artifact, kPinned, out));
    const long size = std::ftell(out);
    std::rewind(out);
    std::string text(static_cast<std::size_t>(std::max(size, 0L)), '\0');
    EXPECT_EQ(std::fread(text.data(), 1, text.size(), out), text.size());
    std::fclose(out);
    EXPECT_EQ(text.rfind("================================================================\n" +
                             std::string(artifact.title) + "\n",
                         0),
              0u);
    EXPECT_GT(text.size(), 400u);
  }
  for (const char* image : {"fig9_original.pgm", "fig9_faulty.pgm"}) {
    EXPECT_EQ(std::filesystem::file_size(image), 16199u) << image;
  }

  paper::Options small = kPinned;
  small.grid = 24;
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  EXPECT_THROW(paper::reproduce(*paper::find_artifact("fig6_halo_cells"), small, out),
               std::runtime_error);
  std::fclose(out);
}

TEST(PaperRegistry, Fig9ImageWriteFailureIsNamed) {
  const ScopedWorkingDirectory cwd;
  // A directory where the image should go makes the write fail.
  std::filesystem::create_directory("fig9_original.pgm");
  const auto result = paper::fig9_faulty_image(kPinned);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  try {
    paper::print_fig9_faulty_image(result, out);
    ADD_FAILURE() << "expected the image write to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fig9_original.pgm"), std::string::npos) << e.what();
  }
  std::fclose(out);
}

}  // namespace
