// Unit tests for the mini-Nyx application: density field, halo finder,
// plotfile I/O and outcome classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/halo_finder.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/core/application.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/util/rng.hpp"
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

// --- halo finder: differential check against the dense reference --------------

/// The dense halo finder the sparse one replaced, kept only as the reference
/// it must match bit for bit: a candidate array and a visited array of one
/// byte per cell, seeds found by rescanning every index, an index stack
/// whose entries are decoded back into coordinates, and each halo's mass
/// summed over its cells sorted by index.
nyx::HaloCatalog dense_find_halos(const DensityField& field,
                                  const HaloFinderConfig& config = {}) {
  const std::size_t n = field.n();
  const std::size_t total = field.size();

  nyx::HaloCatalog catalog;
  catalog.mean_density = field.mean();
  catalog.threshold = config.threshold_factor * catalog.mean_density;
  if (!std::isfinite(catalog.threshold)) return catalog;

  std::vector<std::uint8_t> candidate(total, 0);
  for (std::size_t i = 0; i < total; ++i) {
    const double v = field.data()[i];
    if (std::isfinite(v) && v > catalog.threshold) {
      candidate[i] = 1;
      ++catalog.candidate_cells;
    }
  }

  std::vector<std::uint8_t> visited(total, 0);
  std::vector<std::size_t> stack;
  for (std::size_t start = 0; start < total; ++start) {
    if (!candidate[start] || visited[start]) continue;
    stack.assign(1, start);
    visited[start] = 1;

    double sx = 0.0, sy = 0.0, sz = 0.0, mass = 0.0;
    std::uint64_t cells = 0;
    std::vector<std::size_t> members;
    while (!stack.empty()) {
      const std::size_t idx = stack.back();
      stack.pop_back();
      const std::size_t x = idx % n;
      const std::size_t y = (idx / n) % n;
      const std::size_t z = idx / (n * n);
      sx += static_cast<double>(x);
      sy += static_cast<double>(y);
      sz += static_cast<double>(z);
      members.push_back(idx);
      ++cells;

      const auto visit = [&](std::size_t nx, std::size_t ny, std::size_t nz) {
        const std::size_t nidx = (nz * n + ny) * n + nx;
        if (candidate[nidx] && !visited[nidx]) {
          visited[nidx] = 1;
          stack.push_back(nidx);
        }
      };
      if (x > 0) visit(x - 1, y, z);
      if (x + 1 < n) visit(x + 1, y, z);
      if (y > 0) visit(x, y - 1, z);
      if (y + 1 < n) visit(x, y + 1, z);
      if (z > 0) visit(x, y, z - 1);
      if (z + 1 < n) visit(x, y, z + 1);
    }

    if (cells >= config.min_cells) {
      std::sort(members.begin(), members.end());
      for (const std::size_t idx : members) mass += field.data()[idx];
      nyx::Halo halo;
      halo.cells = cells;
      halo.mass = mass;
      halo.cx = sx / static_cast<double>(cells);
      halo.cy = sy / static_cast<double>(cells);
      halo.cz = sz / static_cast<double>(cells);
      catalog.halos.push_back(halo);
    }
  }

  std::sort(catalog.halos.begin(), catalog.halos.end(),
            [](const nyx::Halo& a, const nyx::Halo& b) {
              if (a.mass != b.mass) return a.mass > b.mass;
              if (a.cz != b.cz) return a.cz < b.cz;
              if (a.cy != b.cy) return a.cy < b.cy;
              return a.cx < b.cx;
            });
  return catalog;
}

/// One seeded storage-style corruption: a special value, a sign or exponent
/// flip, a random bit flip, or a run of elements zeroed (a dropped write) or
/// rescaled (a corrupted exponent bias).  Returns the corrupted index range.
std::pair<std::size_t, std::size_t> corrupt(std::vector<double>& values, std::size_t n,
                                            util::Rng& rng) {
  const std::size_t i = static_cast<std::size_t>(rng.uniform(values.size()));
  const auto flip = [&](unsigned bit) {
    values[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(values[i]) ^
                                      (std::uint64_t{1} << bit));
  };
  switch (rng.uniform(10)) {
    case 0: values[i] = std::numeric_limits<double>::quiet_NaN(); break;
    case 1: values[i] = std::numeric_limits<double>::infinity(); break;
    case 2: values[i] = -std::numeric_limits<double>::infinity(); break;
    case 3: values[i] = 1e6; break;
    case 4: values[i] = -1e6; break;  // drives the mean negative
    case 5: values[i] = -values[i]; break;
    case 6: flip(52 + static_cast<unsigned>(rng.uniform(11))); break;
    case 7: flip(static_cast<unsigned>(rng.uniform(64))); break;
    default: {
      const std::size_t end =
          std::min(values.size(), i + 1 + static_cast<std::size_t>(rng.uniform(2 * n * n)));
      const double scale = rng.bernoulli(0.5) ? 0.0 : 4096.0;
      for (std::size_t k = i; k < end; ++k) values[k] *= scale;
      return {i, end};
    }
  }
  return {i, i + 1};
}

void expect_same_catalog(const nyx::HaloCatalog& got, const nyx::HaloCatalog& want,
                         const std::string& seed) {
  EXPECT_EQ(got.to_text(), want.to_text()) << "seed " << seed;
  EXPECT_EQ(got.candidate_cells, want.candidate_cells) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_density),
            std::bit_cast<std::uint64_t>(want.mean_density))
      << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.threshold),
            std::bit_cast<std::uint64_t>(want.threshold))
      << "seed " << seed;
  // to_text rounds masses to 7 digits; the summation order shows only in
  // the last bits, so compare each halo bit for bit too.
  ASSERT_EQ(got.halos.size(), want.halos.size()) << "seed " << seed;
  for (std::size_t h = 0; h < got.halos.size(); ++h) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.halos[h].mass),
              std::bit_cast<std::uint64_t>(want.halos[h].mass))
        << "seed " << seed << " halo " << h;
    EXPECT_EQ(got.halos[h].cells, want.halos[h].cells) << "seed " << seed << " halo " << h;
  }
}

TEST(HaloFinderDifferential, SparseFinderMatchesDenseReferenceOnCorruptedFields) {
  // Seeded corruptions of generated fields at n = 8, 16 and 33 (odd, so no
  // power-of-two index arithmetic hides a face bug).  The finder runs on
  // each corrupted field and, as the copy-free splice does, on the clean
  // field with randomly widened patches carrying the corrupted elements.
  std::size_t negative_means = 0;
  for (const std::size_t n : {std::size_t{8}, std::size_t{16}, std::size_t{33}}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      FieldConfig config;
      config.n = n;
      config.seed = seed;
      const DensityField clean = nyx::generate_density_field(config);
      util::Rng rng(seed * 1000 + n);
      DensityField faulty = clean;
      std::vector<std::pair<std::size_t, std::size_t>> dirty;
      const std::size_t corruptions = 1 + static_cast<std::size_t>(rng.uniform(4));
      for (std::size_t c = 0; c < corruptions; ++c) {
        dirty.push_back(corrupt(faulty.data(), n, rng));
      }

      const nyx::HaloCatalog want = dense_find_halos(faulty);
      expect_same_catalog(nyx::find_halos(faulty), want, std::to_string(seed));
      // A negative mean puts the threshold below every cell but the
      // corrupted ones: one component spans the grid, faces included.
      const std::size_t total = clean.size();
      if (want.mean_density < 0.0 && want.candidate_cells + corruptions >= total) {
        ++negative_means;
      }

      // Patches: each dirty run widened by up to 2n elements on either side
      // (clipped to the field), sorted, overlaps merged, adjacent kept apart.
      for (auto& [begin, end] : dirty) {
        begin -= std::min(begin, static_cast<std::size_t>(rng.uniform(2 * n)));
        end = std::min(total, end + static_cast<std::size_t>(rng.uniform(2 * n)));
      }
      std::sort(dirty.begin(), dirty.end());
      std::vector<std::pair<std::size_t, std::size_t>> merged;
      for (const auto& range : dirty) {
        if (!merged.empty() && range.first < merged.back().second) {
          merged.back().second = std::max(merged.back().second, range.second);
        } else {
          merged.push_back(range);
        }
      }
      std::vector<nyx::FieldPatch> patches;
      for (const auto& [begin, end] : merged) {
        patches.push_back(
            {begin, std::span<const double>(faulty.data()).subspan(begin, end - begin)});
      }
      expect_same_catalog(nyx::find_halos(n, clean.data(), patches), want, std::to_string(seed));
    }
  }
  // The sweep reached the regime where (nearly) every cell is a candidate.
  EXPECT_GT(negative_means, 0u);
}

/// The index's fallback to the full finder's scan over the spliced field.
constexpr core::AnalysisPath kFullScan = core::AnalysisPath::Spliced;

/// Replacement runs over a field: sorted by first element, disjoint.
using Splice = std::vector<std::pair<std::size_t, std::vector<double>>>;

/// A golden field, its index, and a scratch copy to materialize patches in.
struct IndexedField {
  explicit IndexedField(DensityField field)
      : clean(std::move(field)), index(clean.n(), clean.data()), scratch(clean) {}
  DensityField clean;
  nyx::HaloIndex index;
  DensityField scratch;  ///< equals `clean` between checks
};

/// Checks one patched field three ways — the golden index, the full finder
/// over the same patches, and the dense reference on the materialized field —
/// and returns the path the index took.
core::AnalysisPath expect_index_matches(IndexedField& f, const Splice& splice,
                                        const std::string& what) {
  std::vector<nyx::FieldPatch> patches;
  const auto at = [&](std::size_t i) {
    return f.scratch.data().begin() + static_cast<std::ptrdiff_t>(i);
  };
  for (const auto& [first, values] : splice) {
    patches.push_back({first, values});
    std::copy(values.begin(), values.end(), at(first));
  }
  const nyx::HaloCatalog want = dense_find_halos(f.scratch);
  // The carried sum is exact in long double, below what the double mean
  // shows.
  const long double folded = nyx::accumulate_density(0.0L, f.scratch.data());
  const long double carried = f.index.sum(f.clean.data(), patches);
  EXPECT_TRUE((std::isnan(folded) && std::isnan(carried)) ||
              (folded == carried && std::signbit(folded) == std::signbit(carried)))
      << what << ": carried " << static_cast<double>(carried) << " folded "
      << static_cast<double>(folded);
  for (const auto& [first, values] : splice) {
    std::copy_n(f.clean.data().begin() + static_cast<std::ptrdiff_t>(first), values.size(),
                at(first));
  }
  expect_same_catalog(nyx::find_halos(f.clean.n(), f.clean.data(), patches), want, what);
  const nyx::HaloCatalog got = f.index.find_halos(f.clean.data(), patches);
  expect_same_catalog(got, want, what);
  return got.path;
}

/// The splice that flips bits [offset, offset + width) of element `cell`,
/// counting on into the next element as a pwrite's bit run does.
Splice flip_splice(const DensityField& field, std::size_t cell, unsigned offset, unsigned width) {
  const std::size_t last = std::min(field.size() - 1, cell + (offset + width - 1) / 64);
  std::vector<double> values(field.data().begin() + static_cast<std::ptrdiff_t>(cell),
                             field.data().begin() + static_cast<std::ptrdiff_t>(last + 1));
  for (unsigned bit = offset; bit < offset + width && bit / 64 < values.size(); ++bit) {
    double& v = values[bit / 64];
    v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ (std::uint64_t{1} << (bit % 64)));
  }
  return {{cell, std::move(values)}};
}

/// The cells the index is most likely to get wrong: the first and last
/// element, both sides of the first block boundary, the element where the
/// golden running sum enters the binade of its last power of two, and the
/// densest cell, inside a golden halo.
std::vector<std::size_t> probe_cells(const DensityField& field) {
  constexpr std::size_t kBlock = nyx::HaloIndex::kBlock;
  std::vector<std::size_t> cells = {0, kBlock - 1, kBlock, field.size() - 1};
  long double sum = 0.0L;
  std::size_t crossing = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    const long double next = sum + field.data()[i];
    if (sum > 0.0L && std::ilogb(next) != std::ilogb(sum)) crossing = i;
    sum = next;
  }
  cells.push_back(crossing);
  const auto& values = field.data();
  cells.push_back(
      static_cast<std::size_t>(std::max_element(values.begin(), values.end()) - values.begin()));
  return cells;
}

/// Bit flips of width 1, 2 and 4 at every offset of the probe cells
/// [first, last) of an n^3 field: the index must give the full finder's
/// catalog bit for bit, and the dense reference's, stay incremental on
/// >= 95 % of them, and never take the full finder's scan.
void expect_index_matches_every_flip(std::size_t n, std::size_t first, std::size_t last) {
  FieldConfig config;
  config.n = n;
  config.seed = 11;
  IndexedField f(nyx::generate_density_field(config));
  expect_same_catalog(f.index.golden(), nyx::find_halos(f.clean), "golden");
  ASSERT_GT(f.index.golden().halos.size(), 0u);
  std::size_t runs = 0, incremental = 0, full = 0;
  const std::vector<std::size_t> cells = probe_cells(f.clean);
  for (std::size_t c = first; c < last; ++c) {
    const std::size_t cell = cells[c];
    for (const unsigned width : {1u, 2u, 4u}) {
      for (unsigned offset = 0; offset < 64; ++offset) {
        const std::string what = "cell " + std::to_string(cell) + " bits " +
                                 std::to_string(offset) + "+" + std::to_string(width);
        ++runs;
        const core::AnalysisPath path =
            expect_index_matches(f, flip_splice(f.clean, cell, offset, width), what);
        if (path == core::AnalysisPath::SplicedIncremental) ++incremental;
        if (path == kFullScan) ++full;
      }
    }
  }
  // Only a flip that drives the mean negative (the sign bit with the top
  // exponent bit of a value below 1) leaves the band, and it leaves one
  // hole in a grid of candidates: the spanning path.
  EXPECT_GE(incremental * 20, runs * 19) << incremental << " of " << runs;
  EXPECT_EQ(full, 0u) << runs << " runs";
}

TEST(HaloFinderDifferential, NonFiniteMeanKeepsThePlainFoldsBits) {
  // Once the mean's running sum is NaN or infinite, accumulate_density adds
  // only the non-finite values left.  The mean must keep the bits of the
  // plain element-order fold, NaN payload included, with the values in the
  // field and spliced over it as patches (and through the index).
  constexpr std::size_t n = 16;  // 4096 cells: 16 strides of the fold
  FieldConfig config;
  config.n = n;
  config.seed = 9;
  const DensityField clean = nyx::generate_density_field(config);
  const std::size_t total = clean.size(), mid = total / 2 + 3, last = total - 1;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7ff8000000000123});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0xfff80000000abc00});
  using Values = std::vector<std::pair<std::size_t, double>>;
  std::vector<Values> cases;
  for (const double v : {nan_a, nan_b, inf, -inf}) {
    for (const std::size_t at : {std::size_t{0}, mid, last}) cases.push_back({{at, v}});
  }
  cases.push_back({{10, nan_a}, {mid, nan_b}});
  cases.push_back({{10, nan_b}, {mid, nan_a}});
  cases.push_back({{10, inf}, {mid, -inf}});
  cases.push_back({{255, -inf}, {256, inf}});
  cases.push_back({{10, inf}, {last, nan_a}});

  const nyx::HaloIndex index(n, clean.data(), {});
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Values& c : cases) {
    std::string what = "values";
    std::vector<double> values = clean.data();
    std::vector<nyx::FieldPatch> patches;
    for (const auto& [at, v] : c) {
      what += " " + std::to_string(v) + "@" + std::to_string(at);
      values[at] = v;
      patches.push_back({at, std::span(&values[at], 1)});
    }
    long double plain = 0.0L;
    for (const double v : values) plain += v;
    const std::uint64_t want =
        bits(static_cast<double>(plain / static_cast<long double>(total)));
    EXPECT_FALSE(std::isfinite(plain)) << what;
    EXPECT_EQ(bits(nyx::find_halos(n, values, {}, {}).mean_density), want) << what;
    EXPECT_EQ(bits(nyx::find_halos(n, clean.data(), patches, {}).mean_density), want) << what;
    EXPECT_EQ(bits(index.find_halos(clean.data(), patches).mean_density), want) << what;
  }
}

TEST(HaloFinderDifferential, CarriedSumRefusesAnOddShiftOnTies) {
  // Every value is 1 + 1.5 ulp of the second block's running sums, so every
  // addition there is a tie.  A faulty sum an odd number of ulps off the
  // golden one then rounds the other way, so the carry must refuse it and
  // fold; an even shift carries.  Flips of every bit of the last cells of
  // the first block give both.
  constexpr std::size_t n = 17;  // 4913 cells: a full block and a partial one
  IndexedField f(DensityField(n, std::vector<double>(n * n * n, 1.0 + 0x3p-52)));
  for (const std::size_t cell : {std::size_t{4000}, std::size_t{4094}, std::size_t{4095}}) {
    for (const unsigned width : {1u, 2u}) {
      for (unsigned offset = 0; offset < 64; ++offset) {
        (void)expect_index_matches(f, flip_splice(f.clean, cell, offset, width),
                                   "cell " + std::to_string(cell) + " bits " +
                                       std::to_string(offset) + "+" + std::to_string(width));
      }
    }
  }
}

TEST(HaloFinderDifferential, CarriedSumSkipsOnlyBlocksBelowAQuarterUlp) {
  // A first block of ones and a second block of zeros but one 100.  A huge
  // negative first cell makes the ones vanish into the sum, and the second
  // block may be skipped only when 100 is below a quarter of the sum's ulp:
  // at -(2^70 + 2^20) the ulp is 128 and adding 100 moves the sum, at -2^80
  // it is 2^17 and the sum stays.
  constexpr std::size_t n = 17;  // 4913 cells: a full block and a partial one
  std::vector<double> values(n * n * n, 0.0);
  std::fill_n(values.begin(), nyx::HaloIndex::kBlock, 1.0);
  values[nyx::HaloIndex::kBlock + 300] = 100.0;
  IndexedField f(DensityField(n, std::move(values)));
  for (const double v : {-0x1p70 - 0x1p20, -0x1p80, -0x1p64}) {
    (void)expect_index_matches(f, {{0, {v}}}, "first cell " + std::to_string(v));
  }
}

// n = 33 has 9 blocks, the last one partial; n = 48 has 27.  The probe
// cells are split so that each test stays short in a sanitizer build.
TEST(HaloFinderDifferential, IndexMatchesFullFinderOnEveryFlipAtN33Cells0To2) {
  expect_index_matches_every_flip(33, 0, 3);
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnEveryFlipAtN33Cells3To5) {
  expect_index_matches_every_flip(33, 3, 6);
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnEveryFlipAtN48Cells0To1) {
  expect_index_matches_every_flip(48, 0, 2);
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnEveryFlipAtN48Cells2To3) {
  expect_index_matches_every_flip(48, 2, 4);
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnEveryFlipAtN48Cells4To5) {
  expect_index_matches_every_flip(48, 4, 6);
}

/// Special values at the probe cells, multi-patch and zeroed runs, and a
/// mean moved up, down within the band, and down past it, on an n^3 field.
void expect_index_matches_values_runs_and_moved_thresholds(std::size_t n) {
  FieldConfig config;
  config.n = n;
  config.seed = 12;
  IndexedField f(nyx::generate_density_field(config));
  const DensityField& clean = f.clean;
  const nyx::HaloIndex& index = f.index;
  const std::size_t total = clean.size();
  const std::string field = "n " + std::to_string(n);
  std::size_t runs = 0, incremental = 0;
  const auto check = [&](const Splice& splice, const std::string& what) {
    ++runs;
    const core::AnalysisPath path = expect_index_matches(f, splice, what);
    if (path == core::AnalysisPath::SplicedIncremental) ++incremental;
    return path;
  };

  // Special values at each probe cell.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::size_t cell : probe_cells(clean)) {
    for (const double v : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, -1e6, 1e300}) {
      const core::AnalysisPath path =
          check({{cell, {v}}},
                field + " cell " + std::to_string(cell) + " value " + std::to_string(v));
      // -1e6 outweighs the field: the mean goes negative around one hole.
      if (v == -1e6) {
        EXPECT_EQ(path, core::AnalysisPath::SplicedSpanning) << cell;
      }
    }
  }

  // Several patches at once, and zeroed runs (a dropped or torn write).
  util::Rng rng(n);
  for (int trial = 0; trial < 40; ++trial) {
    Splice splice;
    std::size_t at = 0;
    const std::size_t patches = 1 + static_cast<std::size_t>(rng.uniform(4));
    for (std::size_t p = 0; p < patches && at < total; ++p) {
      const std::size_t first =
          at + static_cast<std::size_t>(rng.uniform((total - at) / 2 + 1));
      const std::size_t longest = trial % 2 == 0 ? 4 : 2 * n * n;
      const std::size_t length =
          std::min(total - first, 1 + static_cast<std::size_t>(rng.uniform(longest)));
      const auto from = clean.data().begin() + static_cast<std::ptrdiff_t>(first);
      std::vector<double> values(from, from + static_cast<std::ptrdiff_t>(length));
      if (trial % 2 == 0) {
        for (double& v : values) {
          const auto bit = static_cast<unsigned>(rng.uniform(62));
          v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ (std::uint64_t{3} << bit));
        }
      } else {
        std::fill(values.begin(), values.end(), 0.0);
      }
      splice.emplace_back(first, std::move(values));
      at = first + length + 1;
    }
    check(splice, field + " trial " + std::to_string(trial));
  }

  // One cell moves the mean: up by half (golden candidates leave), down
  // to 70 % (band cells join), and down to 40 %, below the band's floor of
  // half the golden threshold but above the least golden value, where the
  // full finder's scan must run.
  const double golden_sum = index.golden().mean_density * static_cast<double>(total);
  const std::size_t cell = total / 2;
  const double golden = clean.data()[cell];
  const auto moved = [&](double share) {
    return Splice{{cell, {golden + (share - 1.0) * golden_sum}}};
  };
  check(moved(1.5), field + " mean x1.5");
  EXPECT_EQ(check(moved(0.7), field + " mean x0.7"), core::AnalysisPath::SplicedIncremental);
  EXPECT_EQ(check(moved(0.4), field + " mean x0.4"), kFullScan);
  // The lowered threshold really did add band cells, and the raised one
  // really did drop golden candidates.
  const Splice lowered = moved(0.7), raised = moved(1.5);
  const std::vector<nyx::FieldPatch> down = {{cell, lowered[0].second}};
  const std::vector<nyx::FieldPatch> up = {{cell, raised[0].second}};
  EXPECT_GT(index.find_halos(clean.data(), down).candidate_cells,
            index.golden().candidate_cells);
  EXPECT_LT(index.find_halos(clean.data(), up).candidate_cells,
            index.golden().candidate_cells);
  // Only the -1e6 values and the x0.4 mean leave the band.
  EXPECT_GE(incremental * 20, runs * 17) << incremental << " of " << runs;
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnValuesRunsAndMovedThresholdsAtN33) {
  expect_index_matches_values_runs_and_moved_thresholds(33);
}

TEST(HaloFinderDifferential, IndexMatchesFullFinderOnValuesRunsAndMovedThresholdsAtN48) {
  expect_index_matches_values_runs_and_moved_thresholds(48);
}

TEST(HaloFinderDifferential, SpanningPathMatchesFullFinderAroundEnclosedCells) {
  // Cells of -1e6 drive the mean negative, so every other cell is a
  // candidate and they are the only holes.  Holes at the first and the last
  // cell, and holes that enclose a corner cell, an interior cell, an
  // interior pair and a corner cube of min_cells cells (a halo of its own);
  // with patched candidates inside the cube and in the spanning component.
  // Past the proof's bound (k^3 < n^2: 13 holes at n = 48, not 14) the
  // full finder runs.
  constexpr std::size_t n = 48;
  FieldConfig config;
  config.n = n;
  config.seed = 13;
  IndexedField f(nyx::generate_density_field(config));
  const auto at = [](std::size_t x, std::size_t y, std::size_t z) { return (z * n + y) * n + x; };
  const auto neighbours_of = [&](std::vector<std::size_t> inside) {
    std::vector<std::size_t> holes;
    for (const std::size_t c : inside) {
      const std::size_t x = c % n, y = c / n % n, z = c / (n * n);
      for (const std::size_t m : {x > 0 ? c - 1 : c, x + 1 < n ? c + 1 : c, y > 0 ? c - n : c,
                                  y + 1 < n ? c + n : c, z > 0 ? c - n * n : c,
                                  z + 1 < n ? c + n * n : c}) {
        if (std::find(inside.begin(), inside.end(), m) == inside.end()) holes.push_back(m);
      }
    }
    return holes;
  };
  // One single-cell patch per changed cell: -1e6 for each hole, `extra`
  // values for candidates.
  const auto splice_of = [](std::vector<std::size_t> holes,
                            std::vector<std::pair<std::size_t, double>> extra = {}) {
    for (const std::size_t h : holes) extra.emplace_back(h, -1e6);
    std::sort(extra.begin(), extra.end());
    extra.erase(std::unique(extra.begin(), extra.end(),
                            [](const auto& a, const auto& b) { return a.first == b.first; }),
                extra.end());
    Splice splice;
    for (const auto& [cell, value] : extra) splice.push_back({cell, {value}});
    return splice;
  };
  std::vector<std::size_t> cube;
  for (std::size_t z = n - 2; z < n; ++z) {
    for (std::size_t y = n - 2; y < n; ++y) {
      for (std::size_t x = n - 2; x < n; ++x) cube.push_back(at(x, y, z));
    }
  }
  std::vector<std::size_t> scattered;
  for (std::size_t i = 0; i < 14; ++i) scattered.push_back(at(3 * i + 1, 2 * i + 5, i + 20));

  const std::vector<std::pair<std::string, Splice>> spanning = {
      {"first cell", splice_of({0})},
      {"last cell and cell 1", splice_of({1, n * n * n - 1})},
      {"corner cell", splice_of(neighbours_of({0}))},
      {"interior cell", splice_of(neighbours_of({at(9, 9, 9)}), {{at(20, 20, 20), 1e3}})},
      {"interior pair", splice_of(neighbours_of({at(9, 9, 9), at(10, 9, 9)}))},
      {"corner cube", splice_of(neighbours_of(cube), {{cube[3], 7.5}, {at(5, 5, 5), 3.0}})},
      {"13 scattered", splice_of({scattered.begin(), scattered.end() - 1})},
  };
  for (const auto& [what, splice] : spanning) {
    EXPECT_EQ(expect_index_matches(f, splice, what), core::AnalysisPath::SplicedSpanning) << what;
  }
  EXPECT_EQ(expect_index_matches(f, splice_of(scattered), "14 scattered"),
            kFullScan);

  // The enclosed cube is a halo beside the spanning component.
  std::vector<nyx::FieldPatch> patches;
  for (const auto& [first, values] : spanning[5].second) patches.push_back({first, values});
  const nyx::HaloCatalog cubed = f.index.find_halos(f.clean.data(), patches);
  ASSERT_EQ(cubed.halos.size(), 2u);
  EXPECT_EQ(cubed.halos[1].cells, 8u);
  EXPECT_EQ(cubed.halos[0].cells, n * n * n - 12 - 8);

  // With min_cells = 1 every enclosed component is a halo too, and enters
  // the catalog in seed order beside the spanning one.
  nyx::HaloFinderConfig single;
  single.min_cells = 1;
  const nyx::HaloIndex singles(n, f.clean.data(), single);
  for (const auto& [what, splice] : spanning) {
    std::vector<nyx::FieldPatch> spliced;
    for (const auto& [first, values] : splice) spliced.push_back({first, values});
    const nyx::HaloCatalog got = singles.find_halos(f.clean.data(), spliced);
    EXPECT_EQ(got.path, core::AnalysisPath::SplicedSpanning) << what;
    expect_same_catalog(got, nyx::find_halos(n, f.clean.data(), spliced, single),
                        what + ", min_cells 1");
  }

  // A golden field whose own mean is negative has no band below its
  // threshold; its golden catalog is still the full finder's, and patched
  // copies of it take the full finder's scan.
  DensityField negative = f.clean;
  negative.data()[at(7, 7, 7)] = -1e6;
  IndexedField g(std::move(negative));
  expect_same_catalog(g.index.golden(), dense_find_halos(g.clean), "negative golden");
  EXPECT_EQ(g.index.golden().halos.size(), 1u);
  EXPECT_EQ(expect_index_matches(g, splice_of({at(3, 4, 5)}), "negative golden, hole"),
            kFullScan);
}

TEST(HaloFinderDifferential, PatchesMustBeSortedDisjointAndInside) {
  const DensityField field = uniform_field(8);
  const std::vector<double> values(4, 1.0);
  const std::span<const double> four(values);
  const std::vector<nyx::FieldPatch> overlapping = {{0, four}, {3, four}};
  const std::vector<nyx::FieldPatch> overhanging = {{510, four}};
  const std::vector<nyx::FieldPatch> beyond = {{600, {}}};
  EXPECT_THROW((void)nyx::find_halos(8, field.data(), overlapping), std::invalid_argument);
  EXPECT_THROW((void)nyx::find_halos(8, field.data(), overhanging), std::invalid_argument);
  EXPECT_THROW((void)nyx::find_halos(8, field.data(), beyond), std::invalid_argument);
  EXPECT_THROW((void)nyx::find_halos(7, field.data(), {}), std::invalid_argument);
  const std::vector<nyx::FieldPatch> touching = {{0, four}, {4, four}, {508, four}};
  EXPECT_EQ(nyx::find_halos(8, field.data(), touching).to_text(),
            nyx::find_halos(field).to_text());
  const nyx::HaloIndex index(8, field.data());
  EXPECT_THROW((void)index.find_halos(field.data(), overlapping), std::invalid_argument);
  EXPECT_THROW((void)index.find_halos(field.data(), beyond), std::invalid_argument);
  EXPECT_THROW((void)index.find_halos(std::span(field.data()).first(500), {}),
               std::invalid_argument);
  EXPECT_EQ(index.find_halos(field.data(), touching).to_text(), nyx::find_halos(field).to_text());
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

// Every caller that corrupts or repairs plotfile metadata locates it through
// plan_plotfile_layout, so the plan must match what a write lays down.
TEST(Plotfile, PlannedLayoutMatchesWrite) {
  h5::WriteOptions custom;
  custom.data_chunk_bytes = 4096;
  custom.lock_file = false;
  custom.btree_capacity = 40;
  custom.reserved_tail_bytes = 24;
  for (const h5::WriteOptions& options : {h5::WriteOptions{}, custom}) {
    for (const std::size_t n : {8u, 16u, 33u}) {
      SCOPED_TRACE("n = " + std::to_string(n));
      FieldConfig config;
      config.n = n;
      vfs::MemFs fs;
      const auto written =
          nyx::write_plotfile(fs, "/plt.h5", nyx::generate_density_field(config), options);
      const auto planned = nyx::plan_plotfile_layout(n, options);
      EXPECT_EQ(planned.metadata_size, written.metadata_size);
      EXPECT_EQ(planned.data_addresses, written.data_addresses);
      EXPECT_EQ(planned.field_map.to_tsv(), written.field_map.to_tsv());
      EXPECT_FALSE(planned.field_map.entries().empty());
    }
  }
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
