#pragma once
// Mini-Nyx density field generator.
//
// Nyx's halo-finder experiments operate on the "baryon density" variable of
// a cosmological plotfile: an over-density field whose mean is exactly 1 by
// mass conservation (the property the paper's average-value-based SDC
// detector relies on).  We synthesize a statistically similar field: a
// lognormal large-scale background plus a population of Gaussian
// over-density halos, normalized to unit mean.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ffis/util/rng.hpp"

namespace ffis::nyx {

struct FieldConfig {
  std::size_t n = 64;              ///< grid is n x n x n cells
  std::uint64_t seed = 1;
  /// Gaussian over-density blobs per 64^3 of volume (scaled with n^3 so the
  /// blob mass fraction — and hence the normalized peak heights — stay
  /// stable across grid sizes).
  std::size_t halo_count = 30;
  double sigma_min = 1.0;          ///< blob radius range (cells)
  double sigma_max = 1.8;
  double amplitude_min = 150.0;    ///< blob peak over-density (pre-normalization)
  double amplitude_max = 500.0;
  double lognormal_sigma = 0.5;    ///< background log-density spread
};

/// Row-major (z, y, x) scalar field on a cubic grid.
class DensityField {
 public:
  DensityField(std::size_t n, std::vector<double> data);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  [[nodiscard]] double at(std::size_t x, std::size_t y, std::size_t z) const noexcept {
    return data_[(z * n_ + y) * n_ + x];
  }
  double& at(std::size_t x, std::size_t y, std::size_t z) noexcept {
    return data_[(z * n_ + y) * n_ + x];
  }

  [[nodiscard]] std::size_t linear_index(std::size_t x, std::size_t y,
                                         std::size_t z) const noexcept {
    return (z * n_ + y) * n_ + x;
  }

  /// accumulate_density over the whole field, divided by size().
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  std::size_t n_;
  std::vector<double> data_;
};

/// Adds `values` onto `sum` strictly left to right in long double: a
/// sequential fold, not a pairwise one.  The long-double accumulator keeps a
/// normalized mean at 1 to ~1e-16 even for large grids.  Folding consecutive
/// pieces of a field through one running sum gives the whole-field sum bit
/// for bit; find_halos relies on that to take the mean of a field whose
/// dirty elements are spliced in from patches.  Once the sum is NaN or
/// infinite only the non-finite values are added, with the same result.
[[nodiscard]] long double accumulate_density(long double sum,
                                             std::span<const double> values) noexcept;

/// Generates the field: lognormal background + halos, normalized so that
/// mean() == 1 to within floating-point rounding.
[[nodiscard]] DensityField generate_density_field(const FieldConfig& config);

}  // namespace ffis::nyx
