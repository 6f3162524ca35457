#include "ffis/apps/nyx/density_field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ffis::nyx {

DensityField::DensityField(std::size_t n, std::vector<double> data)
    : n_(n), data_(std::move(data)) {
  if (data_.size() != n * n * n) {
    throw std::invalid_argument("DensityField: data size does not match n^3");
  }
}

long double accumulate_density(long double sum, std::span<const double> values) noexcept {
  constexpr std::size_t kStride = 256;  // values folded between checks of the sum
  std::size_t at = 0;
  while (at < values.size() && std::isfinite(sum)) {
    const std::size_t end = std::min(values.size(), at + kStride);
    for (; at < end; ++at) sum += values[at];
  }
  // A NaN or an infinity keeps its bits over finite values, so only the
  // non-finite values left can change the sum.  Skipping the others spares
  // x87 its slow path on such operands (~27 ms a fold at 48^3, not 0.14 ms).
  for (; at < values.size(); ++at) {
    if (!std::isfinite(values[at])) sum += values[at];
  }
  return sum;
}

double DensityField::mean() const noexcept {
  return static_cast<double>(accumulate_density(0.0L, data_) /
                             static_cast<long double>(data_.size()));
}

double DensityField::max() const noexcept {
  double m = data_.empty() ? 0.0 : data_[0];
  for (const double v : data_) m = std::max(m, v);
  return m;
}

DensityField generate_density_field(const FieldConfig& config) {
  const std::size_t n = config.n;
  if (n < 8) throw std::invalid_argument("grid too small (n >= 8)");
  util::Rng rng(config.seed);

  // Lognormal background with unit median; mean is normalized away below.
  std::vector<double> data(n * n * n);
  for (auto& v : data) v = std::exp(config.lognormal_sigma * rng.gaussian());

  DensityField field(n, std::move(data));

  // Halos: spherical Gaussian over-densities at random positions.  Their
  // smooth radial decay guarantees that every halo has cells arbitrarily
  // close to the halo-finder threshold, which is what makes the halo set
  // sensitive to small mean shifts (the paper's DROPPED-WRITE SDC mechanism).
  const double volume_ratio = static_cast<double>(n * n * n) / (64.0 * 64.0 * 64.0);
  const auto effective_halos = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(static_cast<double>(config.halo_count) * volume_ratio)));
  for (std::size_t h = 0; h < effective_halos; ++h) {
    const double cx = rng.uniform(2.0, static_cast<double>(n) - 2.0);
    const double cy = rng.uniform(2.0, static_cast<double>(n) - 2.0);
    const double cz = rng.uniform(2.0, static_cast<double>(n) - 2.0);
    const double sigma = rng.uniform(config.sigma_min, config.sigma_max);
    const double amplitude = rng.uniform(config.amplitude_min, config.amplitude_max);

    const auto reach = static_cast<std::ptrdiff_t>(std::ceil(4.0 * sigma));
    const auto clamp = [&](double c, std::ptrdiff_t d) -> std::size_t {
      const auto i = static_cast<std::ptrdiff_t>(std::llround(c)) + d;
      return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
          i, 0, static_cast<std::ptrdiff_t>(n) - 1));
    };
    const std::size_t x0 = clamp(cx, -reach), x1 = clamp(cx, reach);
    const std::size_t y0 = clamp(cy, -reach), y1 = clamp(cy, reach);
    const std::size_t z0 = clamp(cz, -reach), z1 = clamp(cz, reach);
    const double inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
    for (std::size_t z = z0; z <= z1; ++z) {
      for (std::size_t y = y0; y <= y1; ++y) {
        for (std::size_t x = x0; x <= x1; ++x) {
          const double dx = static_cast<double>(x) - cx;
          const double dy = static_cast<double>(y) - cy;
          const double dz = static_cast<double>(z) - cz;
          const double r2 = dx * dx + dy * dy + dz * dz;
          field.at(x, y, z) += amplitude * std::exp(-r2 * inv_two_sigma2);
        }
      }
    }
  }

  // Mass conservation: normalize to unit mean.
  const double mean = field.mean();
  for (auto& v : field.data()) v /= mean;
  return field;
}

}  // namespace ffis::nyx
