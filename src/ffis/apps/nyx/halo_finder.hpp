#pragma once
// Friends-of-Friends-style halo finder (the paper's Nyx post-analysis).
//
// Criteria (paper §V-B): (1) a cell is a halo-cell candidate when its
// density exceeds 81.66x the mean density of the whole dataset; (2) a halo
// is a 6-connected component of candidates with at least `min_cells` cells.
// For each halo the finder reports position (cell centroid), cell count and
// mass (sum of member densities) — the NVB_integral-style output whose
// bit-wise comparison defines the Benign class.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ffis/apps/nyx/density_field.hpp"

namespace ffis::nyx {

struct Halo {
  double cx = 0.0, cy = 0.0, cz = 0.0;  ///< centroid (cell coordinates)
  std::uint64_t cells = 0;
  double mass = 0.0;
};

struct HaloFinderConfig {
  double threshold_factor = 81.66;  ///< candidate threshold over mean density
  std::uint64_t min_cells = 8;      ///< minimum component size to form a halo
};

struct HaloCatalog {
  std::vector<Halo> halos;          ///< sorted: mass desc, then position
  double mean_density = 0.0;
  double threshold = 0.0;
  std::uint64_t candidate_cells = 0;

  /// Deterministic text rendering (positions %.6f, mass %.6e) — the
  /// comparison artifact for outcome classification.
  [[nodiscard]] std::string to_text() const;

  [[nodiscard]] double total_mass() const noexcept;
};

/// Replacement values for the field elements [first, first + values.size()).
struct FieldPatch {
  std::size_t first = 0;
  std::span<const double> values;
};

/// Finds the halos of the n^3 field that is `base` (row-major, as in
/// DensityField) with `patches` spliced over it.  Patches must be sorted by
/// `first`, non-overlapping and inside the field; otherwise this throws
/// std::invalid_argument.  The catalog is bit-identical to find_halos on
/// the materialized field: the mean and every halo mass are summed in the
/// same element order, so a caller can splice a few re-read elements over a
/// cached field without copying it.
///
/// Cost: two streaming passes over the field (the long-double mean, then
/// one threshold scan that marks the candidates in a one-byte-per-cell state
/// array), a memchr over that array for the component seeds, and component
/// growth proportional to the number of candidates.
[[nodiscard]] HaloCatalog find_halos(std::size_t n, std::span<const double> base,
                                     std::span<const FieldPatch> patches,
                                     const HaloFinderConfig& config = {});

/// find_halos over `field` with no patches.
[[nodiscard]] HaloCatalog find_halos(const DensityField& field,
                                     const HaloFinderConfig& config = {});

}  // namespace ffis::nyx
