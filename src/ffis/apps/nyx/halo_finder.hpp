#pragma once
// Friends-of-Friends-style halo finder (the paper's Nyx post-analysis).
//
// Criteria (paper §V-B): (1) a cell is a halo-cell candidate when its
// density exceeds 81.66x the mean density of the whole dataset; (2) a halo
// is a 6-connected component of candidates with at least `min_cells` cells.
// For each halo the finder reports position (cell centroid), cell count and
// mass (sum of member densities, in double, in ascending cell-index order, so
// that it depends only on the halo's cells) — the NVB_integral-style output
// whose bit-wise comparison defines the Benign class.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/core/outcome.hpp"

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
  /// FullRead from find_halos; HaloIndex::find_halos sets SplicedIncremental
  /// (golden facts plus the patched cells), SplicedSpanning (one component
  /// spans all but a few patched cells) or Spliced (the full scan).
  core::AnalysisPath path = core::AnalysisPath::FullRead;

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
/// Cost: O(field) — the long-double mean folds every element, one threshold
/// scan marks the candidates in a one-byte-per-cell state array, a memchr
/// over that array finds the component seeds, component growth is
/// proportional to the number of candidates, and each halo's cells are put
/// in index order for its mass.  HaloIndex::find_halos gives the same
/// catalog at a cost proportional to the patches.
[[nodiscard]] HaloCatalog find_halos(std::size_t n, std::span<const double> base,
                                     std::span<const FieldPatch> patches,
                                     const HaloFinderConfig& config = {});

/// find_halos over `field` with no patches.
[[nodiscard]] HaloCatalog find_halos(const DensityField& field,
                                     const HaloFinderConfig& config = {});

/// What find_halos learns about one unpatched field, kept so that the same
/// field with a few patches spliced over it is analyzed in time proportional
/// to the patches, not to the field.  Built once, by the folds and one
/// threshold scan of the field; holds O(blocks + candidates + band) entries,
/// never a per-cell array.
///
///  - The running sums at every kBlock-th element, in long double (the
///    mean) and in double (the mass of a component of every cell), per
///    block the binade each golden running sum stays in, if it stays in
///    one, and a bound on its largest value.
///  - The golden candidates, each with its component, and per component its
///    seed (lowest index), cells and halo sums.
///  - The candidates sorted by value, and the non-candidates of the band
///    (threshold / 2, threshold] sorted by value: the cells a moved
///    threshold can flip.
class HaloIndex {
 public:
  static constexpr std::size_t kBlock = 4096;

  /// Indexes the n^3 field `base`; throws std::invalid_argument when its
  /// size is not n^3.
  HaloIndex(std::size_t n, std::span<const double> base, const HaloFinderConfig& config = {});

  /// find_halos(n, base, patches, config) bit for bit, where `base` must be
  /// the field this index was built from.  Patches are checked as there.
  ///
  /// The sum resumes at the block of the first patch and folds each patched
  /// block explicitly.  A clean block is skipped when all its values lie
  /// below a quarter of the sum's ulp, or carried across as a shift of its
  /// golden end sum when rounding provably commutes with that shift; the
  /// fold stops as soon as the sum equals the golden one or is NaN or
  /// infinite.  The candidates are the golden ones with the cells between
  /// the old and new threshold flipped and the patched cells judged by their
  /// new values; only the components that contain or touch such a cell are
  /// regrown.  A negative threshold over golden values that are all finite
  /// and >= 0 (path Spanning) leaves the patched cells that fail it as the only
  /// non-candidates; while they are fewer than n^(2/3), bounded floods
  /// around them find the small components they enclose, and the rest is
  /// one component whose mass is the golden double fold with those cells
  /// spliced out.  Any other threshold below band_floor() takes the full
  /// finder's scan (path Full).
  [[nodiscard]] HaloCatalog find_halos(std::span<const double> base,
                                       std::span<const FieldPatch> patches) const;

  /// The long-double sum of the patched field, bit-identical to folding it
  /// in element order (accumulate_density) as find_halos does.
  [[nodiscard]] long double sum(std::span<const double> base,
                                std::span<const FieldPatch> patches) const;

  /// The catalog of the unpatched field, as find_halos gives it.
  [[nodiscard]] const HaloCatalog& golden() const noexcept { return golden_; }
  /// The lowest threshold the incremental path handles; below it the band
  /// does not list every cell that could flip.  +inf when the golden
  /// threshold is not a positive finite number.
  [[nodiscard]] double band_floor() const noexcept { return band_floor_; }

 private:
  /// Golden running sums in the accumulator type `Sum`.
  template <typename Sum>
  struct BlockSums {
    std::vector<Sum> at;      ///< at[b]: elements [0, b * kBlock); last = total
    std::vector<Sum> binade;  ///< 2^E, or 0 when block b cannot be carried
  };

  /// The fold of the patched field in `Sum`, bit-identical to folding it in
  /// element order; `sums` holds the golden field's.
  template <typename Sum>
  [[nodiscard]] Sum fold(const BlockSums<Sum>& sums, std::span<const double> base,
                         std::span<const FieldPatch> patches) const;
  /// The running sum after golden block b, given the sum `sum` before it.
  template <typename Sum>
  [[nodiscard]] Sum step_clean_block(const BlockSums<Sum>& sums, Sum sum, std::size_t b,
                                     std::span<const double> base) const;
  /// Fills `catalog` (mean and threshold set) when every golden cell is a
  /// candidate; false, `catalog` untouched, when too many patched cells fail
  /// the threshold to prove the components.
  [[nodiscard]] bool find_spanning(std::span<const double> base,
                                   std::span<const FieldPatch> patches,
                                   HaloCatalog& catalog) const;
  /// Index into components_ of the golden candidate `cell`.
  [[nodiscard]] std::size_t component_of(std::size_t cell) const;

  struct Component {
    std::size_t seed = 0;          ///< lowest cell index, where growth starts
    std::size_t first_member = 0;  ///< into members_; the next entry's ends it
    Halo halo;                     ///< sums of the golden traversal
  };
  struct Ranked {
    double value;
    std::size_t cell;
  };

  std::size_t n_;
  HaloFinderConfig config_;
  HaloCatalog golden_;
  BlockSums<long double> density_;  ///< the mean's fold
  BlockSums<double> mass_;           ///< the mass fold of every cell
  std::vector<long double> block_bound_;  ///< >= each value of block b; +inf unless all are >= 0
  bool all_finite_ = true;                ///< no NaN or infinity in the field
  bool nonnegative_ = true;               ///< every value finite and >= 0
  std::vector<std::size_t> candidates_;      ///< ascending
  std::vector<std::size_t> component_of_;    ///< per candidates_ entry
  std::vector<Component> components_;        ///< in seed order
  std::vector<std::size_t> members_;         ///< cells, grouped by component
  std::vector<std::size_t> halo_components_; ///< components with >= min_cells, in seed order
  std::vector<Ranked> rising_;               ///< candidates, value ascending
  std::vector<Ranked> band_;                 ///< band cells, value descending
  double band_floor_;
};

}  // namespace ffis::nyx
