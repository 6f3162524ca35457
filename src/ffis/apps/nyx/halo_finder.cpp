#include "ffis/apps/nyx/halo_finder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "ffis/util/strfmt.hpp"

namespace ffis::nyx {

double HaloCatalog::total_mass() const noexcept {
  double sum = 0.0;
  for (const auto& h : halos) sum += h.mass;
  return sum;
}

std::string HaloCatalog::to_text() const {
  std::string out = "# halo catalog: id cx cy cz cells mass\n";
  char line[160];
  for (std::size_t i = 0; i < halos.size(); ++i) {
    const auto& h = halos[i];
    std::snprintf(line, sizeof line, "%zu %.6f %.6f %.6f %llu %.6e\n", i, h.cx, h.cy,
                  h.cz, static_cast<unsigned long long>(h.cells), h.mass);
    out += line;
  }
  out += util::fmt("total_halos={}\n", halos.size());
  return out;
}

namespace {

/// Calls fn(first_index, values) for each consecutive piece of the patched
/// field, in index order: base, patch, base, ..., base (pieces may be empty).
template <typename Fn>
void for_each_piece(std::span<const double> base, std::span<const FieldPatch> patches,
                    Fn&& fn) {
  std::size_t at = 0;
  for (const FieldPatch& p : patches) {
    fn(at, base.subspan(at, p.first - at));
    fn(p.first, p.values);
    at = p.first + p.values.size();
  }
  fn(at, base.subspan(at));
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Per-cell state of the component growth.
constexpr std::uint8_t kCandidate = 1;
constexpr std::uint8_t kVisited = 2;

/// The candidate rule: finite and above the threshold (NaN fails both).
bool is_candidate(double value, double threshold) noexcept {
  return value > threshold && value < kInf;
}

/// Calls fn(i) for each i with values[i] > floor (never for NaN), in index
/// order.  Such values are rare, so blocks of 16 are first tested two lanes
/// at a time with the GCC/Clang vector extension (SSE2 on x86-64, plain
/// scalar code on a target without vectors), and only a block with a hit is
/// tested one value at a time.
template <typename Fn>
void for_each_above(std::span<const double> values, double floor, Fn&& fn) {
  using f64x2 = double __attribute__((vector_size(16)));
  using mask2 = decltype(f64x2{} > f64x2{});  // two 64-bit lanes, all ones = true
  constexpr std::size_t kScanBlock = 16;
  const double* const v = values.data();
  const auto visit = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (v[i] > floor) fn(i);
    }
  };
  const f64x2 low = {floor, floor};
  std::size_t block = 0;
  for (; block + kScanBlock <= values.size(); block += kScanBlock) {
    mask2 hit = {0, 0};
    for (std::size_t i = 0; i < kScanBlock; i += 2) {
      f64x2 pair;
      std::memcpy(&pair, v + block + i, sizeof pair);
      hit |= pair > low;
    }
    if ((hit[0] | hit[1]) != 0) visit(block, block + kScanBlock);
  }
  visit(block, values.size());
}

/// Sets marks[i] = kCandidate for each candidate values[i]; returns how
/// many it marked.
std::uint64_t mark_candidates(std::span<const double> values, double threshold,
                              std::uint8_t* marks) noexcept {
  std::uint64_t count = 0;
  for_each_above(values, threshold, [&](std::size_t i) {
    if (values[i] < kInf) {
      marks[i] = kCandidate;
      ++count;
    }
  });
  return count;
}

void check_field(std::size_t n, std::span<const double> base) {
  if (base.size() != n * n * n) {
    throw std::invalid_argument("find_halos: base size does not match n^3");
  }
}

void check_patches(std::size_t total, std::span<const FieldPatch> patches) {
  std::size_t next_free = 0;
  for (const FieldPatch& p : patches) {
    if (p.first < next_free || p.first > total || p.values.size() > total - p.first) {
      throw std::invalid_argument("find_halos: patches overlap or leave the field");
    }
    next_free = p.first + p.values.size();
  }
}

/// The patch value of element `idx`, or null when no patch covers it.
const double* patched_value(std::span<const FieldPatch> patches, std::size_t idx) noexcept {
  const auto after =
      std::upper_bound(patches.begin(), patches.end(), idx,
                       [](std::size_t i, const FieldPatch& p) { return i < p.first; });
  if (after == patches.begin()) return nullptr;
  const FieldPatch& p = *std::prev(after);
  return idx - p.first < p.values.size() ? &p.values[idx - p.first] : nullptr;
}

/// The value of element `idx` of the patched field.
double value_at(std::span<const double> base, std::span<const FieldPatch> patches,
                std::size_t idx) noexcept {
  const double* patched = patched_value(patches, idx);
  return patched != nullptr ? *patched : base[idx];
}

/// Sets the mean and threshold from the field's long-double sum.
void set_mean(HaloCatalog& catalog, long double sum, std::size_t total,
              const HaloFinderConfig& config) noexcept {
  catalog.mean_density = static_cast<double>(sum / static_cast<long double>(total));
  catalog.threshold = config.threshold_factor * catalog.mean_density;
}

// Stack entries carry their coordinates, so a cell costs no index division,
// packed 21 bits each (a field of n^3 doubles with n >= 2^21 could not be
// allocated), so a component spanning the grid stacks 8 bytes per pending
// cell.
struct Cell {
  static constexpr unsigned kBits = 21;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::uint64_t packed;
  Cell(std::size_t x, std::size_t y, std::size_t z) noexcept
      : packed(x | y << kBits | static_cast<std::uint64_t>(z) << (2 * kBits)) {}
  [[nodiscard]] std::size_t x() const noexcept { return packed & kMask; }
  [[nodiscard]] std::size_t y() const noexcept { return packed >> kBits & kMask; }
  [[nodiscard]] std::size_t z() const noexcept { return packed >> (2 * kBits); }
};

/// Calls fn(nidx, nx, ny, nz) for each 6-neighbour inside the n^3 grid of
/// cell idx = (x, y, z), in the order -x, +x, -y, +y, -z, +z.
template <typename Fn>
void for_each_neighbour(std::size_t n, std::size_t idx, std::size_t x, std::size_t y,
                        std::size_t z, Fn&& fn) {
  const std::size_t plane = n * n;
  if (x > 0) fn(idx - 1, x - 1, y, z);
  if (x + 1 < n) fn(idx + 1, x + 1, y, z);
  if (y > 0) fn(idx - n, x, y - 1, z);
  if (y + 1 < n) fn(idx + n, x, y + 1, z);
  if (z > 0) fn(idx - plane, x, y, z - 1);
  if (z + 1 < n) fn(idx + plane, x, y, z + 1);
}

/// Grows the 6-connected component (friends-of-friends at linking length 1)
/// of `seed`, which the caller has already claimed: pops the stack's last
/// cell, then offers its neighbours in the order -x, +x, -y, +y, -z, +z to
/// claim(idx), which returns true for an unclaimed candidate and claims it.
/// on_cell(idx) sees each popped cell.  Returns the component's cell count
/// and centroid, whose coordinate sums are whole numbers below 2^53 and so
/// exact in any order; the caller sums the mass (index_order_mass).
template <typename Claim, typename OnCell>
Halo grow(std::size_t n, std::size_t seed, std::vector<Cell>& stack, Claim&& claim,
          OnCell&& on_cell) {
  const std::size_t plane = n * n;
  stack.assign(1, Cell(seed % n, seed / n % n, seed / plane));
  double sx = 0.0, sy = 0.0, sz = 0.0;
  std::uint64_t cells = 0;
  while (!stack.empty()) {
    const Cell top = stack.back();
    stack.pop_back();
    const std::size_t x = top.x(), y = top.y(), z = top.z();
    const std::size_t idx = (z * n + y) * n + x;
    sx += static_cast<double>(x);
    sy += static_cast<double>(y);
    sz += static_cast<double>(z);
    ++cells;
    on_cell(idx);

    for_each_neighbour(n, idx, x, y, z,
                       [&](std::size_t nidx, std::size_t nx, std::size_t ny, std::size_t nz) {
                         if (claim(nidx)) stack.emplace_back(nx, ny, nz);
                       });
  }

  Halo halo;
  halo.cells = cells;
  halo.cx = sx / static_cast<double>(cells);
  halo.cy = sy / static_cast<double>(cells);
  halo.cz = sz / static_cast<double>(cells);
  return halo;
}

/// A halo's mass: the values of its cells summed in double in ascending
/// index order, so that it depends only on the cells and their values, not
/// on the order any traversal visits them.  Orders `cells` (of a field of
/// `total` cells) by sorting, or through a bitmap of the field when the
/// component is dense in it.
template <typename ValueAt>
double index_order_mass(std::vector<std::size_t>& cells, std::size_t total, ValueAt&& value) {
  double mass = 0.0;
  if (cells.size() < total / 64) {
    std::sort(cells.begin(), cells.end());
    for (const std::size_t idx : cells) mass += value(idx);
    return mass;
  }
  std::vector<std::uint64_t> bits((total + 63) / 64, 0);
  for (const std::size_t idx : cells) bits[idx / 64] |= std::uint64_t{1} << (idx % 64);
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      mass += value(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  return mass;
}

/// Grows the components of the candidate set `cells` (ascending) over that
/// sparse set, each from its lowest unclaimed cell, as the full finder's
/// scan does over the same candidates.  Calls done(seed, halo, members) per
/// component, `members` holding its cells in growth order and `halo` its
/// count and centroid.
template <typename Done>
void grow_sparse(std::size_t n, std::span<const std::size_t> cells, Done&& done) {
  std::vector<std::uint8_t> claimed(cells.size(), 0);
  const auto claim = [&](std::size_t idx) {
    const auto at = std::lower_bound(cells.begin(), cells.end(), idx);
    if (at == cells.end() || *at != idx) return false;
    std::uint8_t& c = claimed[static_cast<std::size_t>(at - cells.begin())];
    if (c != 0) return false;
    c = 1;
    return true;
  };
  std::vector<Cell> stack;
  std::vector<std::size_t> members;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    if (claimed[k] != 0) continue;
    claimed[k] = 1;
    members.clear();
    const Halo halo =
        grow(n, cells[k], stack, claim, [&](std::size_t idx) { members.push_back(idx); });
    done(cells[k], halo, members);
  }
}

/// The catalog order: mass descending, then position.  Fed the halos in
/// seed order, std::sort gives one output for one input, ties included.
void sort_halos(std::vector<Halo>& halos) {
  std::sort(halos.begin(), halos.end(), [](const Halo& a, const Halo& b) {
    if (a.mass != b.mass) return a.mass > b.mass;
    if (a.cz != b.cz) return a.cz < b.cz;
    if (a.cy != b.cy) return a.cy < b.cy;
    return a.cx < b.cx;
  });
}

/// The full finder after the mean: one threshold scan marks the candidates,
/// then every component is grown from its lowest cell.
void scan_and_grow(std::size_t n, std::span<const double> base,
                   std::span<const FieldPatch> patches, const HaloFinderConfig& config,
                   HaloCatalog& catalog) {
  const double threshold = catalog.threshold;
  std::vector<std::uint8_t> state(base.size(), 0);
  for_each_piece(base, patches, [&](std::size_t first, std::span<const double> values) {
    catalog.candidate_cells += mark_candidates(values, threshold, state.data() + first);
  });
  // Each component grows from its lowest cell: memchr finds the next
  // unclaimed candidate, so a non-candidate cell costs a byte compare.  Each
  // candidate is pushed at most once, so the stack never reallocates.
  std::vector<Cell> stack;
  stack.reserve(static_cast<std::size_t>(catalog.candidate_cells));
  std::vector<std::size_t> members;
  const std::uint8_t* const state_begin = state.data();
  const auto claim = [&](std::size_t idx) {
    if (state[idx] != kCandidate) return false;
    state[idx] = kVisited;
    return true;
  };
  for (std::size_t start = 0; start < state.size(); ++start) {
    const void* seed = std::memchr(state_begin + start, kCandidate, state.size() - start);
    if (seed == nullptr) break;
    start = static_cast<std::size_t>(static_cast<const std::uint8_t*>(seed) - state_begin);
    state[start] = kVisited;
    members.clear();
    Halo halo = grow(n, start, stack, claim, [&](std::size_t idx) { members.push_back(idx); });
    if (halo.cells < config.min_cells) continue;
    halo.mass = index_order_mass(members, base.size(),
                                 [&](std::size_t idx) { return value_at(base, patches, idx); });
    catalog.halos.push_back(halo);
  }
  sort_halos(catalog.halos);
}

}  // namespace

HaloCatalog find_halos(std::size_t n, std::span<const double> base,
                       std::span<const FieldPatch> patches, const HaloFinderConfig& config) {
  check_field(n, base);
  check_patches(base.size(), patches);
  HaloCatalog catalog;
  long double sum = 0.0L;
  for_each_piece(base, patches, [&](std::size_t, std::span<const double> values) {
    sum = accumulate_density(sum, values);
  });
  set_mean(catalog, sum, base.size(), config);
  // A non-finite mean (overflowed or NaN-poisoned data) yields a threshold no
  // cell can satisfy; the catalog comes out empty, which the application
  // classifies as Detected ("no halo found").
  if (std::isfinite(catalog.threshold)) scan_and_grow(n, base, patches, config, catalog);
  return catalog;
}

HaloCatalog find_halos(const DensityField& field, const HaloFinderConfig& config) {
  return find_halos(field.n(), field.data(), {}, config);
}

// --- HaloIndex -----------------------------------------------------------------

namespace {

/// 2 ulp of the binade [2^E, 2^(E+1)) of `Sum` is 2^E times this.
template <typename Sum>
constexpr Sum kTwoUlpScale = [] {
  Sum scale = 1;
  for (int i = 2; i < std::numeric_limits<Sum>::digits; ++i) scale /= 2;
  return scale;
}();

/// Adds `values` onto `sum` left to right: accumulate_density in long
/// double, the same sequential fold in double.
template <typename Sum>
Sum accumulate(Sum sum, std::span<const double> values) noexcept {
  if constexpr (std::is_same_v<Sum, long double>) {
    return accumulate_density(sum, values);
  } else {
    for (const double v : values) sum += v;
    return sum;
  }
}

/// The binade 2^E a block can be carried in: its golden running sums go
/// from `start` to `end` inside [2^E, 2^(E+1)), whose 2 ulp is a normal
/// number, adding finite values >= 0, so they only grow.  0 when they do
/// not.
template <typename Sum>
Sum carry_binade(Sum start, Sum end, bool nonnegative) noexcept {
  if (!(start > 0) || !std::isfinite(end) || !nonnegative) return 0;
  const Sum low = std::ldexp(Sum{1}, std::ilogb(start));
  return end < 2 * low && std::isnormal(low * kTwoUlpScale<Sum>) ? low : Sum{0};
}

}  // namespace

HaloIndex::HaloIndex(std::size_t n, std::span<const double> base, const HaloFinderConfig& config)
    : n_(n), config_(config), band_floor_(kInf) {
  check_field(n, base);
  const std::size_t total = base.size();

  // The running sums at each block start, folded exactly as find_halos folds
  // the mean (long double) and a halo's mass (double), per block the binade
  // each can be carried in, and a bound on the block's largest value.
  const std::size_t blocks = (total + kBlock - 1) / kBlock;
  for (auto* table : {&density_.at, &density_.binade}) table->reserve(blocks + 1);
  for (auto* table : {&mass_.at, &mass_.binade}) table->reserve(blocks + 1);
  block_bound_.reserve(blocks);
  long double sum = 0.0L;
  double mass = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::span<const double> values =
        base.subspan(b * kBlock, std::min(kBlock, total - b * kBlock));
    density_.at.push_back(sum);
    mass_.at.push_back(mass);
    const long double start = sum;
    const double mass_start = mass;
    sum = accumulate_density(sum, values);
    mass = accumulate(mass, values);
    // A long-double sum of doubles cannot overflow, so it is finite exactly
    // when every value so far is.
    const bool nonnegative = std::isfinite(sum) && std::none_of(values.begin(), values.end(),
                                                                [](double v) { return v < 0.0; });
    nonnegative_ = nonnegative_ && nonnegative;
    // Values >= 0 only grow the sum, and each addition rounds by at most
    // half an ulp of the end sum, so they add up to at most the sum's growth
    // plus kBlock / 2 such ulps.  The bound adds 2 kBlock ulps, which also
    // covers its own rounding.
    const long double ulp =
        sum > 0.0L ? std::ldexp(1.0L, std::ilogb(sum) - std::numeric_limits<long double>::digits + 1)
                   : 0.0L;
    block_bound_.push_back(nonnegative ? (sum - start) + 2.0L * kBlock * ulp
                                       : std::numeric_limits<long double>::infinity());
    density_.binade.push_back(carry_binade(start, sum, nonnegative));
    mass_.binade.push_back(carry_binade(mass_start, mass, nonnegative));
  }
  density_.at.push_back(sum);
  mass_.at.push_back(mass);
  all_finite_ = std::isfinite(sum);
  set_mean(golden_, sum, total, config_);
  const double threshold = golden_.threshold;
  if (!std::isfinite(threshold)) return;
  if (!(threshold > 0.0)) {
    // No band lies below a threshold <= 0: the golden catalog comes from the
    // full finder's scan, and every patched field takes the spanning or the
    // full path.
    scan_and_grow(n, base, {}, config_, golden_);
    return;
  }

  // One scan sorts every cell above the band's floor into candidate or band.
  const double floor = threshold / 2.0;
  for_each_above(base, floor, [&](std::size_t i) {
    const double v = base[i];
    if (is_candidate(v, threshold)) {
      candidates_.push_back(i);
      rising_.push_back({v, i});
    } else if (v <= threshold) {
      band_.push_back({v, i});
    }
  });
  golden_.candidate_cells = candidates_.size();

  // The golden components, grown as find_halos grows them.
  members_.reserve(candidates_.size());
  component_of_.resize(candidates_.size());
  grow_sparse(n, candidates_,
              [&](std::size_t seed, Halo halo, std::vector<std::size_t>& members) {
                const std::size_t c = components_.size();
                const std::size_t first = members_.size();
                for (const std::size_t idx : members) {
                  members_.push_back(idx);
                  const auto at = std::lower_bound(candidates_.begin(), candidates_.end(), idx);
                  component_of_[static_cast<std::size_t>(at - candidates_.begin())] = c;
                }
                if (halo.cells >= config_.min_cells) {
                  halo.mass = index_order_mass(members, total,
                                               [&](std::size_t idx) { return base[idx]; });
                  halo_components_.push_back(c);
                  golden_.halos.push_back(halo);
                }
                components_.push_back({seed, first, halo});
              });
  sort_halos(golden_.halos);

  const auto by_value = [](const Ranked& a, const Ranked& b) {
    return a.value != b.value ? a.value < b.value : a.cell < b.cell;
  };
  std::sort(rising_.begin(), rising_.end(), by_value);
  std::sort(band_.begin(), band_.end(),
            [&](const Ranked& a, const Ranked& b) { return by_value(b, a); });
  band_floor_ = floor;
}

std::size_t HaloIndex::component_of(std::size_t cell) const {
  const auto at = std::lower_bound(candidates_.begin(), candidates_.end(), cell);
  return component_of_[static_cast<std::size_t>(at - candidates_.begin())];
}

template <typename Sum>
Sum HaloIndex::step_clean_block(const BlockSums<Sum>& sums, Sum sum, std::size_t b,
                                std::span<const double> base) const {
  // Absorption: a value below a quarter of the sum's ulp leaves a finite,
  // nonzero sum unchanged when added (half an ulp away is the nearest
  // neighbour toward zero, at a power of two), so a block of such values
  // does too.
  if (std::isfinite(sum) && sum != 0 &&
      block_bound_[b] <
          std::ldexp(1.0L, std::ilogb(sum) - std::numeric_limits<Sum>::digits - 1)) {
    return sum;
  }
  // Carry: the golden sums of the block stay in [low, 2 low), where adding
  // rounds to the grid of ulp u with ties to even multiples of u.  If the
  // faulty sum starts in that binade, differs from the golden one by d, a
  // multiple of 2u, and the golden end sum plus d is in the binade too, then
  // every exact intermediate sum, golden and faulty, lies in the binade (the
  // values are >= 0) and they differ by d.  Rounding on that grid commutes
  // with a shift by an even multiple of u, so each faulty partial sum is the
  // golden one plus d, and the block ends at the golden end sum + d exactly.
  const Sum low = sums.binade[b];
  if (low > 0 && low <= sum && sum < 2 * low) {
    const Sum d = sum - sums.at[b];  // exact: both lie in one binade
    const Sum steps = d / (low * kTwoUlpScale<Sum>);
    const Sum shifted = sums.at[b + 1] + d;
    if (steps == std::trunc(steps) && low <= shifted && shifted < 2 * low) return shifted;
  }
  const std::size_t first = b * kBlock;
  return accumulate(sum, base.subspan(first, std::min(kBlock, base.size() - first)));
}

template <typename Sum>
Sum HaloIndex::fold(const BlockSums<Sum>& sums, std::span<const double> base,
                    std::span<const FieldPatch> patches) const {
  if (patches.empty()) return sums.at.back();
  const std::size_t total = base.size();
  const auto block_end = [&](std::size_t i) {
    return std::min(total, (i + kBlock - 1) / kBlock * kBlock);
  };
  // The fold resumes at the block of the first patch.  `at` is the element
  // the running sum has reached; it is block-aligned except after the last
  // element.
  std::size_t at = patches.front().first / kBlock * kBlock;
  Sum running = sums.at[at / kBlock];
  std::size_t next = 0;  // the first patch not folded yet
  while (at < total) {
    if (next == patches.size()) {
      // Past the last patch every element is golden: once the sum equals the
      // golden running sum it ends equal to the golden total, and a NaN or
      // infinite sum stays what it is over finite values.
      if (running == sums.at[at / kBlock]) return sums.at.back();
      if (!std::isfinite(running) && all_finite_) return running;
    } else if (patches[next].first < at + kBlock) {
      // Fold explicitly from here to the end of the block holding the patch's
      // last element, through every patch that starts before that end.
      std::size_t end = at;
      do {
        const FieldPatch& p = patches[next++];
        running = accumulate(running, base.subspan(at, p.first - at));
        running = accumulate(running, p.values);
        at = p.first + p.values.size();
        end = std::max(end, block_end(std::max(at, p.first + 1)));
      } while (next < patches.size() && patches[next].first < end);
      running = accumulate(running, base.subspan(at, end - at));
      at = end;
      continue;
    }
    running = step_clean_block(sums, running, at / kBlock, base);
    at = std::min(total, at + kBlock);
  }
  return running;
}

long double HaloIndex::sum(std::span<const double> base,
                           std::span<const FieldPatch> patches) const {
  return fold(density_, base, patches);
}

HaloCatalog HaloIndex::find_halos(std::span<const double> base,
                                  std::span<const FieldPatch> patches) const {
  check_field(n_, base);
  check_patches(base.size(), patches);
  HaloCatalog catalog;
  set_mean(catalog, sum(base, patches), base.size(), config_);
  const double threshold = catalog.threshold;
  catalog.path = core::AnalysisPath::SplicedIncremental;
  if (!std::isfinite(threshold)) return catalog;  // no cell can be a candidate
  if (!(threshold >= band_floor_)) {
    // Cells below the band could flip.  When every golden cell is a
    // candidate (a mean driven negative), the patched ones decide the
    // components; otherwise take the full finder's scan.
    catalog.path = core::AnalysisPath::SplicedSpanning;
    if (threshold < 0.0 && nonnegative_ && find_spanning(base, patches, catalog)) return catalog;
    catalog.path = core::AnalysisPath::Spliced;
    scan_and_grow(n_, base, patches, config_, catalog);
    return catalog;
  }

  // Candidates under the new threshold.  An unpatched cell keeps its golden
  // status unless its value lies between the two thresholds: a golden
  // candidate at or below a raised threshold leaves, a band cell above a
  // lowered one joins.  A patched cell takes its status from its new value.
  // `count` first counts the golden values under the new threshold, then
  // trades each patched cell's golden value for its new one.
  const double golden_threshold = golden_.threshold;
  std::uint64_t count = golden_.candidate_cells;
  std::vector<std::size_t> joined;   // non-golden candidates that now are
  std::vector<std::size_t> touched;  // golden components to regrow
  const std::size_t n = n_;
  const auto touch_neighbours = [&](std::size_t idx) {
    for_each_neighbour(n, idx, idx % n, idx / n % n, idx / (n * n),
                       [&](std::size_t nidx, std::size_t, std::size_t, std::size_t) {
                         if (is_candidate(base[nidx], golden_threshold)) {
                           touched.push_back(component_of(nidx));
                         }
                       });
  };
  if (threshold > golden_threshold) {
    for (const Ranked& r : rising_) {
      if (r.value > threshold) break;
      --count;
      if (patched_value(patches, r.cell) == nullptr) touched.push_back(component_of(r.cell));
    }
  } else if (threshold < golden_threshold) {
    for (const Ranked& r : band_) {
      if (!(r.value > threshold)) break;
      ++count;
      if (patched_value(patches, r.cell) == nullptr) {
        joined.push_back(r.cell);
        touch_neighbours(r.cell);
      }
    }
  }
  for (const FieldPatch& p : patches) {
    for (std::size_t k = 0; k < p.values.size(); ++k) {
      const std::size_t idx = p.first + k;
      const double golden = base[idx];
      const bool was = is_candidate(golden, golden_threshold);
      const bool is = is_candidate(p.values[k], threshold);
      count += static_cast<std::uint64_t>(is);
      count -= static_cast<std::uint64_t>(is_candidate(golden, threshold));
      if (was) {
        touched.push_back(component_of(idx));
      } else if (is) {
        joined.push_back(idx);
        touch_neighbours(idx);
      }
    }
  }
  catalog.candidate_cells = count;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  if (touched.empty() && joined.empty()) {
    catalog.halos = golden_.halos;
    return catalog;
  }

  // A golden component that neither contains nor touches a changed cell is
  // still a whole component with the same cells and the same values, so its
  // halo (count, centroid and index-order mass) is the golden one bit for
  // bit.  The rest of the candidates — the surviving cells of the touched
  // components plus the joined cells — is closed under adjacency (a
  // neighbour in an untouched component would have touched it) and is
  // regrown here, each component from its lowest cell, over that sparse set.
  std::vector<std::size_t> dirty = std::move(joined);
  for (const std::size_t c : touched) {
    const std::size_t end =
        c + 1 < components_.size() ? components_[c + 1].first_member : members_.size();
    for (std::size_t m = components_[c].first_member; m < end; ++m) {
      if (is_candidate(value_at(base, patches, members_[m]), threshold)) {
        dirty.push_back(members_[m]);
      }
    }
  }
  std::sort(dirty.begin(), dirty.end());
  // Halos enter the sort in seed order, as the full finder pushes them, so
  // std::sort yields the same sequence.
  std::size_t golden_next = 0;  // into halo_components_
  const auto push_golden_before = [&](std::size_t seed) {
    for (; golden_next < halo_components_.size(); ++golden_next) {
      const std::size_t c = halo_components_[golden_next];
      if (components_[c].seed >= seed) break;
      if (!std::binary_search(touched.begin(), touched.end(), c)) {
        catalog.halos.push_back(components_[c].halo);
      }
    }
  };
  grow_sparse(n, dirty, [&](std::size_t seed, Halo halo, std::vector<std::size_t>& members) {
    if (halo.cells < config_.min_cells) return;
    halo.mass = index_order_mass(members, base.size(),
                                 [&](std::size_t idx) { return value_at(base, patches, idx); });
    push_golden_before(seed);
    catalog.halos.push_back(halo);
  });
  push_golden_before(base.size());
  sort_halos(catalog.halos);
  return catalog;
}

bool HaloIndex::find_spanning(std::span<const double> base, std::span<const FieldPatch> patches,
                              HaloCatalog& catalog) const {
  // Every golden cell is a candidate, so the non-candidates are the patched
  // cells whose new value fails the threshold: the holes.  With k holes and
  // k^3 < n^2, a component holds either at most k^1.5 (< n) cells or a whole
  // grid line, and all components holding a line are one:
  //  - If a component C holds no whole line, each line through C also holds
  //    a cell next to C that is not in C, a hole, so each of C's three
  //    projections onto a coordinate plane has at most k cells, and
  //    |C|^2 <= k^3 (Loomis-Whitney).
  //  - Two lines in different components would be joined by n disjoint
  //    grid paths, each needing a hole of its own; k < n.
  // The small components border holes, so bounded floods from the holes'
  // neighbours find them all; every other cell forms the spanning
  // component.
  const std::size_t n = n_, total = base.size();
  const double threshold = catalog.threshold;
  std::vector<std::size_t> holes;  // ascending, as the patches are
  for (const FieldPatch& p : patches) {
    for (std::size_t k = 0; k < p.values.size(); ++k) {
      if (is_candidate(p.values[k], threshold)) continue;
      holes.push_back(p.first + k);
      if (holes.size() * holes.size() * holes.size() >= n * n) return false;
    }
  }
  const std::size_t k = holes.size();
  std::size_t budget = 0;  // floor(k^1.5): no small component is larger
  while ((budget + 1) * (budget + 1) <= k * k * k) ++budget;
  const auto is_hole = [&](std::size_t idx) {
    return std::binary_search(holes.begin(), holes.end(), idx);
  };
  const auto value = [&](std::size_t idx) { return value_at(base, patches, idx); };

  std::vector<std::pair<std::size_t, Halo>> halos;  // with their seeds
  std::vector<std::size_t> enclosed;                // cells of the small components
  std::vector<std::size_t> flood;
  for (const std::size_t h : holes) {
    for_each_neighbour(n, h, h % n, h / n % n, h / (n * n),
                       [&](std::size_t start, std::size_t, std::size_t, std::size_t) {
      if (is_hole(start) || std::find(enclosed.begin(), enclosed.end(), start) != enclosed.end()) {
        return;
      }
      flood.assign(1, start);
      for (std::size_t next = 0; next < flood.size() && flood.size() <= budget; ++next) {
        const std::size_t idx = flood[next];
        for_each_neighbour(n, idx, idx % n, idx / n % n, idx / (n * n),
                           [&](std::size_t m, std::size_t, std::size_t, std::size_t) {
                             if (!is_hole(m) && std::find(flood.begin(), flood.end(), m) ==
                                                    flood.end()) {
                               flood.push_back(m);
                             }
                           });
      }
      if (flood.size() > budget) return;  // part of the spanning component
      enclosed.insert(enclosed.end(), flood.begin(), flood.end());
      if (flood.size() < config_.min_cells) return;
      const std::size_t seed = *std::min_element(flood.begin(), flood.end());
      Halo halo;
      double sx = 0.0, sy = 0.0, sz = 0.0;
      for (const std::size_t idx : flood) {
        sx += static_cast<double>(idx % n);
        sy += static_cast<double>(idx / n % n);
        sz += static_cast<double>(idx / (n * n));
      }
      halo.cells = flood.size();
      halo.cx = sx / static_cast<double>(halo.cells);
      halo.cy = sy / static_cast<double>(halo.cells);
      halo.cz = sz / static_cast<double>(halo.cells);
      halo.mass = index_order_mass(flood, total, value);
      halos.emplace_back(seed, halo);
    });
  }
  std::sort(enclosed.begin(), enclosed.end());
  catalog.candidate_cells = total - k;

  const std::size_t cells = total - k - enclosed.size();
  if (cells > 0 && cells >= config_.min_cells) {
    // Count and centroid: every cell's, less the holes and the enclosed
    // cells (whole numbers, exact).  Mass: the golden all-cells double fold
    // with the patched values spliced in and the holes and enclosed cells
    // spliced as +0.0, which leaves a running sum >= +0 unchanged.
    const std::uint64_t every = n * n * (n * (n - 1) / 2);  // one coordinate over the grid
    std::uint64_t sx = every, sy = every, sz = every;
    for (const auto* excluded : {&holes, &enclosed}) {
      for (const std::size_t idx : *excluded) {
        sx -= idx % n;
        sy -= idx / n % n;
        sz -= idx / (n * n);
      }
    }
    std::size_t patched = 0;
    for (const FieldPatch& p : patches) patched += p.values.size();
    std::vector<double> values;
    values.reserve(patched + enclosed.size());  // the spans below point into it
    std::vector<FieldPatch> spliced;
    std::size_t e = 0;  // the first enclosed cell not spliced yet
    const auto splice_enclosed_before = [&](std::size_t end) {
      for (; e < enclosed.size() && enclosed[e] < end; ++e) {
        values.push_back(0.0);
        spliced.push_back({enclosed[e], std::span<const double>(values).last(1)});
      }
    };
    for (const FieldPatch& p : patches) {
      splice_enclosed_before(p.first);
      const std::size_t from = values.size();
      for (std::size_t i = 0; i < p.values.size(); ++i) {
        const std::size_t idx = p.first + i;
        bool excluded = is_hole(idx);
        if (e < enclosed.size() && enclosed[e] == idx) {
          excluded = true;
          ++e;
        }
        values.push_back(excluded ? 0.0 : p.values[i]);
      }
      spliced.push_back({p.first, std::span<const double>(values).subspan(from)});
    }
    splice_enclosed_before(total);

    Halo halo;
    halo.cells = cells;
    halo.cx = static_cast<double>(sx) / static_cast<double>(cells);
    halo.cy = static_cast<double>(sy) / static_cast<double>(cells);
    halo.cz = static_cast<double>(sz) / static_cast<double>(cells);
    halo.mass = fold(mass_, base, spliced);
    std::size_t seed = 0;
    while (is_hole(seed) || std::binary_search(enclosed.begin(), enclosed.end(), seed)) ++seed;
    halos.emplace_back(seed, halo);
  }
  std::sort(halos.begin(), halos.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [seed, halo] : halos) catalog.halos.push_back(halo);
  sort_halos(catalog.halos);
  return true;
}

}  // namespace ffis::nyx
