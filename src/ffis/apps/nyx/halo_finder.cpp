#include "ffis/apps/nyx/halo_finder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>

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

// Per-cell state of the component growth.
constexpr std::uint8_t kCandidate = 1;
constexpr std::uint8_t kVisited = 2;

/// Sets marks[i] = kCandidate for each values[i] above `threshold` and below
/// +inf (NaN fails both comparisons); returns how many it marked.  Candidates
/// are rare, so blocks of 16 values are first tested two lanes at a time with
/// the GCC/Clang vector extension (SSE2 on x86-64, plain scalar code on a
/// target without vectors), and only a block with a hit is marked one by one
/// with the same comparisons.
std::uint64_t mark_candidates(std::span<const double> values, double threshold,
                              std::uint8_t* marks) noexcept {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using f64x2 = double __attribute__((vector_size(16)));
  using mask2 = decltype(f64x2{} > f64x2{});  // two 64-bit lanes, all ones = true
  constexpr std::size_t kBlock = 16;
  const double* const v = values.data();
  std::uint64_t count = 0;
  const auto mark = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (v[i] > threshold && v[i] < kInf) {
        marks[i] = kCandidate;
        ++count;
      }
    }
  };

  const f64x2 low = {threshold, threshold};
  const f64x2 high = {kInf, kInf};
  std::size_t block = 0;
  for (; block + kBlock <= values.size(); block += kBlock) {
    mask2 hit = {0, 0};
    for (std::size_t i = 0; i < kBlock; i += 2) {
      f64x2 pair;
      std::memcpy(&pair, v + block + i, sizeof pair);
      hit |= (pair > low) & (pair < high);
    }
    if ((hit[0] | hit[1]) != 0) mark(block, block + kBlock);
  }
  mark(block, values.size());
  return count;
}

}  // namespace

HaloCatalog find_halos(std::size_t n, std::span<const double> base,
                       std::span<const FieldPatch> patches, const HaloFinderConfig& config) {
  const std::size_t total = base.size();
  if (total != n * n * n) {
    throw std::invalid_argument("find_halos: base size does not match n^3");
  }
  std::size_t next_free = 0;
  for (const FieldPatch& p : patches) {
    if (p.first < next_free || p.first > total || p.values.size() > total - p.first) {
      throw std::invalid_argument("find_halos: patches overlap or leave the field");
    }
    next_free = p.first + p.values.size();
  }

  HaloCatalog catalog;
  long double sum = 0.0L;
  for_each_piece(base, patches, [&](std::size_t, std::span<const double> values) {
    sum = accumulate_density(sum, values);
  });
  catalog.mean_density = static_cast<double>(sum / static_cast<long double>(total));
  catalog.threshold = config.threshold_factor * catalog.mean_density;
  // A non-finite mean (overflowed or NaN-poisoned data) yields a threshold no
  // cell can satisfy; the catalog comes out empty, which the application
  // classifies as Detected ("no halo found").
  if (!std::isfinite(catalog.threshold)) return catalog;

  // One threshold scan marks the candidates: finite and above the threshold.
  const double threshold = catalog.threshold;
  std::vector<std::uint8_t> state(total, 0);
  for_each_piece(base, patches, [&](std::size_t first, std::span<const double> values) {
    catalog.candidate_cells += mark_candidates(values, threshold, state.data() + first);
  });

  const auto value_at = [&](std::size_t idx) {
    const auto after = std::upper_bound(
        patches.begin(), patches.end(), idx,
        [](std::size_t i, const FieldPatch& p) { return i < p.first; });
    if (after != patches.begin()) {
      const FieldPatch& p = *std::prev(after);
      if (idx - p.first < p.values.size()) return p.values[idx - p.first];
    }
    return base[idx];
  };

  // 6-connected component growth (friends-of-friends at linking length 1),
  // seeded from the unvisited candidates in ascending index order.  memchr
  // finds the next seed, so the non-candidate cells cost a byte compare each.
  // Stack entries carry their coordinates, so a cell costs no index division.
  struct Cell {
    std::uint32_t x, y, z;
  };
  const std::size_t plane = n * n;
  const std::uint8_t* const state_begin = state.data();
  // Each candidate is pushed at most once, so the stack never reallocates.
  std::vector<Cell> stack;
  stack.reserve(static_cast<std::size_t>(catalog.candidate_cells));
  for (std::size_t start = 0; start < total; ++start) {
    const void* seed = std::memchr(state_begin + start, kCandidate, total - start);
    if (seed == nullptr) break;
    start = static_cast<std::size_t>(static_cast<const std::uint8_t*>(seed) - state_begin);
    state[start] = kVisited;
    stack.assign(1, Cell{static_cast<std::uint32_t>(start % n),
                         static_cast<std::uint32_t>(start / n % n),
                         static_cast<std::uint32_t>(start / plane)});

    double sx = 0.0, sy = 0.0, sz = 0.0, mass = 0.0;
    std::uint64_t cells = 0;
    while (!stack.empty()) {
      const auto [x, y, z] = stack.back();
      stack.pop_back();
      const std::size_t idx = (z * n + y) * n + x;
      sx += static_cast<double>(x);
      sy += static_cast<double>(y);
      sz += static_cast<double>(z);
      mass += value_at(idx);
      ++cells;

      const auto visit = [&](std::size_t nidx, std::uint32_t nx, std::uint32_t ny,
                             std::uint32_t nz) {
        if (state[nidx] == kCandidate) {
          state[nidx] = kVisited;
          stack.push_back({nx, ny, nz});
        }
      };
      if (x > 0) visit(idx - 1, x - 1, y, z);
      if (x + 1 < n) visit(idx + 1, x + 1, y, z);
      if (y > 0) visit(idx - n, x, y - 1, z);
      if (y + 1 < n) visit(idx + n, x, y + 1, z);
      if (z > 0) visit(idx - plane, x, y, z - 1);
      if (z + 1 < n) visit(idx + plane, x, y, z + 1);
    }

    if (cells >= config.min_cells) {
      Halo halo;
      halo.cells = cells;
      halo.mass = mass;
      halo.cx = sx / static_cast<double>(cells);
      halo.cy = sy / static_cast<double>(cells);
      halo.cz = sz / static_cast<double>(cells);
      catalog.halos.push_back(halo);
    }
  }

  std::sort(catalog.halos.begin(), catalog.halos.end(), [](const Halo& a, const Halo& b) {
    if (a.mass != b.mass) return a.mass > b.mass;
    if (a.cz != b.cz) return a.cz < b.cz;
    if (a.cy != b.cy) return a.cy < b.cy;
    return a.cx < b.cx;
  });
  return catalog;
}

HaloCatalog find_halos(const DensityField& field, const HaloFinderConfig& config) {
  return find_halos(field.n(), field.data(), {}, config);
}

}  // namespace ffis::nyx
