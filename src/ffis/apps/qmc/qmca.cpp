#include "ffis/apps/qmc/qmca.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>

namespace ffis::qmc {

namespace {

/// Offset of the header line's '\n'.  A destroyed header (e.g. its write
/// was dropped) aborts the tool chain: the first line must be a comment
/// naming the LocalEnergy column.
std::size_t check_header(std::string_view text) {
  const auto first_newline = text.find('\n');
  if (first_newline == std::string_view::npos) throw QmcaError("scalar file has no lines");
  const std::string_view header = text.substr(0, first_newline);
  if (header.empty() || header[0] != '#' || header.find("LocalEnergy") == std::string_view::npos) {
    throw QmcaError("scalar file header is missing or corrupted");
  }
  return first_newline;
}

enum class Row { kBlank, kSkipped, kEnergy };

/// What one data line contributes.  Blank and '#' lines carry nothing.
/// Columns are index, LocalEnergy, ...; a row without both (or with a
/// non-finite energy) is skipped and counted, genfromtxt-style.
Row parse_row(std::string_view line, std::string& scratch, double& energy) {
  if (line.empty() || line[0] == '#') return Row::kBlank;
  // strtod needs a NUL-terminated string that ends where the line does.
  scratch.assign(line);
  const char* cursor = scratch.c_str();
  char* after = nullptr;
  (void)std::strtod(cursor, &after);  // index column
  if (after == cursor) return Row::kSkipped;
  cursor = after;
  energy = std::strtod(cursor, &after);
  if (after == cursor || !std::isfinite(energy)) return Row::kSkipped;
  return Row::kEnergy;
}

/// Calls on_line(start, row, energy) for each '\n'-terminated line of
/// `text` that starts in [begin, stop); the last line may end at text's end.
template <class OnLine>
void for_each_line(std::string_view text, std::size_t begin, std::size_t stop,
                   OnLine&& on_line) {
  std::string scratch;
  std::size_t pos = begin;
  while (pos < stop) {
    auto end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    double energy = 0.0;
    const Row row = parse_row(text.substr(pos, end - pos), scratch, energy);
    on_line(pos, row, energy);
    pos = end + 1;
  }
}

QmcaResult summarize(const std::vector<double>& energies, std::size_t rows_skipped,
                     bool nul_bytes_found, const QmcaOptions& options) {
  if (energies.size() <= options.equilibration_rows) {
    throw QmcaError("scalar file has no post-equilibration rows (" +
                    std::to_string(energies.size()) + " total)");
  }
  QmcaResult result;
  result.rows_skipped = rows_skipped;
  result.nul_bytes_found = nul_bytes_found;

  double sum = 0.0, sum2 = 0.0;
  std::uint64_t n = 0;
  for (std::size_t i = options.equilibration_rows; i < energies.size(); ++i) {
    sum += energies[i];
    sum2 += energies[i] * energies[i];
    ++n;
  }
  result.rows_used = n;
  result.mean_energy = sum / static_cast<double>(n);
  const double variance =
      std::max(0.0, sum2 / static_cast<double>(n) - result.mean_energy * result.mean_energy);
  result.error_bar = std::sqrt(variance / static_cast<double>(n));
  return result;
}

}  // namespace

QmcaResult analyze_scalar_text(std::string_view text, const QmcaOptions& options) {
  const std::size_t header_end = check_header(text);

  // Binary garbage in a text series is detectable corruption: the numpy
  // tool chain refuses files with NUL bytes.  QMCA reports it (Detected)
  // rather than aborting.
  const bool nul = text.find('\0', header_end + 1) != std::string_view::npos;

  std::vector<double> energies;
  std::size_t skipped = 0;
  for_each_line(text, header_end + 1, text.size(), [&](std::size_t, Row row, double energy) {
    if (row == Row::kEnergy) energies.push_back(energy);
    if (row == Row::kSkipped) ++skipped;
  });
  return summarize(energies, skipped, nul, options);
}

std::optional<ScalarIndex> index_scalar_text(std::string text) {
  ScalarIndex index;
  index.text = std::move(text);
  const std::string_view view = index.text;
  try {
    index.header_end = check_header(view);
  } catch (const QmcaError&) {
    return std::nullopt;
  }
  if (view.find('\0') != std::string_view::npos) return std::nullopt;

  std::size_t skipped = 0;
  const auto mark = [&](std::size_t start) {
    index.line_starts.push_back(start);
    index.energies_before.push_back(index.energies.size());
    index.skipped_before.push_back(skipped);
  };
  for_each_line(view, index.header_end + 1, view.size(),
                [&](std::size_t start, Row row, double energy) {
                  mark(start);
                  if (row == Row::kEnergy) index.energies.push_back(energy);
                  if (row == Row::kSkipped) ++skipped;
                });
  mark(view.size());
  return index;
}

std::optional<QmcaResult> splice_scalar_text(const ScalarIndex& golden, std::string_view text,
                                             std::span<const vfs::ByteRange> dirty,
                                             const QmcaOptions& options) {
  const std::string_view base = golden.text;
  if (text.size() != base.size()) return std::nullopt;

  // Narrow the dirty ranges to the first and last byte that really differ.
  const auto clamp = [&](const vfs::ByteRange& r) {
    return std::pair{static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(r.offset, text.size())),
                     static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(r.end(), text.size()))};
  };
  std::size_t first = text.size();
  for (const vfs::ByteRange& r : dirty) {
    const auto [begin, end] = clamp(r);
    const auto hit = std::mismatch(text.begin() + begin, text.begin() + end, base.begin() + begin);
    if (hit.first != text.begin() + end) {
      first = static_cast<std::size_t>(hit.first - text.begin());
      break;
    }
  }
  if (first == text.size()) {
    return summarize(golden.energies, golden.skipped_before.back(), false, options);
  }
  if (first <= golden.header_end) return std::nullopt;
  std::size_t last = first;
  for (auto r = dirty.rbegin(); r != dirty.rend(); ++r) {
    const auto [begin, end] = clamp(*r);
    const auto stop = std::make_reverse_iterator(text.begin() + begin);
    const auto hit = std::mismatch(std::make_reverse_iterator(text.begin() + end), stop,
                                   std::make_reverse_iterator(base.begin() + end));
    if (hit.first != stop) {
      last = static_cast<std::size_t>(hit.first.base() - text.begin()) - 1;
      break;
    }
  }

  // Re-parse from the golden line holding `first` to the first '\n' after
  // `last`.  That '\n' is a golden byte too, so both series split into the
  // same lines outside the window (text[last] itself differs, so it cannot
  // end a line in both).
  const auto starts = golden.line_starts.begin();
  const auto lo = static_cast<std::size_t>(
      std::upper_bound(starts, golden.line_starts.end(), first) - starts - 1);
  const std::size_t newline = text.find('\n', last + 1);
  const std::size_t stop = newline == std::string_view::npos ? text.size() : newline + 1;
  const auto hi = static_cast<std::size_t>(
      std::lower_bound(starts, golden.line_starts.end(), stop) - starts);

  std::vector<double> energies;
  energies.reserve(golden.energies.size() + (hi - lo));
  const auto golden_energy = golden.energies.begin();
  energies.insert(energies.end(), golden_energy,
                  golden_energy + static_cast<std::ptrdiff_t>(golden.energies_before[lo]));
  std::size_t skipped = golden.skipped_before[lo];
  for_each_line(text, golden.line_starts[lo], stop, [&](std::size_t, Row row, double energy) {
    if (row == Row::kEnergy) energies.push_back(energy);
    if (row == Row::kSkipped) ++skipped;
  });
  energies.insert(energies.end(),
                  golden_energy + static_cast<std::ptrdiff_t>(golden.energies_before[hi]),
                  golden.energies.end());
  skipped += golden.skipped_before.back() - golden.skipped_before[hi];

  // The golden series holds no NUL, so only the changed bytes can.
  const bool nul = text.substr(first, last - first + 1).find('\0') != std::string_view::npos;
  return summarize(energies, skipped, nul, options);
}

}  // namespace ffis::qmc
