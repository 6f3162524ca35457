#pragma once
// QMCA-style post-analysis: parses a scalar.dat series, discards the
// configured equilibration prefix and reports the mean LocalEnergy with an
// error bar.
//
// Failure semantics mirror the numpy-based QMCA tool chain:
//  * a missing/mangled header is unrecoverable and throws (Crash);
//  * NUL bytes in the series (a dropped write's zero-filled hole) are
//    flagged as detected corruption — binary garbage in a text file;
//  * individual unparseable rows are skipped and counted.

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/vfs/fs_diff.hpp"

namespace ffis::qmc {

class QmcaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct QmcaOptions {
  std::uint64_t equilibration_rows = 100;  ///< discarded prefix
};

struct QmcaResult {
  double mean_energy = 0.0;
  double error_bar = 0.0;      ///< naive standard error of the mean
  std::uint64_t rows_used = 0;
  std::uint64_t rows_skipped = 0;  ///< unparseable rows (counted, ignored)
  bool nul_bytes_found = false;    ///< binary garbage flagged as corruption
};

/// Analyzes the text content of a scalar.dat file.  Throws QmcaError when
/// the header is unusable or no data rows survive.
[[nodiscard]] QmcaResult analyze_scalar_text(std::string_view text,
                                             const QmcaOptions& options = {});

/// A parsed series indexed by data line (every line after the header), so
/// a later copy of it that differs in a few bytes can be re-analyzed by
/// parsing only the lines holding those bytes.
struct ScalarIndex {
  std::string text;                      ///< the series bytes
  std::size_t header_end = 0;            ///< offset of the header line's '\n'
  std::vector<std::size_t> line_starts;  ///< data line starts, then text.size()
  std::vector<double> energies;          ///< parsed energies, in file order
  /// Per entry of line_starts: energies and skipped rows in the lines before.
  std::vector<std::size_t> energies_before;
  std::vector<std::size_t> skipped_before;
};

/// Indexes `text`.  Returns nullopt when it cannot anchor a splice: its
/// header is unusable (analyze_scalar_text throws) or it holds a NUL byte.
[[nodiscard]] std::optional<ScalarIndex> index_scalar_text(std::string text);

/// analyze_scalar_text(text, options), bit for bit, thrown errors included,
/// from `golden` plus a parse of only the lines that changed.  `dirty` must
/// cover every byte where `text` differs from golden.text, in ascending
/// order (vfs::FileDiff::ranges).  The sum still runs over every energy in
/// file order; only the parse is spliced.  Returns nullopt when the splice
/// cannot prove equivalence — a size change or a changed byte inside the
/// header line — and the caller must run the full parse.
[[nodiscard]] std::optional<QmcaResult> splice_scalar_text(
    const ScalarIndex& golden, std::string_view text, std::span<const vfs::ByteRange> dirty,
    const QmcaOptions& options = {});

}  // namespace ffis::qmc
