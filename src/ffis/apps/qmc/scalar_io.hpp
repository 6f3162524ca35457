#pragma once
// scalar.dat serialization: QMCPACK's per-step text output.  Writes go
// through the VFS in flush-sized pwrite chunks so that injected faults land
// in realistic write granularities (header write + several data-buffer
// flushes per series).

#include <cstddef>
#include <string>
#include <vector>

#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::qmc {

struct ScalarIoOptions {
  std::size_t flush_bytes = 4096;  ///< buffered-writer flush threshold
};

/// Renders the canonical header line ("#   index   LocalEnergy ...").
[[nodiscard]] std::string scalar_header();

/// Renders one row exactly as the writer emits it.
[[nodiscard]] std::string format_row(const ScalarRow& row);

/// A series rendered once: the whole file text and where each pwrite ends.
struct ScalarText {
  std::string text;
  /// Exclusive end offset in `text` of each pwrite, in issue order: the
  /// header line first, then each flush-sized data chunk.
  std::vector<std::size_t> chunk_ends;
};

/// Renders header + rows, cut where a stdio-buffered fprintf loop flushes:
/// after the header, after each row that fills the buffer to
/// `flush_bytes`, and at the end.
[[nodiscard]] ScalarText render_scalar_file(const std::vector<ScalarRow>& rows,
                                            const ScalarIoOptions& options = {});

/// Writes `text` to `path`, one pwrite per chunk.  Each chunk lands at the
/// offset the previous pwrite's returned size advanced to, as a writer that
/// trusts the return value does.
void write_scalar_text(vfs::FileSystem& fs, const std::string& path, const ScalarText& text);

}  // namespace ffis::qmc
