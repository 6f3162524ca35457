#include "ffis/apps/qmc/scalar_io.hpp"

#include <cstdint>
#include <cstdio>
#include <span>

namespace ffis::qmc {

std::string scalar_header() {
  return "#          index     LocalEnergy        Variance          Weight\n";
}

std::string format_row(const ScalarRow& row) {
  char line[128];
  std::snprintf(line, sizeof line, "%16llu %15.8f %15.8f %15.4f\n",
                static_cast<unsigned long long>(row.index), row.local_energy,
                row.variance, row.weight);
  return line;
}

ScalarText render_scalar_file(const std::vector<ScalarRow>& rows,
                              const ScalarIoOptions& options) {
  ScalarText out;
  out.text = scalar_header();
  out.chunk_ends.push_back(out.text.size());
  for (const auto& row : rows) {
    out.text += format_row(row);
    if (out.text.size() - out.chunk_ends.back() >= options.flush_bytes) {
      out.chunk_ends.push_back(out.text.size());
    }
  }
  if (out.text.size() > out.chunk_ends.back()) out.chunk_ends.push_back(out.text.size());
  return out;
}

void write_scalar_text(vfs::FileSystem& fs, const std::string& path, const ScalarText& text) {
  vfs::File out(fs, path, vfs::OpenMode::Write);
  const auto bytes = std::as_bytes(std::span(text.text.data(), text.text.size()));
  std::uint64_t offset = 0;
  std::size_t begin = 0;
  for (const std::size_t end : text.chunk_ends) {
    offset += out.pwrite(bytes.subspan(begin, end - begin), offset);
    begin = end;
  }
}

}  // namespace ffis::qmc
