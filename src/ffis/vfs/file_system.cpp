#include "ffis/vfs/file_system.hpp"

#include <algorithm>
#include <array>

namespace ffis::vfs {

namespace {
constexpr std::array<std::string_view, kPrimitiveCount> kNames = {
    "open",  "create", "close",  "pread", "pwrite", "mknod",  "chmod",
    "truncate", "unlink", "mkdir", "rename", "stat",  "readdir", "fsync",
};
}  // namespace

std::string_view primitive_name(Primitive p) noexcept {
  const auto idx = static_cast<std::size_t>(p);
  return idx < kNames.size() ? kNames[idx] : "?";
}

Primitive parse_primitive(std::string_view name) {
  // Accept both plain POSIX spellings and the paper's "FFIS_<op>" spellings.
  constexpr std::string_view kPrefix = "FFIS_";
  if (name.starts_with(kPrefix)) name.remove_prefix(kPrefix.size());
  if (name == "write") name = "pwrite";
  if (name == "read") name = "pread";
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (kNames[i] == name) return static_cast<Primitive>(i);
  }
  throw VfsError(VfsError::Code::InvalidArgument,
                 "unknown primitive name: " + std::string(name));
}

util::Bytes read_file(FileSystem& fs, const std::string& path) {
  const auto st = fs.stat(path);
  if (st.is_dir) throw VfsError(VfsError::Code::IsDirectory, path + " is a directory");
  util::Bytes data(st.size);
  File f(fs, path, OpenMode::Read);
  std::size_t got = 0;
  while (got < data.size()) {
    const std::size_t n = f.pread(util::MutableByteSpan(data).subspan(got), got);
    if (n == 0) break;  // concurrent truncation; return what we have
    got += n;
  }
  data.resize(got);
  return data;
}

void write_file(FileSystem& fs, const std::string& path, util::ByteSpan data) {
  File f(fs, path, OpenMode::Write);
  std::size_t put = 0;
  while (put < data.size()) {
    const std::size_t n = f.pwrite(data.subspan(put), put);
    if (n == 0) {
      throw VfsError(VfsError::Code::IoError, "short write to " + path);
    }
    put += n;
  }
}

bool pwrite_all(File& file, util::ByteSpan data, std::uint64_t offset,
                std::size_t slice_bytes) {
  const std::size_t step = slice_bytes == 0 ? data.size() : slice_bytes;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t n = std::min(step, data.size() - done);
    const std::size_t written = file.pwrite(data.subspan(done, n), offset + done);
    if (written == 0) return false;
    done += written;
  }
  return true;
}

std::string read_text_file(FileSystem& fs, const std::string& path) {
  return util::to_string(read_file(fs, path));
}

void write_text_file(FileSystem& fs, const std::string& path, std::string_view text) {
  write_file(fs, path, util::to_bytes(text));
}

std::string normalize_path(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    throw VfsError(VfsError::Code::InvalidArgument, "path must be absolute: " + path);
  }
  std::string out = path;
  // Collapse duplicate slashes and strip a trailing slash (except root).
  std::size_t w = 1;
  for (std::size_t r = 1; r < out.size(); ++r) {
    if (out[r] == '/' && out[w - 1] == '/') continue;
    out[w++] = out[r];
  }
  out.resize(w);
  if (out.size() > 1 && out.back() == '/') out.pop_back();
  return out;
}

std::string parent_path(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

void mkdirs(FileSystem& fs, const std::string& path) {
  if (path.empty() || path == "/") return;
  if (fs.exists(path)) return;
  mkdirs(fs, parent_path(path));
  fs.mkdir(path);
}

}  // namespace ffis::vfs
