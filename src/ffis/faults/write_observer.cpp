#include "ffis/faults/write_observer.hpp"

#include <stdexcept>
#include <utility>

namespace ffis::faults {

bool is_synthesizable(const FaultSignature& signature) noexcept {
  if (signature.primitive != vfs::Primitive::Pwrite) return false;
  return signature.model == FaultModel::BitFlip ||
         (signature.model == FaultModel::ShornWrite && signature.shorn.tail != ShornTail::Stale);
}

std::uint32_t WriteObserver::intern(const std::string& normalized) {
  const auto [it, fresh] =
      ids_.try_emplace(normalized, static_cast<std::uint32_t>(out_.paths.size()));
  if (fresh) {
    out_.paths.push_back(normalized);
    live_.emplace_back();
  }
  return it->second;
}

std::uint32_t WriteObserver::file_of(vfs::FileHandle fh) const {
  const auto it = handles_.find(fh);
  return it == handles_.end() ? kUnknown : it->second;
}

void WriteObserver::observe(std::uint32_t file, std::uint64_t begin, std::uint64_t end) {
  if (file == kUnknown) {
    for (std::uint32_t f = 0; f < live_.size(); ++f) observe(f, 0, kEnd);
    return;
  }
  if (file == kOrphan || begin >= end) return;
  auto& live = live_[file];
  auto it = live.upper_bound(begin);
  if (it != live.begin() && std::prev(it)->second.end > begin) --it;
  while (it != live.end() && it->first < end) {
    out_.sites[it->second.instance].observed_in = stage_;
    it = live.erase(it);
  }
}

template <class F>
void WriteObserver::for_each_below(const std::string& root, F&& f) {
  // Collected first: f may intern paths, which would move the cursor.
  std::vector<std::pair<std::uint32_t, std::string>> hits;
  const std::string prefix = root == "/" ? root : root + "/";
  if (const auto it = ids_.find(root); it != ids_.end()) hits.emplace_back(it->second, root);
  for (auto it = ids_.lower_bound(prefix);
       it != ids_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    hits.emplace_back(it->second, it->first);
  }
  for (const auto& [id, path] : hits) f(id, path);
}

vfs::FileHandle WriteObserver::open(const std::string& path, vfs::OpenMode mode) {
  const vfs::FileHandle fh = PassthroughFs::open(path, mode);
  const std::uint32_t file = intern(vfs::normalize_path(path));
  if (mode == vfs::OpenMode::Write) observe(file, 0, kEnd);  // truncates
  handles_[fh] = file;
  return fh;
}

void WriteObserver::close(vfs::FileHandle fh) {
  PassthroughFs::close(fh);
  handles_.erase(fh);
}

std::size_t WriteObserver::pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                                 std::uint64_t offset) {
  const std::size_t got = PassthroughFs::pread(fh, buf, offset);
  observe(file_of(fh), offset, offset + buf.size());
  return got;
}

std::size_t WriteObserver::pwrite(vfs::FileHandle fh, util::ByteSpan buf,
                                  std::uint64_t offset) {
  const std::uint64_t instance = instrument_.executions();
  const std::size_t written = PassthroughFs::pwrite(fh, buf, offset);
  const std::uint32_t file = file_of(fh);
  observe(file, offset, offset + buf.size());
  if (instrument_.executions() == instance) return written;  // not counted
  if (instance != out_.sites.size()) {
    throw std::logic_error("WriteObserver: the instrument counts a primitive other than pwrite");
  }
  // A write into no path of the tree, or of no bytes, is never synthesized.
  const bool placed = file != kOrphan && file != kUnknown && !buf.empty();
  out_.sites.push_back(WriteSite{.file = placed ? file : 0,
                                 .offset = offset,
                                 .length = buf.size(),
                                 .observed_in = placed ? WriteSite::kUnobserved : 0});
  if (placed) live_[file].emplace(offset, Live{.end = offset + buf.size(), .instance = instance});
  return written;
}

void WriteObserver::truncate(const std::string& path, std::uint64_t size) {
  PassthroughFs::truncate(path, size);
  observe(intern(vfs::normalize_path(path)), size, kEnd);
}

void WriteObserver::ftruncate(vfs::FileHandle fh, std::uint64_t size) {
  PassthroughFs::ftruncate(fh, size);
  observe(file_of(fh), size, kEnd);
}

void WriteObserver::unlink(const std::string& path) {
  PassthroughFs::unlink(path);
  const std::uint32_t file = intern(vfs::normalize_path(path));
  observe(file, 0, kEnd);
  for (auto& [fh, f] : handles_) {
    if (f == file) f = kOrphan;
  }
}

void WriteObserver::rename(const std::string& from, const std::string& to) {
  PassthroughFs::rename(from, to);
  const std::string src = vfs::normalize_path(from);
  const std::string dst = vfs::normalize_path(to);
  if (src == dst) return;
  // Whatever the target replaced is gone: its sites are observed and its
  // open handles now write into no path of the tree.
  for_each_below(dst, [&](std::uint32_t id, const std::string&) {
    observe(id, 0, kEnd);
    for (auto& [fh, f] : handles_) {
      if (f == id) f = kOrphan;
    }
  });
  // The moved files' sites are observed; their open handles follow them.
  for_each_below(src, [&](std::uint32_t id, const std::string& path) {
    observe(id, 0, kEnd);
    const std::uint32_t moved = intern(dst + path.substr(src.size()));
    for (auto& [fh, f] : handles_) {
      if (f == id) f = moved;
    }
  });
}

}  // namespace ffis::faults
