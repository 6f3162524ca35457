#include "ffis/faults/write_observer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace ffis::faults {

bool is_synthesizable(const FaultSignature& signature) noexcept {
  if (signature.primitive != vfs::Primitive::Pwrite) return false;
  return signature.model == FaultModel::BitFlip ||
         (signature.model == FaultModel::ShornWrite && signature.shorn.tail != ShornTail::Stale);
}

std::optional<SectorSite> SectorSites::site(std::uint64_t instance) const {
  const auto it = std::upper_bound(
      writes.begin(), writes.end(), instance,
      [](std::uint64_t k, const SectorWrite& w) { return k < w.first_instance; });
  if (it == writes.begin()) return std::nullopt;
  const SectorWrite& w = *std::prev(it);
  const std::uint64_t sb = sector_bytes;
  const std::uint64_t first = w.offset / sb;
  const std::uint64_t sector = first + (instance - w.first_instance);
  if (!w.placed || sector > (w.offset + w.length - 1) / sb) return std::nullopt;
  SectorSite site;
  site.file = w.file;
  site.sector = sector;
  site.write_begin = w.offset;
  site.write_end = w.offset + w.length;
  site.slice_begin = std::max(w.offset, sector * sb);
  site.slice_end = std::min(site.write_end, (sector + 1) * sb);
  site.size_after = std::max(w.size_before, site.write_end);
  site.hole = site.slice_begin >= w.size_before;
  site.clock = w.clock;
  return site;
}

bool SectorSites::observed_after(std::uint32_t file, std::uint64_t sector,
                                 std::uint64_t clock) const {
  const SectorTimeline& t = files.at(file);
  if (sector < t.last.size() && t.last[sector] > clock) return true;
  const std::uint64_t end = (sector + 1) * sector_bytes;
  return std::any_of(t.cuts.begin(), t.cuts.end(), [&](const auto& cut) {
    return cut.first > clock && cut.second < end;
  });
}

bool SectorSites::owned_at(std::uint32_t file, std::uint64_t extent,
                           std::uint64_t clock) const {
  const auto& owned = files.at(file).owned;
  return std::any_of(owned.begin(), owned.end(), [&](const SectorTimeline::Owned& span) {
    return span.extent == extent && span.from <= clock && clock < span.until;
  });
}

std::uint32_t WriteObserver::intern(const std::string& normalized) {
  const auto [it, fresh] =
      ids_.try_emplace(normalized, static_cast<std::uint32_t>(out_.paths.size()));
  if (fresh) {
    out_.paths.push_back(normalized);
    live_.emplace_back();
    if (device_ != nullptr) {
      out_.sectors.files.emplace_back();
      open_owned_.emplace_back();
    }
  }
  return it->second;
}

std::uint32_t WriteObserver::file_of(vfs::FileHandle fh) const {
  const auto it = handles_.find(fh);
  return it == handles_.end() ? kUnknown : it->second;
}

void WriteObserver::observe(std::uint32_t file, std::uint64_t begin, std::uint64_t end) {
  if (device_ != nullptr) {
    observe_sectors(file, begin, end);
    return;
  }
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

void WriteObserver::observe_sectors(std::uint32_t file, std::uint64_t begin,
                                    std::uint64_t end) {
  const std::uint64_t now = ++clock_;
  auto& files = out_.sectors.files;
  // A cut drops every extent that starts at or past it.
  const auto cut = [&](std::uint32_t f, std::uint64_t from) {
    files[f].cuts.emplace_back(now, from);
    auto& open = open_owned_[f];
    for (std::uint64_t e = (from + out_.sectors.extent_bytes - 1) / out_.sectors.extent_bytes;
         e < open.size(); ++e) {
      if (open[e] != 0) files[f].owned[open[e] - 1].until = now;
      open[e] = 0;
    }
  };
  if (file == kUnknown) {
    for (std::uint32_t f = 0; f < files.size(); ++f) cut(f, 0);
    return;
  }
  if (file == kOrphan || begin >= end) return;
  SectorTimeline& t = files[file];
  const std::uint64_t sb = out_.sectors.sector_bytes;
  const std::uint64_t last = (end - 1) / sb;
  if (end == kEnd || last >= kMaxStampedSectors) {
    cut(file, begin);  // no bound, or too far out to stamp: observes all past `begin`
    return;
  }
  if (t.last.size() <= last) {
    // Powers of two from 4096 sectors: growing a few sectors per write would
    // leave a trail of freed buffers among the pass's extents.
    if (t.last.capacity() <= last) {
      t.last.reserve(std::bit_ceil(std::max<std::uint64_t>(last + 1, 4096)));
    }
    t.last.resize(last + 1);
  }
  std::fill(t.last.begin() + static_cast<std::ptrdiff_t>(begin / sb),
            t.last.begin() + static_cast<std::ptrdiff_t>(last + 1), now);
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
  if (device_ != nullptr) return pwrite_sectors(fh, buf, offset);
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

std::size_t WriteObserver::pwrite_sectors(vfs::FileHandle fh, util::ByteSpan buf,
                                          std::uint64_t offset) {
  const std::uint32_t file = file_of(fh);
  const bool placed = file != kOrphan && file != kUnknown && !buf.empty();
  const std::uint64_t size_before = placed ? PassthroughFs::stat(out_.paths[file]).size : 0;
  const std::uint64_t first = device_->sector_writes();
  const std::size_t written = PassthroughFs::pwrite(fh, buf, offset);
  observe(file, offset, offset + buf.size());
  // Extent ownership serves synthesis, which needs whole sectors per extent;
  // a write too far out to stamp owns nothing (the conservative answer).
  const std::uint64_t eb = out_.sectors.extent_bytes;
  const std::uint64_t sb = out_.sectors.sector_bytes;
  if (placed && eb % sb == 0 && (offset + buf.size() - 1) / sb < kMaxStampedSectors) {
    auto& owned = out_.sectors.files[file].owned;
    auto& open = open_owned_[file];
    const std::uint64_t last_extent = (offset + buf.size() - 1) / eb;
    if (open.size() <= last_extent) open.resize(last_extent + 1);
    for (std::uint64_t e = offset / eb; e <= last_extent; ++e) {
      if (open[e] != 0) continue;
      owned.push_back({.extent = e, .from = clock_, .until = kEnd});
      open[e] = owned.size();
    }
  }
  if (device_->sector_writes() == first) return written;  // not counted
  out_.sectors.writes.push_back(SectorWrite{.file = placed ? file : 0,
                                   .placed = placed,
                                   .offset = offset,
                                   .length = buf.size(),
                                   .size_before = size_before,
                                   .first_instance = first,
                                   .clock = clock_});
  return written;
}

vfs::FileStat WriteObserver::stat(const std::string& path) {
  const vfs::FileStat st = PassthroughFs::stat(path);
  if (device_ != nullptr && !st.is_dir && st.size > 0) {
    observe(intern(vfs::normalize_path(path)), st.size - 1, st.size);
  }
  return st;
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
