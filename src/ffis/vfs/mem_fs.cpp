#include "ffis/vfs/mem_fs.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "ffis/vfs/block_device.hpp"

namespace ffis::vfs {

MemFs::MemFs(Options options)
    : locking_(options.concurrency == Concurrency::MultiThread),
      chunk_size_(options.chunk_size),
      arena_(std::move(options.arena)) {
  // Deliberately pre-empts ExtentStore's own std::invalid_argument checks so
  // VFS misuse surfaces in the VFS error domain.
  if (chunk_size_ == 0 || chunk_size_ > std::numeric_limits<std::uint32_t>::max()) {
    throw VfsError(VfsError::Code::InvalidArgument,
                   "MemFs chunk_size must be > 0 and fit the 32-bit extent handle");
  }
  auto root = std::make_shared<Node>(chunk_size_);
  root->is_dir = true;
  root->mode = 0755;
  nodes_.emplace("/", std::move(root));
}

MemFs::MemFs(ForkTag, const MemFs& parent, Concurrency mode, std::shared_ptr<ExtentArena> arena)
    : locking_(mode == Concurrency::MultiThread),
      chunk_size_(parent.chunk_size_),
      arena_(std::move(arena)) {
  Guard lock(parent.maybe_mutex());
  for (const auto& [path, node] : parent.nodes_) {
    // A fresh Node per path isolates metadata and the extent table; the
    // extents themselves are shared until a writer detaches them.
    nodes_.emplace(path, std::make_shared<Node>(*node));
  }
}

MemFs MemFs::fork(Concurrency mode, std::shared_ptr<ExtentArena> arena) const {
  return MemFs(ForkTag{}, *this, mode, std::move(arena));
}

std::unique_ptr<MemFs> MemFs::fork_unique(Concurrency mode,
                                          std::shared_ptr<ExtentArena> arena) const {
  return std::unique_ptr<MemFs>(new MemFs(ForkTag{}, *this, mode, std::move(arena)));
}

void MemFs::reset_from(const MemFs& base) {
  Guard lock(base.maybe_mutex());  // *this is owned exclusively by the caller
  chunk_size_ = base.chunk_size_;
  handles_.clear();
  stats_ = FsStats{};
  media_.reset();  // a block device is strictly per-run state
  // Merge-walk both sorted node tables: copy-assign into Nodes whose path
  // survives (reuses the Node allocation and the map node), create the
  // missing, erase the stale.  In steady state — resetting repeatedly from
  // the same checkpoint — every path matches and this allocates nothing.
  auto it = nodes_.begin();
  auto from = base.nodes_.begin();
  while (from != base.nodes_.end()) {
    const int order = it == nodes_.end() ? 1 : it->first.compare(from->first);
    if (order == 0) {
      *it->second = *from->second;  // shares extents COW, like fork()
      ++it;
      ++from;
    } else if (order < 0) {
      it = nodes_.erase(it);
    } else {
      it = std::next(nodes_.emplace_hint(it, from->first, std::make_shared<Node>(*from->second)));
      ++from;
    }
  }
  nodes_.erase(it, nodes_.end());
}

void MemFs::drop_payloads() {
  Guard lock(maybe_mutex());
  handles_.clear();
  media_.reset();  // a block device is strictly per-run state
  for (auto& [path, node] : nodes_) node->data.clear();
}

void MemFs::set_media(std::shared_ptr<BlockDevice> device) {
  Guard lock(maybe_mutex());
  media_ = std::move(device);
}


MemFs::Node& MemFs::node_at(const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, "no such file: " + path);
  return *it->second;
}

MemFs::OpenFile& MemFs::handle_at(FileHandle fh, const char* op) {
  if (fh < 0 || static_cast<std::size_t>(fh) >= handles_.size() || !handles_[fh].open) {
    throw VfsError(VfsError::Code::BadHandle, std::string(op) + ": bad handle");
  }
  return handles_[fh];
}

void MemFs::check_parent(const std::string& path) const {
  const std::string parent = parent_path(path);
  auto it = nodes_.find(parent);
  if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, "no such directory: " + parent);
  if (!it->second->is_dir) throw VfsError(VfsError::Code::NotDirectory, parent + " is not a directory");
}

FileHandle MemFs::open(const std::string& raw_path, OpenMode mode) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  auto it = nodes_.find(path);
  if (mode == OpenMode::Read) {
    if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, "no such file: " + path);
    if (it->second->is_dir) throw VfsError(VfsError::Code::IsDirectory, path + " is a directory");
  } else {
    if (it != nodes_.end() && it->second->is_dir) {
      throw VfsError(VfsError::Code::IsDirectory, path + " is a directory");
    }
    check_parent(path);
    if (it == nodes_.end()) {
      it = nodes_.emplace(path, std::make_shared<Node>(chunk_size_)).first;
    } else if (mode == OpenMode::Write) {
      it->second->data.clear();  // truncate; dropping the extent refs is COW-free
      if (media_ != nullptr && media_->has_faulted_sectors()) {
        media_->on_truncate(it->second.get(), it->second->data, stats_);
      }
    }
  }
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (!handles_[i].open) {
      handles_[i] = OpenFile{it->second, mode, true};
      return static_cast<FileHandle>(i);
    }
  }
  handles_.push_back(OpenFile{it->second, mode, true});
  return static_cast<FileHandle>(handles_.size() - 1);
}

void MemFs::close(FileHandle fh) {
  Guard lock(maybe_mutex());
  OpenFile& of = handle_at(fh, "close");
  of.open = false;
  of.node.reset();  // release the node (it may be unlinked)
}

std::size_t MemFs::pread(FileHandle fh, util::MutableByteSpan buf, std::uint64_t offset) {
  Guard lock(maybe_mutex());
  const OpenFile& of = handle_at(fh, "pread");
  const std::size_t n = of.node->data.read(offset, buf);
  ++stats_.pread_calls;
  stats_.bytes_read += n;
  // Scrub-on-read: verify registered sector CRCs under the returned range.
  // has_faulted_sectors() keeps the clean fast path to one branch.
  if (media_ != nullptr && media_->has_faulted_sectors() && n > 0) {
    media_->check_read(of.node.get(), of.node->data, offset, n, stats_);
  }
  return n;
}

std::size_t MemFs::pwrite(FileHandle fh, util::ByteSpan buf, std::uint64_t offset) {
  Guard lock(maybe_mutex());
  OpenFile& of = handle_at(fh, "pwrite");
  if (of.mode == OpenMode::Read) {
    throw VfsError(VfsError::Code::InvalidArgument, "pwrite on read-only handle");
  }
  if (media_ != nullptr) {
    // Beneath the write path: the device may deviate at one sector (an armed
    // media fault), invisibly to FaultingFs and every other decorator above.
    media_->apply_write(of.node, of.node->data, offset, buf, stats_, arena_.get());
  } else {
    of.node->data.write(offset, buf, stats_, arena_.get());
  }
  return buf.size();
}

void MemFs::mknod(const std::string& raw_path, std::uint32_t mode) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  if (nodes_.contains(path)) throw VfsError(VfsError::Code::AlreadyExists, path + " exists");
  check_parent(path);
  auto node = std::make_shared<Node>(chunk_size_);
  node->mode = mode;
  nodes_.emplace(path, std::move(node));
}

void MemFs::chmod(const std::string& raw_path, std::uint32_t mode) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  node_at(path).mode = mode;
}

void MemFs::truncate(const std::string& raw_path, std::uint64_t size) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  Node& node = node_at(path);
  if (node.is_dir) throw VfsError(VfsError::Code::IsDirectory, path + " is a directory");
  node.data.resize(size, stats_, arena_.get());
  if (media_ != nullptr && media_->has_faulted_sectors()) {
    media_->on_truncate(&node, node.data, stats_);
  }
}

void MemFs::ftruncate(FileHandle fh, std::uint64_t size) {
  Guard lock(maybe_mutex());
  OpenFile& of = handle_at(fh, "ftruncate");
  if (of.mode == OpenMode::Read) {
    throw VfsError(VfsError::Code::InvalidArgument, "ftruncate on read-only handle");
  }
  of.node->data.resize(size, stats_, arena_.get());
  if (media_ != nullptr && media_->has_faulted_sectors()) {
    media_->on_truncate(of.node.get(), of.node->data, stats_);
  }
}

void MemFs::unlink(const std::string& raw_path) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  auto it = nodes_.find(path);
  if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, "no such file: " + path);
  if (it->second->is_dir) throw VfsError(VfsError::Code::IsDirectory, path + " is a directory");
  nodes_.erase(it);  // open handles keep the node alive (POSIX semantics)
}

void MemFs::mkdir(const std::string& raw_path) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  if (nodes_.contains(path)) throw VfsError(VfsError::Code::AlreadyExists, path + " exists");
  check_parent(path);
  auto node = std::make_shared<Node>(chunk_size_);  // dirs never store payload
  node->is_dir = true;
  node->mode = 0755;
  nodes_.emplace(path, std::move(node));
}

void MemFs::rename(const std::string& raw_from, const std::string& raw_to) {
  const std::string from = normalize_path(raw_from);
  const std::string to = normalize_path(raw_to);
  Guard lock(maybe_mutex());
  auto from_it = nodes_.find(from);
  if (from_it == nodes_.end()) {
    throw VfsError(VfsError::Code::NotFound, "no such file: " + from);
  }
  if (to == from) return;  // POSIX: renaming onto itself succeeds
  const bool from_is_dir = from_it->second->is_dir;
  const std::string from_prefix = from + "/";
  if (from_is_dir && to.compare(0, from_prefix.size(), from_prefix) == 0) {
    throw VfsError(VfsError::Code::InvalidArgument,
                   "cannot rename " + from + " into its own subtree " + to);
  }
  check_parent(to);
  auto to_it = nodes_.find(to);
  if (to_it != nodes_.end()) {
    const bool to_is_dir = to_it->second->is_dir;
    if (to_is_dir && !from_is_dir) {
      throw VfsError(VfsError::Code::IsDirectory, to + " is a directory");
    }
    if (!to_is_dir && from_is_dir) {
      throw VfsError(VfsError::Code::NotDirectory, to + " is not a directory");
    }
    if (to_is_dir) {
      // Only an *empty* directory may be replaced (POSIX ENOTEMPTY).
      const std::string to_prefix = to + "/";
      const auto child = nodes_.lower_bound(to_prefix);
      if (child != nodes_.end() &&
          child->first.compare(0, to_prefix.size(), to_prefix) == 0) {
        throw VfsError(VfsError::Code::AlreadyExists,
                       to + " is a non-empty directory");
      }
    }
  }

  if (from_is_dir) {
    // Move the whole subtree: re-key every descendant of `from`.  Collect
    // first — erasing while iterating a prefix range invalidates it.
    std::vector<std::map<std::string, std::shared_ptr<Node>>::node_type> moved;
    for (auto it = nodes_.lower_bound(from_prefix);
         it != nodes_.end() && it->first.compare(0, from_prefix.size(), from_prefix) == 0;) {
      auto next = std::next(it);
      moved.push_back(nodes_.extract(it));
      it = next;
    }
    for (auto& entry : moved) {
      entry.key() = to + "/" + entry.key().substr(from_prefix.size());
      nodes_.insert(std::move(entry));
    }
  }

  std::shared_ptr<Node> node = std::move(from_it->second);
  nodes_.erase(from_it);
  nodes_.insert_or_assign(to, std::move(node));
}

FileStat MemFs::stat(const std::string& raw_path) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  const Node& node = node_at(path);
  return FileStat{node.data.size(), node.mode, node.is_dir};
}

bool MemFs::exists(const std::string& raw_path) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  return nodes_.contains(path);
}

std::vector<std::string> MemFs::readdir(const std::string& raw_path) {
  const std::string path = normalize_path(raw_path);
  Guard lock(maybe_mutex());
  const Node& node = node_at(path);
  if (!node.is_dir) throw VfsError(VfsError::Code::NotDirectory, path + " is not a directory");
  std::vector<std::string> names;
  const std::string prefix = (path == "/") ? "/" : path + "/";
  for (auto it = nodes_.lower_bound(prefix); it != nodes_.end(); ++it) {
    const std::string& p = it->first;
    if (p.compare(0, prefix.size(), prefix) != 0) break;
    const std::string rest = p.substr(prefix.size());
    if (!rest.empty() && rest.find('/') == std::string::npos) names.push_back(rest);
  }
  return names;  // map iteration order is already sorted
}

void MemFs::fsync(FileHandle fh) {
  Guard lock(maybe_mutex());
  (void)handle_at(fh, "fsync");
}

std::uint64_t MemFs::total_bytes() const {
  Guard lock(maybe_mutex());
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) total += node->data.size();
  return total;
}

std::uint64_t MemFs::stored_bytes() const {
  Guard lock(maybe_mutex());
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) total += node->data.stored_bytes();
  return total;
}

std::uint64_t MemFs::cow_shared_bytes() const {
  Guard lock(maybe_mutex());
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) total += node->data.shared_bytes();
  return total;
}

std::uint64_t MemFs::allocated_chunks() const {
  Guard lock(maybe_mutex());
  std::uint64_t total = 0;
  for (const auto& [path, node] : nodes_) total += node->data.allocated_chunks();
  return total;
}

FsStats MemFs::stats() const {
  Guard lock(maybe_mutex());
  return stats_;
}

FsDiff MemFs::diff_tree(const MemFs& base) const {
  // Deadlock-free dual lock: collect whichever mutexes exist (SingleThread
  // instances have none) and take them via std::lock's ordering protocol.
  std::mutex* a = maybe_mutex();
  std::mutex* b = this != &base ? base.maybe_mutex() : nullptr;
  std::unique_lock<std::mutex> la, lb;
  if (a != nullptr) la = std::unique_lock(*a, std::defer_lock);
  if (b != nullptr) lb = std::unique_lock(*b, std::defer_lock);
  if (a != nullptr && b != nullptr) {
    std::lock(la, lb);
  } else if (a != nullptr) {
    la.lock();
  } else if (b != nullptr) {
    lb.lock();
  }

  FsDiff out;
  auto it = nodes_.begin();
  auto base_it = base.nodes_.begin();
  while (it != nodes_.end() || base_it != base.nodes_.end()) {
    const int order = it == nodes_.end()         ? 1
                      : base_it == base.nodes_.end() ? -1
                      : it->first.compare(base_it->first);
    if (order < 0) {
      out.created.push_back(it->first);
      ++it;
      continue;
    }
    if (order > 0) {
      out.deleted.push_back(base_it->first);
      ++base_it;
      continue;
    }
    const Node& mine = *it->second;
    const Node& theirs = *base_it->second;
    FileDiff fd;
    fd.path = it->first;
    fd.metadata_changed = mine.mode != theirs.mode || mine.is_dir != theirs.is_dir;
    if (mine.is_dir != theirs.is_dir) {
      // A path that changed kind is wholly dirty: whichever side is the
      // regular file contributes its full span.
      const ExtentStore& file_side = mine.is_dir ? theirs.data : mine.data;
      if (file_side.size() > 0) fd.ranges.push_back(ByteRange{0, file_side.size()});
      fd.base_size = theirs.is_dir ? 0 : theirs.data.size();
      fd.size = mine.is_dir ? 0 : mine.data.size();
    } else if (!mine.is_dir) {
      if (mine.data.chunk_size() != theirs.data.chunk_size()) {
        throw VfsError(VfsError::Code::InvalidArgument,
                       "diff_tree: " + fd.path + " has chunk size " +
                           std::to_string(mine.data.chunk_size()) + " vs " +
                           std::to_string(theirs.data.chunk_size()) +
                           " in the base tree; extent diffs require identical geometry");
      }
      fd.ranges = mine.data.diff(theirs.data);
      fd.base_size = theirs.data.size();
      fd.size = mine.data.size();
    }
    if (!fd.ranges.empty() || fd.metadata_changed) out.changed.push_back(std::move(fd));
    ++it;
    ++base_it;
  }

  // Rename detection: a deleted/created file pair whose extents are
  // pointer-identical moved, it did not change.  Greedy first-match over the
  // (typically tiny) created/deleted lists; empty files are left as
  // create+delete since identity cannot be witnessed without shared extents.
  for (auto del = out.deleted.begin(); del != out.deleted.end();) {
    const auto base_node = base.nodes_.find(*del);
    bool matched = false;
    if (!base_node->second->is_dir && base_node->second->data.allocated_chunks() > 0) {
      for (auto cre = out.created.begin(); cre != out.created.end(); ++cre) {
        const auto my_node = nodes_.find(*cre);
        if (my_node->second->is_dir ||
            my_node->second->mode != base_node->second->mode) {
          continue;
        }
        if (my_node->second->data.shares_all_extents_with(base_node->second->data)) {
          out.renamed.emplace_back(*del, *cre);
          out.created.erase(cre);
          matched = true;
          break;
        }
      }
    }
    del = matched ? out.deleted.erase(del) : std::next(del);
  }
  return out;
}

}  // namespace ffis::vfs
