// Differential VFS fuzzer: seeded random operation sequences run against the
// extent-based MemFs and a deliberately naive reference file system (flat
// std::vector<std::byte> payloads, eager deep-copy forks), asserting
// identical results, identical error codes, and identical final trees.
//
// The reference model shares none of the extent store's machinery — no
// chunking, no sharing, no copy-on-write — so any divergence in offset
// arithmetic, hole handling, stale-tail zeroing, COW detach ordering or
// fork isolation shows up as a mismatch.  Seeds are fixed (the classic
// seeded fuzz-harness idiom), so every failure is reproducible from the
// test name + logged seed alone.
//
// Geometry is adversarial on purpose: chunk sizes of 5 and 7 bytes put a
// chunk boundary inside almost every I/O span.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using vfs::FileHandle;
using vfs::OpenMode;
using vfs::VfsError;

// --- deterministic generator (LCG, platform-independent) ---------------------

class FuzzRng {
 public:
  explicit FuzzRng(std::uint32_t seed) : state_(seed) {}

  std::uint32_t next() {
    state_ = state_ * 1103515245u + 12345u;
    return (state_ >> 16) & 0x7FFF;
  }
  /// Uniform-ish value in [0, bound).
  std::uint32_t below(std::uint32_t bound) { return bound == 0 ? 0 : next() % bound; }
  std::byte byte() { return static_cast<std::byte>(next() & 0xFF); }

 private:
  std::uint32_t state_;
};

// --- reference model ---------------------------------------------------------

/// Flat-payload reference file system with MemFs's documented semantics:
/// absolute normalized paths, parent checks, POSIX unlinked-but-open
/// handles, subtree renames — but payloads are single contiguous vectors
/// and fork() deep-copies everything eagerly.
class RefFs final : public vfs::FileSystem {
 public:
  RefFs() {
    auto root = std::make_shared<Node>();
    root->is_dir = true;
    root->mode = 0755;
    nodes_.emplace("/", std::move(root));
  }

  [[nodiscard]] std::unique_ptr<RefFs> fork() const {
    auto out = std::make_unique<RefFs>();
    out->nodes_.clear();
    for (const auto& [path, node] : nodes_) {
      out->nodes_.emplace(path, std::make_shared<Node>(*node));  // deep copy
    }
    return out;
  }

  FileHandle open(const std::string& raw_path, OpenMode mode) override {
    const std::string path = normalize(raw_path);
    auto it = nodes_.find(path);
    if (mode == OpenMode::Read) {
      if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, path);
      if (it->second->is_dir) throw VfsError(VfsError::Code::IsDirectory, path);
    } else {
      if (it != nodes_.end() && it->second->is_dir) {
        throw VfsError(VfsError::Code::IsDirectory, path);
      }
      check_parent(path);
      if (it == nodes_.end()) {
        it = nodes_.emplace(path, std::make_shared<Node>()).first;
      } else if (mode == OpenMode::Write) {
        it->second->data.clear();
      }
    }
    for (std::size_t i = 0; i < handles_.size(); ++i) {
      if (!handles_[i].open) {
        handles_[i] = Open{it->second, mode, true};
        return static_cast<FileHandle>(i);
      }
    }
    handles_.push_back(Open{it->second, mode, true});
    return static_cast<FileHandle>(handles_.size() - 1);
  }

  void close(FileHandle fh) override {
    Open& of = handle_at(fh);
    of.open = false;
    of.node.reset();
  }

  std::size_t pread(FileHandle fh, util::MutableByteSpan buf, std::uint64_t offset) override {
    const Open& of = handle_at(fh);
    const util::Bytes& data = of.node->data;
    if (offset >= data.size()) return 0;
    const std::size_t n = std::min<std::size_t>(buf.size(), data.size() - offset);
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(offset), n, buf.begin());
    return n;
  }

  std::size_t pwrite(FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override {
    Open& of = handle_at(fh);
    if (of.mode == OpenMode::Read) {
      throw VfsError(VfsError::Code::InvalidArgument, "pwrite on read-only handle");
    }
    if (buf.empty()) return 0;  // POSIX: a zero-length write never extends
    util::Bytes& data = of.node->data;
    if (data.size() < offset + buf.size()) data.resize(offset + buf.size());
    std::copy(buf.begin(), buf.end(), data.begin() + static_cast<std::ptrdiff_t>(offset));
    return buf.size();
  }

  void mknod(const std::string& raw_path, std::uint32_t mode) override {
    const std::string path = normalize(raw_path);
    if (nodes_.contains(path)) throw VfsError(VfsError::Code::AlreadyExists, path);
    check_parent(path);
    auto node = std::make_shared<Node>();
    node->mode = mode;
    nodes_.emplace(path, std::move(node));
  }

  void chmod(const std::string& raw_path, std::uint32_t mode) override {
    node_at(normalize(raw_path)).mode = mode;
  }

  void truncate(const std::string& raw_path, std::uint64_t size) override {
    const std::string path = normalize(raw_path);
    Node& node = node_at(path);
    if (node.is_dir) throw VfsError(VfsError::Code::IsDirectory, path);
    node.data.resize(size);  // vector zero-fills growth
  }

  void ftruncate(FileHandle fh, std::uint64_t size) override {
    Open& of = handle_at(fh);
    if (of.mode == OpenMode::Read) {
      throw VfsError(VfsError::Code::InvalidArgument, "ftruncate on read-only handle");
    }
    of.node->data.resize(size);
  }

  void unlink(const std::string& raw_path) override {
    const std::string path = normalize(raw_path);
    auto it = nodes_.find(path);
    if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, path);
    if (it->second->is_dir) throw VfsError(VfsError::Code::IsDirectory, path);
    nodes_.erase(it);
  }

  void mkdir(const std::string& raw_path) override {
    const std::string path = normalize(raw_path);
    if (nodes_.contains(path)) throw VfsError(VfsError::Code::AlreadyExists, path);
    check_parent(path);
    auto node = std::make_shared<Node>();
    node->is_dir = true;
    node->mode = 0755;
    nodes_.emplace(path, std::move(node));
  }

  void rename(const std::string& raw_from, const std::string& raw_to) override {
    const std::string from = normalize(raw_from);
    const std::string to = normalize(raw_to);
    auto from_it = nodes_.find(from);
    if (from_it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, from);
    if (to == from) return;
    const bool from_is_dir = from_it->second->is_dir;
    const std::string from_prefix = from + "/";
    if (from_is_dir && to.compare(0, from_prefix.size(), from_prefix) == 0) {
      throw VfsError(VfsError::Code::InvalidArgument, "rename into own subtree");
    }
    check_parent(to);
    auto to_it = nodes_.find(to);
    if (to_it != nodes_.end()) {
      const bool to_is_dir = to_it->second->is_dir;
      if (to_is_dir && !from_is_dir) throw VfsError(VfsError::Code::IsDirectory, to);
      if (!to_is_dir && from_is_dir) throw VfsError(VfsError::Code::NotDirectory, to);
      if (to_is_dir) {
        const std::string to_prefix = to + "/";
        const auto child = nodes_.lower_bound(to_prefix);
        if (child != nodes_.end() &&
            child->first.compare(0, to_prefix.size(), to_prefix) == 0) {
          throw VfsError(VfsError::Code::AlreadyExists, to + " not empty");
        }
      }
    }
    if (from_is_dir) {
      std::vector<std::pair<std::string, std::shared_ptr<Node>>> moved;
      for (auto it = nodes_.lower_bound(from_prefix);
           it != nodes_.end() && it->first.compare(0, from_prefix.size(), from_prefix) == 0;) {
        moved.emplace_back(to + "/" + it->first.substr(from_prefix.size()), it->second);
        it = nodes_.erase(it);
      }
      for (auto& [path, node] : moved) nodes_.insert_or_assign(path, std::move(node));
    }
    std::shared_ptr<Node> node = std::move(from_it->second);
    nodes_.erase(from_it);
    nodes_.insert_or_assign(to, std::move(node));
  }

  vfs::FileStat stat(const std::string& raw_path) override {
    const Node& node = node_at(normalize(raw_path));
    return vfs::FileStat{node.data.size(), node.mode, node.is_dir};
  }

  bool exists(const std::string& raw_path) override {
    return nodes_.contains(normalize(raw_path));
  }

  std::vector<std::string> readdir(const std::string& raw_path) override {
    const std::string path = normalize(raw_path);
    const Node& node = node_at(path);
    if (!node.is_dir) throw VfsError(VfsError::Code::NotDirectory, path);
    std::vector<std::string> names;
    const std::string prefix = (path == "/") ? "/" : path + "/";
    for (auto it = nodes_.lower_bound(prefix); it != nodes_.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) break;
      const std::string rest = it->first.substr(prefix.size());
      if (!rest.empty() && rest.find('/') == std::string::npos) names.push_back(rest);
    }
    return names;
  }

  void fsync(FileHandle fh) override { (void)handle_at(fh); }

 private:
  struct Node {
    util::Bytes data;
    std::uint32_t mode = 0644;
    bool is_dir = false;
  };
  struct Open {
    std::shared_ptr<Node> node;
    OpenMode mode = OpenMode::Read;
    bool open = false;
  };

  static std::string normalize(const std::string& path) {
    if (path.empty() || path.front() != '/') {
      throw VfsError(VfsError::Code::InvalidArgument, "not absolute: " + path);
    }
    std::string out;
    for (const char c : path) {
      if (c == '/' && !out.empty() && out.back() == '/') continue;
      out += c;
    }
    if (out.size() > 1 && out.back() == '/') out.pop_back();
    return out;
  }

  Node& node_at(const std::string& path) {
    auto it = nodes_.find(path);
    if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, path);
    return *it->second;
  }

  Open& handle_at(FileHandle fh) {
    if (fh < 0 || static_cast<std::size_t>(fh) >= handles_.size() || !handles_[fh].open) {
      throw VfsError(VfsError::Code::BadHandle, "bad handle");
    }
    return handles_[fh];
  }

  void check_parent(const std::string& path) const {
    const std::string parent = vfs::parent_path(path);
    auto it = nodes_.find(parent);
    if (it == nodes_.end()) throw VfsError(VfsError::Code::NotFound, parent);
    if (!it->second->is_dir) throw VfsError(VfsError::Code::NotDirectory, parent);
  }

  std::map<std::string, std::shared_ptr<Node>> nodes_;
  std::vector<Open> handles_;
};

// --- differential driver -----------------------------------------------------

/// Outcome of one operation on one implementation: either success (with a
/// result fingerprint) or a VfsError code.
struct OpResult {
  bool threw = false;
  VfsError::Code code = VfsError::Code::IoError;
  std::uint64_t value = 0;      // n for pread/pwrite, size for stat, ...
  util::Bytes bytes;            // pread buffer / readdir fingerprint

  bool operator==(const OpResult&) const = default;
};

template <typename Fn>
OpResult capture(Fn&& fn) {
  OpResult r;
  try {
    fn(r);
  } catch (const VfsError& e) {
    r = OpResult{};
    r.threw = true;
    r.code = e.code();
  }
  return r;
}

/// One matched (MemFs, RefFs) pair plus the handles believed open on both.
struct World {
  std::unique_ptr<vfs::MemFs> mem;
  std::unique_ptr<RefFs> ref;
  std::vector<FileHandle> handles;
};

class Differ {
 public:
  Differ(std::uint32_t seed, vfs::MemFs::Options options)
      : rng_(seed), seed_(seed), options_(options) {
    World w;
    w.mem = std::unique_ptr<vfs::MemFs>(new vfs::MemFs(options));
    w.ref = std::make_unique<RefFs>();
    worlds_.push_back(std::move(w));
  }

  void run(std::size_t ops) {
    for (op_ = 0; op_ < ops; ++op_) {
      step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (std::size_t i = 0; i < worlds_.size(); ++i) {
      compare_trees(worlds_[i]);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

 private:
  std::string where() const {
    return "seed=" + std::to_string(seed_) + " op=" + std::to_string(op_) +
           " chunk=" + std::to_string(options_.chunk_size);
  }

  std::string random_path() {
    static const char* kPaths[] = {
        "/a",      "/b",          "/g",          "/dir",        "/dir/c",
        "/dir/d",  "/dir/sub",    "/dir/sub/e",  "/dir2",       "/dir2/f",
        "//a",     "/dir//sub/",  "/missing/x",  "/dir/sub//e",
    };
    return kPaths[rng_.below(sizeof(kPaths) / sizeof(kPaths[0]))];
  }

  util::Bytes random_payload() {
    util::Bytes out(rng_.below(300));
    for (auto& b : out) b = rng_.byte();
    return out;
  }

  void step() {
    World& w = worlds_[rng_.below(static_cast<std::uint32_t>(worlds_.size()))];
    switch (rng_.below(17)) {
      case 0: {  // open
        const std::string path = random_path();
        const auto mode = static_cast<OpenMode>(rng_.below(3));
        FileHandle mem_fh = vfs::kInvalidHandle;
        FileHandle ref_fh = vfs::kInvalidHandle;
        const OpResult a = capture([&](OpResult&) { mem_fh = w.mem->open(path, mode); });
        const OpResult b = capture([&](OpResult&) { ref_fh = w.ref->open(path, mode); });
        ASSERT_EQ(a, b) << "open " << path << " @ " << where();
        if (!a.threw) {
          ASSERT_EQ(mem_fh, ref_fh) << "handle ids diverged @ " << where();
          w.handles.push_back(mem_fh);
        }
        break;
      }
      case 1: {  // close (valid or stale handle)
        const FileHandle fh = pick_handle(w);
        const OpResult a = capture([&](OpResult&) { w.mem->close(fh); });
        const OpResult b = capture([&](OpResult&) { w.ref->close(fh); });
        ASSERT_EQ(a, b) << "close @ " << where();
        std::erase(w.handles, fh);
        break;
      }
      case 2:
      case 3: {  // pwrite
        const FileHandle fh = pick_handle(w);
        const util::Bytes payload = random_payload();
        const std::uint64_t offset = rng_.below(700);
        const OpResult a = capture(
            [&](OpResult& r) { r.value = w.mem->pwrite(fh, payload, offset); });
        const OpResult b = capture(
            [&](OpResult& r) { r.value = w.ref->pwrite(fh, payload, offset); });
        ASSERT_EQ(a, b) << "pwrite @ " << where();
        break;
      }
      case 4:
      case 5: {  // pread
        const FileHandle fh = pick_handle(w);
        const std::size_t len = rng_.below(400);
        const std::uint64_t offset = rng_.below(900);
        const OpResult a = capture([&](OpResult& r) {
          r.bytes.assign(len, std::byte{0xCD});
          r.value = w.mem->pread(fh, r.bytes, offset);
          r.bytes.resize(r.value);
        });
        const OpResult b = capture([&](OpResult& r) {
          r.bytes.assign(len, std::byte{0xCD});
          r.value = w.ref->pread(fh, r.bytes, offset);
          r.bytes.resize(r.value);
        });
        ASSERT_EQ(a, b) << "pread @ " << where();
        break;
      }
      case 6: {  // truncate
        const std::string path = random_path();
        const std::uint64_t size = rng_.below(800);
        const OpResult a = capture([&](OpResult&) { w.mem->truncate(path, size); });
        const OpResult b = capture([&](OpResult&) { w.ref->truncate(path, size); });
        ASSERT_EQ(a, b) << "truncate " << path << " @ " << where();
        break;
      }
      case 7: {  // ftruncate
        const FileHandle fh = pick_handle(w);
        const std::uint64_t size = rng_.below(800);
        const OpResult a = capture([&](OpResult&) { w.mem->ftruncate(fh, size); });
        const OpResult b = capture([&](OpResult&) { w.ref->ftruncate(fh, size); });
        ASSERT_EQ(a, b) << "ftruncate @ " << where();
        break;
      }
      case 8: {  // rename
        const std::string from = random_path();
        const std::string to = random_path();
        const OpResult a = capture([&](OpResult&) { w.mem->rename(from, to); });
        const OpResult b = capture([&](OpResult&) { w.ref->rename(from, to); });
        ASSERT_EQ(a, b) << "rename " << from << " -> " << to << " @ " << where();
        break;
      }
      case 9: {  // unlink
        const std::string path = random_path();
        const OpResult a = capture([&](OpResult&) { w.mem->unlink(path); });
        const OpResult b = capture([&](OpResult&) { w.ref->unlink(path); });
        ASSERT_EQ(a, b) << "unlink " << path << " @ " << where();
        break;
      }
      case 10: {  // mkdir
        const std::string path = random_path();
        const OpResult a = capture([&](OpResult&) { w.mem->mkdir(path); });
        const OpResult b = capture([&](OpResult&) { w.ref->mkdir(path); });
        ASSERT_EQ(a, b) << "mkdir " << path << " @ " << where();
        break;
      }
      case 11: {  // mknod
        const std::string path = random_path();
        const std::uint32_t mode = 0600 + rng_.below(0200);
        const OpResult a = capture([&](OpResult&) { w.mem->mknod(path, mode); });
        const OpResult b = capture([&](OpResult&) { w.ref->mknod(path, mode); });
        ASSERT_EQ(a, b) << "mknod " << path << " @ " << where();
        break;
      }
      case 12: {  // chmod
        const std::string path = random_path();
        const std::uint32_t mode = rng_.below(01000);
        const OpResult a = capture([&](OpResult&) { w.mem->chmod(path, mode); });
        const OpResult b = capture([&](OpResult&) { w.ref->chmod(path, mode); });
        ASSERT_EQ(a, b) << "chmod " << path << " @ " << where();
        break;
      }
      case 13: {  // stat + exists
        const std::string path = random_path();
        const OpResult a = capture([&](OpResult& r) {
          const vfs::FileStat st = w.mem->stat(path);
          r.value = st.size * 4 + st.mode * 2 + (st.is_dir ? 1 : 0);
        });
        const OpResult b = capture([&](OpResult& r) {
          const vfs::FileStat st = w.ref->stat(path);
          r.value = st.size * 4 + st.mode * 2 + (st.is_dir ? 1 : 0);
        });
        ASSERT_EQ(a, b) << "stat " << path << " @ " << where();
        ASSERT_EQ(w.mem->exists(path), w.ref->exists(path)) << "exists @ " << where();
        break;
      }
      case 14: {  // readdir
        const std::string path = random_path();
        const auto fingerprint = [](const std::vector<std::string>& names) {
          util::Bytes out;
          for (const auto& n : names) {
            for (const char c : n) out.push_back(static_cast<std::byte>(c));
            out.push_back(std::byte{0});
          }
          return out;
        };
        const OpResult a = capture(
            [&](OpResult& r) { r.bytes = fingerprint(w.mem->readdir(path)); });
        const OpResult b = capture(
            [&](OpResult& r) { r.bytes = fingerprint(w.ref->readdir(path)); });
        ASSERT_EQ(a, b) << "readdir " << path << " @ " << where();
        break;
      }
      case 15: {  // fsync
        const FileHandle fh = pick_handle(w);
        const OpResult a = capture([&](OpResult&) { w.mem->fsync(fh); });
        const OpResult b = capture([&](OpResult&) { w.ref->fsync(fh); });
        ASSERT_EQ(a, b) << "fsync @ " << where();
        break;
      }
      case 16: {  // fork: snapshot this world into a new one (COW vs deep copy)
        if (worlds_.size() >= 4) break;  // bound memory; later forks replace
        World forked;
        const auto mode = rng_.below(2) == 0 ? vfs::MemFs::Concurrency::SingleThread
                                             : vfs::MemFs::Concurrency::MultiThread;
        // Forks share the parent's arena (when one is configured): the differ
        // is single-threaded, so the single-owner arena contract holds, and
        // COW detaches of arena chunks get fuzzed alongside heap ones.
        forked.mem = std::unique_ptr<vfs::MemFs>(
            new vfs::MemFs(w.mem->fork(mode, options_.arena)));
        forked.ref = w.ref->fork();
        worlds_.push_back(std::move(forked));
        break;
      }
      default: break;
    }
  }

  /// Mostly a live handle, sometimes a junk one (bad-handle paths must agree
  /// too).
  FileHandle pick_handle(World& w) {
    if (!w.handles.empty() && rng_.below(8) != 0) {
      return w.handles[rng_.below(static_cast<std::uint32_t>(w.handles.size()))];
    }
    return static_cast<FileHandle>(rng_.below(12)) - 2;
  }

  /// Full-tree equivalence: identical path sets, stats and byte contents.
  void compare_trees(World& w) {
    std::vector<std::string> mem_paths, ref_paths;
    collect(*w.mem, "/", mem_paths);
    collect(*w.ref, "/", ref_paths);
    ASSERT_EQ(mem_paths, ref_paths) << "final trees diverged, " << where();
    for (const std::string& path : mem_paths) {
      const vfs::FileStat ms = w.mem->stat(path);
      const vfs::FileStat rs = w.ref->stat(path);
      ASSERT_EQ(ms.is_dir, rs.is_dir) << path << ", " << where();
      ASSERT_EQ(ms.mode, rs.mode) << path << ", " << where();
      ASSERT_EQ(ms.size, rs.size) << path << ", " << where();
      if (!ms.is_dir) {
        ASSERT_EQ(vfs::read_file(*w.mem, path), vfs::read_file(*w.ref, path))
            << "contents of " << path << " diverged, " << where();
      }
    }
  }

  static void collect(vfs::FileSystem& fs, const std::string& dir,
                      std::vector<std::string>& out) {
    for (const std::string& name : fs.readdir(dir)) {
      const std::string path = (dir == "/") ? "/" + name : dir + "/" + name;
      out.push_back(path);
      if (fs.stat(path).is_dir) collect(fs, path, out);
    }
  }

  FuzzRng rng_;
  std::uint32_t seed_;
  vfs::MemFs::Options options_;
  std::vector<World> worlds_;
  std::size_t op_ = 0;
};

void fuzz_seeds(std::uint32_t first_seed, std::uint32_t count,
                vfs::MemFs::Options options, std::size_t ops) {
  for (std::uint32_t seed = first_seed; seed < first_seed + count; ++seed) {
    Differ differ(seed, options);
    differ.run(ops);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "divergence at seed " << seed << " (chunk_size="
             << options.chunk_size << ")";
    }
  }
}

using Concurrency = vfs::MemFs::Concurrency;

TEST(VfsFuzz, TinyChunksSingleThread) {
  // 5-byte extents: nearly every span crosses a boundary.
  fuzz_seeds(1, 25, {.concurrency = Concurrency::SingleThread, .chunk_size = 5}, 700);
}

TEST(VfsFuzz, PrimeChunksSingleThread) {
  fuzz_seeds(100, 25, {.concurrency = Concurrency::SingleThread, .chunk_size = 7}, 700);
}

TEST(VfsFuzz, MidSizeChunksMultiThread) {
  // 64-byte extents under the locked (MultiThread) build of MemFs; the op
  // stream itself is single-threaded — the mode difference under test is
  // the Guard/locking code path.
  fuzz_seeds(200, 20, {.concurrency = Concurrency::MultiThread, .chunk_size = 64}, 700);
}

TEST(VfsFuzz, DefaultChunksBothModes) {
  // Default 64 KiB geometry: whole-payload spans live inside one extent.
  fuzz_seeds(300, 10, {.concurrency = Concurrency::SingleThread}, 500);
  fuzz_seeds(310, 10, {.concurrency = Concurrency::MultiThread}, 500);
}

TEST(VfsFuzz, LongRunDeepForkChains) {
  // Fewer seeds, longer sequences: more fork-of-fork sharing chains.
  fuzz_seeds(400, 6, {.concurrency = Concurrency::SingleThread, .chunk_size = 13}, 2500);
}

TEST(VfsFuzz, RegressionSeeds) {
  // Seeds that exposed past divergences, pinned so they stay exercised:
  // 1269 hit a zero-length pwrite past EOF (the reference model wrongly
  // extended the file; POSIX and MemFs do not).
  fuzz_seeds(1269, 1, {.concurrency = Concurrency::SingleThread, .chunk_size = 5}, 700);
}

TEST(VfsFuzz, ArenaBackedBothGeometries) {
  // Same differential drive with every fresh/detached extent carved from a
  // vfs::ExtentArena instead of the heap — storage backends must be
  // semantically invisible.  The arena is reset between seeds (all stores
  // are gone by then, so the epoch rewinds) to also fuzz slab recycling.
  for (const std::size_t chunk_size : {std::size_t{5}, std::size_t{64}}) {
    vfs::MemFs::Options options;
    options.concurrency = Concurrency::SingleThread;
    options.chunk_size = chunk_size;
    options.arena = std::make_shared<vfs::ExtentArena>();
    for (std::uint32_t seed = 600; seed < 615; ++seed) {
      {
        Differ differ(seed, options);
        differ.run(700);
        if (::testing::Test::HasFatalFailure()) {
          FAIL() << "divergence at seed " << seed << " (arena, chunk_size="
                 << chunk_size << ")";
        }
      }
      // The differ (and with it every store) is gone: the reset rewinds.
      options.arena->reset();
    }
    EXPECT_GT(options.arena->bytes_recycled(), 0u);
  }
}

TEST(VfsFuzz, ArenaResetMidLifeNeverInvalidatesSurvivingStores) {
  // Adversarial reset: rewind/abandon the arena while forked worlds are
  // still alive and keep fuzzing — epoch abandonment must keep every
  // surviving chunk's bytes intact (the differential compare proves it).
  vfs::MemFs::Options options;
  options.concurrency = Concurrency::SingleThread;
  options.chunk_size = 7;
  options.arena = std::make_shared<vfs::ExtentArena>();
  for (std::uint32_t seed = 650; seed < 660; ++seed) {
    Differ differ(seed, options);
    for (int burst = 0; burst < 5; ++burst) {
      differ.run(150);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "divergence at seed " << seed << " (mid-life arena reset)";
      }
      options.arena->reset();  // live stores force the abandonment path
    }
  }
}

// --- concurrent smoke --------------------------------------------------------

TEST(VfsFuzz, ConcurrentHandleOpsSmoke) {
  // Races handle I/O from several threads on one MultiThread MemFs.  Each
  // thread owns a distinct file, so a per-file flat byte vector is a
  // sequential oracle even though the fs-level operations interleave freely;
  // a sixth thread concurrently forks the fs (snapshots under the same
  // mutex) and drops the forks.  Run under ASan/UBSan in CI this covers the
  // locking dimension the single-threaded differ cannot.
  for (const std::size_t chunk_size : {std::size_t{7}, std::size_t{4096}}) {
    vfs::MemFs fs(vfs::MemFs::Options{.concurrency = Concurrency::MultiThread,
                                      .chunk_size = chunk_size});
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kOpsPerThread = 1500;
    std::vector<util::Bytes> oracles(kThreads);
    std::atomic<bool> failed{false};
    std::atomic<bool> stop_forker{false};

    std::thread forker([&] {
      while (!stop_forker.load(std::memory_order_relaxed)) {
        vfs::MemFs snapshot = fs.fork();
        (void)snapshot.exists("/t0");  // touch the fork, then drop it
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        FuzzRng rng(static_cast<std::uint32_t>(1000 + t + chunk_size));
        const std::string path = "/t" + std::to_string(t);
        util::Bytes& oracle = oracles[t];
        const FileHandle fh = fs.open(path, OpenMode::ReadWrite);
        for (std::size_t op = 0; op < kOpsPerThread && !failed.load(); ++op) {
          switch (rng.below(6)) {
            case 0:
            case 1: {  // pwrite
              util::Bytes payload(rng.below(200));
              for (auto& b : payload) b = rng.byte();
              const std::uint64_t offset = rng.below(600);
              fs.pwrite(fh, payload, offset);
              if (!payload.empty()) {
                if (oracle.size() < offset + payload.size()) {
                  oracle.resize(offset + payload.size());
                }
                std::copy(payload.begin(), payload.end(),
                          oracle.begin() + static_cast<std::ptrdiff_t>(offset));
              }
              break;
            }
            case 2:
            case 3: {  // pread + verify against the oracle
              const std::size_t len = rng.below(300);
              const std::uint64_t offset = rng.below(700);
              util::Bytes buf(len, std::byte{0xEE});
              const std::size_t n = fs.pread(fh, buf, offset);
              std::size_t expected_n =
                  offset >= oracle.size()
                      ? 0
                      : std::min<std::size_t>(len, oracle.size() - offset);
              if (n != expected_n) {
                failed.store(true);
                break;
              }
              for (std::size_t i = 0; i < n; ++i) {
                if (buf[i] != oracle[offset + i]) {
                  failed.store(true);
                  break;
                }
              }
              break;
            }
            case 4: {  // ftruncate
              const std::uint64_t size = rng.below(700);
              fs.ftruncate(fh, size);
              oracle.resize(size);  // vector zero-fills growth, as MemFs does
              break;
            }
            default: {  // fsync + stat size check
              fs.fsync(fh);
              if (fs.stat(path).size != oracle.size()) failed.store(true);
              break;
            }
          }
        }
        fs.close(fh);
      });
    }
    for (auto& w : workers) w.join();
    stop_forker.store(true);
    forker.join();

    ASSERT_FALSE(failed.load()) << "interleaved handle ops diverged from the "
                                   "per-file oracle (chunk_size="
                                << chunk_size << ")";
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(vfs::read_file(fs, "/t" + std::to_string(t)), oracles[t])
          << "final contents of /t" << t << " (chunk_size=" << chunk_size << ")";
    }
  }
}

}  // namespace
