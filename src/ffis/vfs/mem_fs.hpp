#pragma once
// In-memory file system backend.
//
// Campaign runs execute thousands of application instances; each gets a
// private MemFs so runs are isolated, fast, and need no disk cleanup.  MemFs
// also lets tests assert on exact on-"disk" byte contents.
//
// Three properties make MemFs cheap enough for the engine's hot loop:
//
//  * Extent-based copy-on-write forks.  File payloads are vfs::ExtentStore
//    instances — fixed-size chunks (MemFs::Options::chunk_size, default
//    64 KiB), each behind shared_ptr<const Bytes>.  fork() clones the node
//    table in O(#files) while sharing every chunk, and a write detaches only
//    the chunks it touches: the first post-fork write into a multi-MB
//    plotfile costs O(bytes written), not O(file).  The checkpoint-reuse
//    execution path (exp::Engine) snapshots the fault-free prefix of a run
//    once per cell and forks it per injection run.
//  * Handle-cached I/O.  open() resolves the path once and caches the node in
//    the handle table, so pread/pwrite/ftruncate/fsync skip normalization and
//    the path map entirely.  A handle keeps its node alive and reachable
//    across unlink/rename (POSIX semantics: I/O on an unlinked-but-open file
//    keeps working), where a path-keyed lookup would throw NotFound.
//  * Optional locking.  A MemFs owned exclusively by one run can be built in
//    Concurrency::SingleThread mode to skip the per-op mutex.
//
// stats() exposes the storage layer's cumulative counters (extents
// allocated, COW detaches, bytes copied by detaches) so tests and the
// experiment engine can audit exactly how much copying the hot loop does.
//
// Frozen trees (checkpoint snapshots, golden output trees) can be
// serialized to a versioned binary blob and back by vfs::SnapshotCodec —
// including each file's extent size and cross-tree chunk sharing — which
// is what core::CheckpointStore persists across processes.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ffis/vfs/extent_arena.hpp"
#include "ffis/vfs/extent_store.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/fs_diff.hpp"

namespace ffis::vfs {

class BlockDevice;

class MemFs final : public FileSystem {
 public:
  enum class Concurrency : std::uint8_t {
    MultiThread,   ///< per-op mutex; safe for concurrent use (default)
    SingleThread,  ///< no locking; the caller owns the fs exclusively
  };

  struct Options {
    Concurrency concurrency = Concurrency::MultiThread;
    /// Extent size for every payload.  Smaller chunks copy less per detach
    /// but cost more bookkeeping; must be > 0.
    std::size_t chunk_size = ExtentStore::kDefaultChunkSize;
    /// Optional bump arena backing every fresh or detached extent this fs
    /// writes (see vfs::ExtentArena).  Run-private filesystems on the
    /// engine hot path use the owning thread's arena; long-lived trees
    /// (checkpoints, goldens, decoded snapshots) stay heap-backed.  The
    /// arena is single-threaded: attach one only to filesystems used from
    /// the thread that owns it.
    std::shared_ptr<ExtentArena> arena;
  };

  MemFs() : MemFs(Options{}) {}
  explicit MemFs(Concurrency mode) : MemFs(make_mode_options(mode)) {}
  explicit MemFs(Options options);

  /// `options` with locking off, for a tree one thread owns (a run's store)
  /// or that is frozen once built (checkpoints, golden trees).
  [[nodiscard]] static Options single_thread(Options options) {
    options.concurrency = Concurrency::SingleThread;
    return options;
  }

  /// O(#files) copy-on-write snapshot: the fork gets its own node table (so
  /// metadata changes, renames, creates and unlinks are isolated both ways)
  /// but shares every payload extent with the parent until one side writes.
  /// The fork inherits the parent's chunk size (extents are shared, so the
  /// geometry must match), starts with no open handles and zeroed stats();
  /// the parent's handles stay valid.  Concurrent fork() calls on the same
  /// parent are safe as long as no thread is mutating the parent (a frozen
  /// checkpoint fs).  `arena` (optional, NOT inherited from the parent)
  /// backs the fork's future writes — the run-private pattern is forking a
  /// heap-backed checkpoint into the worker thread's arena.
  [[nodiscard]] MemFs fork(Concurrency mode = Concurrency::MultiThread,
                           std::shared_ptr<ExtentArena> arena = nullptr) const;

  /// fork() onto the heap.  MemFs is not movable (it owns a mutex), so
  /// callers that need an owning pointer cannot wrap fork()'s prvalue
  /// themselves — this builds the fork in place instead.
  [[nodiscard]] std::unique_ptr<MemFs> fork_unique(
      Concurrency mode = Concurrency::MultiThread,
      std::shared_ptr<ExtentArena> arena = nullptr) const;

  /// Re-points this fs at `base`'s current tree, as if it had just been
  /// forked from it — but *in place*, reusing this instance's Node
  /// allocations (and the map's interior nodes) for every path the two
  /// trees share.  Extents are shared copy-on-write exactly as fork();
  /// open handles are invalidated, stats() restart from zero, and the
  /// chunk size is re-inherited from `base`.  Concurrency mode and the attached arena are kept.  This is
  /// the run-recycling primitive: a pooled run fs resets from the cell
  /// checkpoint in O(#files) with zero map-node churn in steady state.
  /// The caller must own *this exclusively (no concurrent ops); `base`
  /// follows the frozen-snapshot contract fork() uses.
  void reset_from(const MemFs& base);

  /// Drops every payload extent and all open handles, keeping the node
  /// skeleton (paths, modes, dir structure) for a later reset_from().
  /// This is what releases a recycled run's arena references so the
  /// arena's epoch can rewind instead of being abandoned — call it before
  /// ExtentArena::reset().
  void drop_payloads();

  FileHandle open(const std::string& path, OpenMode mode) override;
  void close(FileHandle fh) override;
  std::size_t pread(FileHandle fh, util::MutableByteSpan buf, std::uint64_t offset) override;
  std::size_t pwrite(FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override;
  void mknod(const std::string& path, std::uint32_t mode) override;
  void chmod(const std::string& path, std::uint32_t mode) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void ftruncate(FileHandle fh, std::uint64_t size) override;
  void unlink(const std::string& path) override;
  void mkdir(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  FileStat stat(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> readdir(const std::string& path) override;
  void fsync(FileHandle fh) override;

  /// How this tree differs from `base`: per-file dirty byte ranges (extent
  /// identity — see ExtentStore::diff — so fork-derived trees compare in
  /// O(#chunks) pointer tests with zero FileSystem-level reads), plus
  /// created/deleted paths and detected renames (a created/deleted pair
  /// whose extents are pointer-identical).  An empty diff proves the two
  /// trees bit-identical in content, size, kind and mode.  Throws
  /// VfsError(InvalidArgument) when a file pair disagrees on chunk geometry.
  /// Both trees must be quiescent (the usual frozen-snapshot contract).
  [[nodiscard]] FsDiff diff_tree(const MemFs& base) const;

  /// Total *logical* bytes across all regular files (sum of file sizes;
  /// diagnostics).
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Bytes actually held in extents — the memory footprint.  Smaller than
  /// total_bytes() when files are sparse (holes store nothing).
  [[nodiscard]] std::uint64_t stored_bytes() const;

  /// Bytes belonging to extents still shared with a fork — i.e. not yet
  /// detached by copy-on-write.  Diagnostics for the COW tests and the perf
  /// bench.
  [[nodiscard]] std::uint64_t cow_shared_bytes() const;

  /// Extents currently allocated across all files (holes excluded).
  [[nodiscard]] std::uint64_t allocated_chunks() const;

  /// Cumulative storage-layer counters since construction (forks start from
  /// zero): extents allocated, COW detaches, bytes copied by detaches.
  [[nodiscard]] FsStats stats() const;

  [[nodiscard]] std::size_t chunk_size() const noexcept { return chunk_size_; }

  /// The arena backing this fs's writes (null when heap-backed).
  [[nodiscard]] const std::shared_ptr<ExtentArena>& arena() const noexcept { return arena_; }

  /// Attaches a sector-granular block device *beneath* the write path: every
  /// pwrite routes through BlockDevice::apply_write (where an armed media
  /// fault deviates at one sector, invisibly to any FileSystem decorator
  /// above), reads verify registered sector CRCs when the device scrubs, and
  /// truncation reconciles the faulted-sector registry.  Per-run wiring:
  /// core::FaultInjector attaches a fresh device per injection run;
  /// drop_payloads()/reset_from() detach it, so pooled run stores never leak
  /// a device across runs.  Null detaches.  Forks never inherit the device.
  void set_media(std::shared_ptr<BlockDevice> device);
  [[nodiscard]] const std::shared_ptr<BlockDevice>& media() const noexcept {
    return media_;
  }

 private:
  struct Node {
    /// COW payload; chunks are shared across forks until a writer detaches
    /// them.
    ExtentStore data;
    std::uint32_t mode = 0644;
    bool is_dir = false;

    explicit Node(std::size_t chunk_size) : data(chunk_size) {}
    Node(const Node&) = default;
    /// reset_from() refills surviving Nodes in place (COW-shares extents).
    Node& operator=(const Node&) = default;
  };
  struct OpenFile {
    std::shared_ptr<Node> node;  ///< cached: pread/pwrite/fsync skip the path map
    OpenMode mode = OpenMode::Read;
    bool open = false;
  };

  /// Locks only in MultiThread mode.
  class [[nodiscard]] Guard {
   public:
    explicit Guard(std::mutex* m) : m_(m) {
      if (m_ != nullptr) m_->lock();
    }
    ~Guard() {
      if (m_ != nullptr) m_->unlock();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    std::mutex* m_;
  };

  /// The snapshot codec enumerates and rebuilds the node table directly:
  /// serialization must record each file's extent size and chunk sharing,
  /// neither of which the FileSystem surface exposes.
  friend class SnapshotCodec;

  struct ForkTag {};
  MemFs(ForkTag, const MemFs& parent, Concurrency mode, std::shared_ptr<ExtentArena> arena);

  [[nodiscard]] static Options make_mode_options(Concurrency mode) {
    Options options;
    options.concurrency = mode;
    return options;
  }

  [[nodiscard]] std::mutex* maybe_mutex() const noexcept {
    return locking_ ? &mutex_ : nullptr;
  }
  Node& node_at(const std::string& path);  // throws NotFound
  OpenFile& handle_at(FileHandle fh, const char* op);  // throws BadHandle
  void check_parent(const std::string& path) const;

  bool locking_ = true;
  std::size_t chunk_size_ = ExtentStore::kDefaultChunkSize;
  std::shared_ptr<ExtentArena> arena_;
  std::shared_ptr<BlockDevice> media_;  ///< run-private; see set_media()
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Node>> nodes_;
  std::vector<OpenFile> handles_;
  FsStats stats_;  ///< guarded by mutex_ (in MultiThread mode)
};

}  // namespace ffis::vfs
