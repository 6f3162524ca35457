#pragma once
// Persistent checkpoint store: the on-disk tier of the engine's cache
// hierarchy (docs/ARCHITECTURE.md has the full picture).
//
// The in-process caches die with the process, so every fresh `ffis`
// invocation re-executes each application's fault-free prefix — which
// dominates wall-clock for iterative CLI workflows that run the same plan
// repeatedly.  CheckpointStore serializes the two cacheable artifacts to a
// directory so a later process can skip that work entirely:
//
//  * golden entries — key (app, fingerprint, app_seed): the golden analysis
//    plus the golden output tree;
//  * checkpoint entries — key (app, fingerprint, app_seed, stage): the
//    pre-fault prefix snapshot, the golden output tree grown from it, and
//    the application's serialize_state blob.  Both trees ride one
//    vfs::SnapshotCodec blob, so their chunk sharing — and with it
//    diff_tree's pointer-equality fast path — survives the round trip.
//
// Every entry carries its trees.  One writer and one strict parser in the
// .cpp hold the byte layout of both kinds; saves, loads and gc() all go
// through them.
//
// Cache-key semantics: an entry matches only if the application name,
// Application::state_fingerprint(), app_seed, stage, base extent size, the
// store format version AND the snapshot codec version all match.  An
// application with an empty fingerprint is never persisted (there is no way
// to detect a config change, so caching would be unsound).  The codec also
// checks every file's recorded extent size at decode time — a mismatch names
// the file, and the store treats it as a miss.
//
// Robustness: every entry is one file, written to a temp name and renamed
// into place (atomic on POSIX — concurrent engines sharing a directory
// simply race to publish identical bytes), framed with a whole-file FNV-1a
// checksum.  load() verifies the checksum and every key field before
// decoding; corrupt, truncated, stale or version-skewed entries (and
// tree-less ones older builds wrote) are logged and reported as a miss,
// never thrown — callers rebuild and overwrite.
//
// Bounded-cache behavior (Options::budget_bytes): the store maintains an
// in-process LRU index over the directory — an intrusive list whose order
// is persisted across processes through the entry files' mtimes (a load
// hit re-stamps its entry, a directory scan on first open rebuilds the
// list oldest-first).  When a save pushes the directory past the budget,
// least-recently-used entries are unlinked until the total is back under
// the low-water mark — except entries pinned by a Lease, which a running
// plan holds for every key it loads or saves, so eviction can never pull a
// checkpoint out from under a live cell.  All store instances on one
// directory within a process share the index and the lease table (the
// 3-concurrent-engines-on-one-shared-dir deployment).  Eviction is an
// unlink of a published file — crash-safe by construction — and a budget
// shared by *other processes* is enforced approximately: each process
// evicts based on what it has observed (its scan plus its own traffic).
// GC only unlinks: orphaned temp files and entries that fail to parse.  A
// save is the only code that writes an entry file.
//
// Zero-copy decode: entries load through a read-only mmap and decoded
// extents alias the mapping (ExtentStore::kMappedOwner —
// immutable-by-construction, COW detach on first write), so a warm start
// materializes trees without allocating or copying payload bytes.  A file
// that cannot be mapped (empty, special, mmap-hostile filesystem) is read
// buffered and decoded by copy instead.  Either way the whole-file checksum
// is verified before anything is decoded — a torn or corrupt entry is
// rejected, never served.  The mapping stays valid after GC or eviction
// unlinks the file (POSIX), so live runs keep their chunks.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::core {

/// Process-wide per-directory state (LRU index, lease table), shared by
/// every CheckpointStore instance on one directory.  Opaque; defined in the
/// .cpp.
struct CheckpointStoreState;

class CheckpointStore {
 public:
  /// Bump on any change to the entry layout; older files then read as stale.
  static constexpr std::uint32_t kFormatVersion = 1;

  struct Options {
    /// Directory size budget in bytes; 0 = unbounded.  When a save pushes
    /// the indexed total past it, LRU eviction unlinks unleased entries
    /// until the total is back under the low-water mark (budget minus
    /// budget/8 — hysteresis, so one hot save does not evict on every
    /// write).  If eviction alone cannot get under the budget (everything
    /// left is leased), a GC pass runs automatically.
    std::uint64_t budget_bytes = 0;
  };

  /// Per-instance cache-traffic counters (each engine reports the traffic
  /// its own store generated, even when several share one directory).
  struct Stats {
    std::uint64_t hits = 0;           ///< loads served from a valid entry
    std::uint64_t misses = 0;         ///< loads that found no (valid) entry
    std::uint64_t evictions = 0;      ///< entries unlinked by LRU eviction
    std::uint64_t bytes_evicted = 0;  ///< file bytes those entries held
    std::uint64_t gc_runs = 0;        ///< gc() passes (manual or automatic)
  };

  /// What a gc() pass did.  bytes_reclaimed counts the temp files and
  /// invalid entries it unlinked.
  struct GcResult {
    std::uint64_t temp_files_removed = 0;     ///< orphaned *.tmp-* files
    std::uint64_t invalid_entries_removed = 0;///< corrupt/truncated/stale
    std::uint64_t entries_kept = 0;           ///< valid entries surviving
    std::uint64_t bytes_reclaimed = 0;
    std::uint64_t bytes_after = 0;            ///< indexed total afterwards
  };

  /// RAII pin: while any Lease on a key is alive — taken through *any*
  /// store instance on the same directory in this process — LRU eviction
  /// skips that entry.  Leasing a key with no entry yet is allowed (and is
  /// how the engine pins a key across its load-miss → rebuild → save
  /// window).  Default-constructed = empty.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

   private:
    friend class CheckpointStore;
    Lease(std::shared_ptr<CheckpointStoreState> state, std::string name);
    void release() noexcept;

    std::shared_ptr<CheckpointStoreState> state_;
    std::string name_;  ///< entry filename within the store directory
  };

  /// Creates `dir` (and parents) if needed.  Throws std::runtime_error when
  /// the directory cannot be created or is not writable.  Scans the
  /// directory into the shared LRU index on the first open per process and
  /// enforces the budget immediately when one is set.
  CheckpointStore(std::string dir, Options options);
  explicit CheckpointStore(std::string dir) : CheckpointStore(std::move(dir), Options{}) {}

  /// What identifies an entry.  `stage` is ignored for golden entries (the
  /// golden run is stage-independent).  `chunk_size` is the extent size of
  /// the MemFs options the trees were built with.
  struct Key {
    std::string app_name;
    std::string app_fingerprint;  ///< Application::state_fingerprint(); empty = unpersistable
    std::uint64_t app_seed = 0;
    int stage = -1;
    std::size_t chunk_size = vfs::ExtentStore::kDefaultChunkSize;

    /// Convenience: key for `app` at `stage` under `fs_options`.
    [[nodiscard]] static Key of(const Application& app, std::uint64_t app_seed, int stage,
                                const vfs::MemFs::Options& fs_options);
  };

  struct LoadedCheckpoint {
    std::shared_ptr<const Checkpoint> checkpoint;
    /// Golden output tree grown from the checkpoint, chunk-shared with it
    /// (null iff the caller declined it).
    std::shared_ptr<const vfs::MemFs> golden_tree;
    /// The application's serialize_state blob (may be empty).
    util::Bytes app_state;
  };

  struct LoadedGolden {
    std::shared_ptr<const AnalysisResult> analysis;
    /// The golden run's final output tree (null iff the caller declined it).
    std::shared_ptr<const vfs::MemFs> tree;
  };

  /// Loads the checkpoint entry for `key`, rebuilding the trees under
  /// `fs_options` (geometry is validated; concurrency is forced to
  /// SingleThread — loaded snapshots are frozen, like captured ones).
  /// Pass want_golden_tree = false to skip materializing the entry's golden
  /// tree (a multi-MiB decode) when nothing will diff against it;
  /// `golden_tree` is then null.  Returns nullopt on miss, corruption, or
  /// any mismatch — never throws for bad files.
  [[nodiscard]] std::optional<LoadedCheckpoint> load_checkpoint(
      const Key& key, const vfs::MemFs::Options& fs_options,
      bool want_golden_tree = true) const;

  /// Persists a checkpoint entry: the snapshot, the golden tree grown from
  /// it, and the app_state blob.  Returns false (no file written) when the
  /// key is unpersistable (empty fingerprint) or the write failed.
  bool save_checkpoint(const Key& key, const Checkpoint& checkpoint,
                       const vfs::MemFs& golden_tree, util::ByteSpan app_state) const;

  /// Loads the golden entry for `key` (key.stage is ignored).  Pass
  /// want_tree = false to skip materializing the output tree (a multi-MiB
  /// decode) when only the analysis is needed — e.g. for keys whose every
  /// cell diffs against a checkpoint-grown tree instead; `tree` is then
  /// null.
  [[nodiscard]] std::optional<LoadedGolden> load_golden(
      const Key& key, const vfs::MemFs::Options& fs_options,
      bool want_tree = true) const;

  /// Persists a golden entry: the analysis and the golden output tree.
  /// Returns false when the key is unpersistable or the write failed.
  bool save_golden(const Key& key, const AnalysisResult& analysis,
                   const vfs::MemFs& tree) const;

  /// Pins `key`'s entry against eviction for the Lease's lifetime.
  [[nodiscard]] Lease lease(const Key& key) const;

  /// Store-wide GC: removes orphaned temp files (crashed or interrupted
  /// writers) and unlinks entries that fail the checksum or the entry
  /// parser (corrupt, truncated, version-skewed, tree-less).  It only
  /// unlinks — valid entries are left byte for byte — so a crash at any
  /// point leaves a valid store.  Also runs automatically when eviction
  /// alone cannot satisfy the budget, and is exposed as `ffis store gc
  /// <dir>`.
  GcResult gc() const;

  /// This instance's cache-traffic counters.
  [[nodiscard]] Stats stats() const;

  /// Indexed directory total in bytes (entries this process has observed).
  [[nodiscard]] std::uint64_t total_bytes() const;

  /// Path the entry for `key` lives at (golden entries: stage < 0).  Exposed
  /// so tests can corrupt/truncate entries deliberately.
  [[nodiscard]] std::string entry_path(const Key& key) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Test-only: `hook` is invoked with a kill-point name immediately before
  /// each destructive or publishing filesystem step ("save:tmp",
  /// "save:rename", "evict:unlink", "gc:remove-tmp", "gc:drop-invalid").  A
  /// hook that throws simulates a crash at that point — the in-memory index
  /// may then be stale, so tests follow up with
  /// reset_shared_state_for_testing() to model a process restart.  Pass
  /// nullptr to uninstall.  Not thread-safe against concurrent store use;
  /// install before starting work.
  static void set_test_hook(std::function<void(const char*)> hook);

  /// Test-only: drops every per-directory shared state (LRU index, lease
  /// table), as a fresh process would see it.  Outstanding Lease objects
  /// keep their old state alive but no longer affect new store instances.
  static void reset_shared_state_for_testing();

 private:
  /// Writes an encoded entry to `key`'s path (temp file + rename), indexes
  /// it and enforces the budget.
  bool publish(const Key& key, util::Bytes payload) const;
  /// The body both loads share: reads, verifies and parses `key`'s entry,
  /// checks its header against `key`, and hands the parsed entry and its
  /// backing bytes to `decode`.  Counts the hit or the miss; a bad file is
  /// logged and reads as a miss.  Defined in the .cpp, its only user.
  template <class Loaded, class Decode>
  std::optional<Loaded> load_entry(const Key& key, Decode decode) const;

  std::string dir_;
  Options options_;
  std::shared_ptr<CheckpointStoreState> state_;
  /// Guarded by state_->mutex (all mutations happen under it); mutable so
  /// the const load/save API can count.
  mutable Stats stats_;
};

}  // namespace ffis::core
