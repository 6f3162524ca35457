#include "ffis/core/checkpoint_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ffis/util/logging.hpp"
#include "ffis/util/mapped_file.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/snapshot_codec.hpp"

namespace ffis::core {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared per-directory state: the LRU index and the lease table.
//
// One instance exists per store directory per process (keyed by canonical
// path), shared by every CheckpointStore opened on that directory — so three
// concurrent engines on one shared dir agree on recency, on the byte total,
// and on which entries are pinned.  The LRU order itself is an intrusive
// doubly-linked list over heap nodes owned by the name → node map; it is
// rebuilt from entry mtimes on the first open (oldest first), and a load hit
// re-stamps its file's mtime so the order survives into the next process.

struct CheckpointStoreState {
  struct EntryNode {
    std::string name;  ///< entry filename within the directory
    std::uint64_t bytes = 0;
    std::uint32_t leases = 0;
    EntryNode* prev = nullptr;  ///< toward MRU
    EntryNode* next = nullptr;  ///< toward LRU
  };

  std::mutex mutex;
  // Everything below is guarded by `mutex`.
  std::unordered_map<std::string, std::unique_ptr<EntryNode>> nodes;
  EntryNode* head = nullptr;  ///< most recently used
  EntryNode* tail = nullptr;  ///< least recently used — first eviction victim
  std::uint64_t total_bytes = 0;
  bool scanned = false;

  void detach(EntryNode* n) noexcept {
    (n->prev != nullptr ? n->prev->next : head) = n->next;
    (n->next != nullptr ? n->next->prev : tail) = n->prev;
    n->prev = n->next = nullptr;
  }

  void push_front(EntryNode* n) noexcept {
    n->next = head;
    if (head != nullptr) head->prev = n;
    head = n;
    if (tail == nullptr) tail = n;
  }

  [[nodiscard]] EntryNode* find(const std::string& name) {
    const auto it = nodes.find(name);
    return it == nodes.end() ? nullptr : it->second.get();
  }

  EntryNode* find_or_create(const std::string& name) {
    if (EntryNode* n = find(name)) return n;
    auto node = std::make_unique<EntryNode>();
    node->name = name;
    EntryNode* n = node.get();
    nodes.emplace(name, std::move(node));
    push_front(n);
    return n;
  }

  void set_bytes(EntryNode* n, std::uint64_t bytes) noexcept {
    total_bytes -= n->bytes;
    total_bytes += bytes;
    n->bytes = bytes;
  }

  void erase(EntryNode* n) {
    total_bytes -= n->bytes;
    detach(n);
    nodes.erase(n->name);
  }
};

namespace {

constexpr std::string_view kMagic = "FFCKPT";
constexpr std::uint8_t kKindCheckpoint = 1;
constexpr std::uint8_t kKindGolden = 2;

// -- process-wide registry + test seams -------------------------------------

std::mutex g_registry_mutex;

std::map<std::string, std::shared_ptr<CheckpointStoreState>>& registry() {
  // Leaked on purpose: stores may be destroyed during static teardown.
  static auto* m = new std::map<std::string, std::shared_ptr<CheckpointStoreState>>();
  return *m;
}

std::function<void(const char*)> g_test_hook;

/// Crash simulation seam: fires before each destructive/publishing fs step.
/// A throwing hook models a process dying right there.
void kill_point(const char* name) {
  if (g_test_hook) g_test_hook(name);
}

// -- filenames ---------------------------------------------------------------

/// Filename-safe rendering of an application name.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out.empty() ? std::string("app") : out;
}

std::string hex16(std::uint64_t v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// The fingerprint/version/geometry portion of the key, folded into the
/// filename so incompatible entries live side by side instead of thrashing
/// one path (the fields are re-verified from the entry header on load).
/// The exact app name participates too: sanitize() is lossy, so two names
/// that render to the same filename stem must still get distinct paths.
std::uint64_t key_hash(const CheckpointStore::Key& key) {
  util::Bytes buf;
  util::ByteWriter w(buf);
  w.str(key.app_name);
  w.str(key.app_fingerprint);
  w.u64(key.chunk_size);
  w.u32(CheckpointStore::kFormatVersion);
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  return util::fnv1a64(buf);
}

bool is_entry_name(const std::string& name) {
  return name.size() > 5 && name.ends_with(".ffck") &&
         name.find(".tmp-") == std::string::npos;
}

bool is_temp_name(const std::string& name) {
  return name.find(".tmp-") != std::string::npos;
}

// -- entry payload helpers ---------------------------------------------------

void write_analysis(util::ByteWriter& w, const AnalysisResult& analysis) {
  w.blob(analysis.comparison_blob);
  w.str(analysis.report);
  w.u64(analysis.metrics.size());
  for (const auto& [name, value] : analysis.metrics) {
    w.str(name);
    w.f64(value);
  }
}

AnalysisResult read_analysis(util::ByteReader& r) {
  AnalysisResult analysis;
  analysis.comparison_blob = r.blob();
  analysis.report = r.str();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    analysis.metrics[name] = r.f64();
  }
  return analysis;
}

/// Header fields every entry carries; load verifies them against the key so
/// a filename-hash collision (or a hand-renamed file) can never smuggle a
/// foreign entry in.
void write_key_header(util::ByteWriter& w, const CheckpointStore::Key& key,
                      std::uint8_t kind, int stage) {
  util::put_signature(w.out(), kMagic);
  w.u32(CheckpointStore::kFormatVersion);
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  w.u8(kind);
  w.str(key.app_name);
  w.str(key.app_fingerprint);
  w.u64(key.app_seed);
  w.i32(stage);
  w.u64(key.chunk_size);
}

/// Parses and verifies the header; throws std::runtime_error on mismatch.
void read_key_header(util::ByteReader& r, const CheckpointStore::Key& key,
                     std::uint8_t kind, int stage) {
  if (util::to_string(r.view(kMagic.size())) != kMagic) {
    throw std::runtime_error("bad magic");
  }
  if (const auto v = r.u32(); v != CheckpointStore::kFormatVersion) {
    throw std::runtime_error("store format version " + std::to_string(v));
  }
  if (const auto v = r.u32(); v != vfs::SnapshotCodec::kFormatVersion) {
    throw std::runtime_error("snapshot codec version " + std::to_string(v));
  }
  if (r.u8() != kind) throw std::runtime_error("entry kind mismatch");
  if (r.str() != key.app_name) throw std::runtime_error("application name mismatch");
  if (r.str() != key.app_fingerprint) throw std::runtime_error("fingerprint mismatch");
  if (r.u64() != key.app_seed) throw std::runtime_error("app_seed mismatch");
  if (r.i32() != stage) throw std::runtime_error("stage mismatch");
  if (r.u64() != key.chunk_size) throw std::runtime_error("chunk_size mismatch");
}

/// Structural (key-agnostic) view of an entry payload: where its snapshot
/// blob sits.  GC uses this to compact entries it holds no Key for — it
/// validates the framing (magic, versions, kind, field bounds, exact end)
/// without being able to check the key fields against anything.  Throws for
/// anything malformed.
struct EntryLayout {
  std::size_t blob_frame_offset = 0;  ///< offset of the blob's u64 length field
  util::ByteSpan blob;                ///< the SnapshotCodec blob
  bool has_blob = false;
};

EntryLayout parse_entry_layout(util::ByteSpan payload) {
  util::ByteReader r{payload};
  if (util::to_string(r.view(kMagic.size())) != kMagic) {
    throw std::runtime_error("bad magic");
  }
  if (const auto v = r.u32(); v != CheckpointStore::kFormatVersion) {
    throw std::runtime_error("store format version " + std::to_string(v));
  }
  if (const auto v = r.u32(); v != vfs::SnapshotCodec::kFormatVersion) {
    throw std::runtime_error("snapshot codec version " + std::to_string(v));
  }
  const std::uint8_t kind = r.u8();
  if (kind != kKindCheckpoint && kind != kKindGolden) {
    throw std::runtime_error("unknown entry kind " + std::to_string(kind));
  }
  (void)r.str();  // app_name
  (void)r.str();  // app_fingerprint
  (void)r.u64();  // app_seed
  (void)r.i32();  // stage
  (void)r.u64();  // chunk_size
  if (kind == kKindCheckpoint) {
    (void)r.view(static_cast<std::size_t>(
        r.u64_bounded(r.remaining(), "app_state")));  // app_state blob
    (void)r.u8();                                     // has_golden_tree
  } else {
    AnalysisResult scratch = read_analysis(r);  // bounds-checked skip
    (void)scratch;
    if (r.u8() == 0) {  // treeless golden entry: no blob at all
      r.expect_end();
      return EntryLayout{};
    }
  }
  EntryLayout out;
  out.blob_frame_offset = payload.size() - r.remaining();
  out.blob = r.view(static_cast<std::size_t>(r.u64_bounded(r.remaining(), "snapshot")));
  out.has_blob = true;
  r.expect_end();
  return out;
}

// -- checked file IO ---------------------------------------------------------

/// A verified entry payload plus whatever owns its bytes: `backing` (the
/// file mapping) for the zero-copy path, `buffer` for the buffered fallback.
struct CheckedData {
  util::ByteSpan payload;
  std::shared_ptr<const void> backing;  ///< non-null iff mmap'd
  util::Bytes buffer;
};

/// Splits `bytes` into payload and 8-byte FNV-1a trailer and verifies the
/// checksum — the one check both ways of reading share.
util::ByteSpan verify_trailer(const std::string& path, util::ByteSpan bytes) {
  if (bytes.size() < 8) {
    throw std::runtime_error(path + ": " + std::to_string(bytes.size()) +
                             " bytes, shorter than the 8-byte checksum trailer");
  }
  const std::size_t payload = bytes.size() - 8;
  if (util::get_le(bytes, payload, 8) != util::fnv1a64(bytes.first(payload))) {
    throw std::runtime_error(path + ": checksum mismatch over " + std::to_string(payload) +
                             " payload bytes");
  }
  return bytes.first(payload);
}

/// Maps a whole entry file and verifies its trailing checksum before
/// anything downstream sees a byte.  Falls back to a buffered read when the
/// file cannot be mapped (empty, special, or mmap-hostile filesystem).
/// Returns nullopt for missing files; throws std::runtime_error — naming the
/// path and the byte offset involved — for unreadable, truncated or corrupt
/// ones.
std::optional<CheckedData> read_checked(const std::string& path) {
  CheckedData out;
  if (auto mapped = util::MappedFile::map(path)) {
    out.payload = verify_trailer(path, mapped->bytes());
    out.backing = std::shared_ptr<const void>(std::move(mapped));
    return out;
  }
  // Unmappable (or vanished): the buffered read distinguishes a plain miss
  // from an IO error.
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // plain miss
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < 0 || !in) {
    throw std::runtime_error(path + ": cannot determine file size");
  }
  out.buffer.resize(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out.buffer.data()), size);
    if (!in || in.gcount() != size) {
      const std::streamsize got_bytes = in.gcount() < 0 ? 0 : in.gcount();
      throw std::runtime_error(path + ": read failed at byte offset " +
                               std::to_string(got_bytes) + " of " +
                               std::to_string(size));
    }
  }
  out.payload = verify_trailer(path, out.buffer);
  return out;
}

/// Decodes a snapshot blob read out of `data`: aliasing the mapping when
/// there is one, copying out of the buffer otherwise.
void decode_snapshot(const CheckedData& data, util::ByteSpan snapshot,
                     std::span<vfs::MemFs* const> targets) {
  if (data.backing != nullptr) {
    vfs::SnapshotCodec::decode(snapshot, targets, data.backing);
  } else {
    vfs::SnapshotCodec::decode(snapshot, targets);
  }
}

/// Atomically publishes `data` (plus its checksum trailer) at `path` via a
/// unique temp file + rename, so concurrent writers and crashed processes
/// can never leave a half-written entry behind.  Kill points: "save:tmp"
/// before the temp file exists, "save:rename" after it is fully written but
/// before it is published — a crash there leaves an orphan temp for gc().
bool write_checked(const std::string& path, util::Bytes data) {
  static std::atomic<std::uint64_t> counter{0};
  util::ByteWriter w(data);
  w.u64(util::fnv1a64(util::ByteSpan(data).first(data.size())));
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
  kill_point("save:tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  kill_point("save:rename");
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

vfs::MemFs::Options frozen_options(const vfs::MemFs::Options& fs_options) {
  vfs::MemFs::Options options = fs_options;
  // Loaded snapshots are frozen and fork-only, exactly like captured ones.
  options.concurrency = vfs::MemFs::Concurrency::SingleThread;
  return options;
}

// -- LRU index maintenance (all *_locked: caller holds state.mutex) ----------

/// First open per process: rebuild the LRU order from entry mtimes, oldest
/// first, so the list tail is the least recently used entry across *all*
/// prior processes, not just this one.
void ensure_scanned_locked(CheckpointStoreState& st, const std::string& dir) {
  if (st.scanned) return;
  st.scanned = true;
  struct Seen {
    std::string name;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
  };
  std::vector<Seen> seen;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    std::error_code fec;
    if (!e.is_regular_file(fec)) continue;
    const std::string name = e.path().filename().string();
    if (!is_entry_name(name)) continue;
    Seen s;
    s.name = name;
    const auto size = e.file_size(fec);
    if (fec) continue;
    s.bytes = size;
    s.mtime = e.last_write_time(fec);
    if (fec) s.mtime = fs::file_time_type::min();
    seen.push_back(std::move(s));
  }
  std::sort(seen.begin(), seen.end(),
            [](const Seen& a, const Seen& b) { return a.mtime < b.mtime; });
  for (const Seen& s : seen) {  // oldest pushed first ends up at the tail
    CheckpointStoreState::EntryNode* n = st.find_or_create(s.name);
    st.set_bytes(n, s.bytes);
    st.detach(n);
    st.push_front(n);
  }
}

/// A load hit: move to MRU and re-stamp the file so the recency survives
/// into the next process's scan.
void touch_locked(CheckpointStoreState& st, const std::string& dir,
                  const std::string& name) {
  if (CheckpointStoreState::EntryNode* n = st.find(name)) {
    st.detach(n);
    st.push_front(n);
  }
  std::error_code ec;
  fs::last_write_time(fs::path(dir) / name, fs::file_time_type::clock::now(), ec);
}

void note_saved_locked(CheckpointStoreState& st, const std::string& name,
                       std::uint64_t bytes) {
  CheckpointStoreState::EntryNode* n = st.find_or_create(name);
  st.set_bytes(n, bytes);
  st.detach(n);
  st.push_front(n);
}

CheckpointStore::GcResult gc_locked(CheckpointStoreState& st, const std::string& dir,
                                    CheckpointStore::Stats& stats);

/// Evict from the LRU tail until the indexed total is back under the
/// low-water mark (budget − budget/8 — hysteresis, so one hot save does not
/// trigger an eviction on every subsequent write).  Leased entries and
/// `keep` (the entry a save just published) are skipped.  If a full sweep
/// still leaves the total over budget, everything left is pinned —
/// compaction is the only remaining lever, so run a GC pass.
void evict_to_budget_locked(CheckpointStoreState& st, const std::string& dir,
                            std::uint64_t budget, const std::string* keep,
                            CheckpointStore::Stats& stats) {
  if (budget == 0 || st.total_bytes <= budget) return;
  const std::uint64_t low_water = budget - budget / 8;
  CheckpointStoreState::EntryNode* n = st.tail;
  while (n != nullptr && st.total_bytes > low_water) {
    CheckpointStoreState::EntryNode* prev = n->prev;
    if (n->leases == 0 && (keep == nullptr || n->name != *keep)) {
      if (n->bytes > 0) {
        kill_point("evict:unlink");
        std::error_code ec;
        fs::remove(fs::path(dir) / n->name, ec);
        stats.evictions += 1;
        stats.bytes_evicted += n->bytes;
      }
      st.erase(n);
    }
    n = prev;
  }
  if (st.total_bytes > budget) gc_locked(st, dir, stats);
}

/// The GC/compaction pass (see CheckpointStore::gc for the contract).  Every
/// destructive step is either an unlink of a dispensable file or the same
/// temp+rename publication a save uses, so a crash at any kill point leaves
/// a valid store.
CheckpointStore::GcResult gc_locked(CheckpointStoreState& st, const std::string& dir,
                                    CheckpointStore::Stats& stats) {
  CheckpointStore::GcResult res;
  // Snapshot the listing first: the pass removes and renames entries.
  std::vector<std::string> names;
  {
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      std::error_code fec;
      if (!e.is_regular_file(fec)) continue;
      names.push_back(e.path().filename().string());
    }
  }
  for (const std::string& name : names) {
    const std::string path = (fs::path(dir) / name).string();
    std::error_code ec;
    if (is_temp_name(name)) {
      const auto size = fs::file_size(path, ec);
      kill_point("gc:remove-tmp");
      if (fs::remove(path, ec)) {
        res.temp_files_removed += 1;
        if (size != static_cast<std::uintmax_t>(-1)) res.bytes_reclaimed += size;
      }
      continue;
    }
    if (!is_entry_name(name)) continue;
    try {
      const auto data = read_checked(path);
      if (!data) continue;  // vanished underneath us
      const EntryLayout layout = parse_entry_layout(data->payload);
      const std::uint64_t old_file_bytes = data->payload.size() + 8;
      if (layout.has_blob) {
        if (const auto compacted = vfs::SnapshotCodec::compact(layout.blob)) {
          util::Bytes rebuilt(data->payload.begin(),
                              data->payload.begin() +
                                  static_cast<std::ptrdiff_t>(layout.blob_frame_offset));
          util::ByteWriter w(rebuilt);
          w.blob(*compacted);
          const std::uint64_t new_file_bytes = rebuilt.size() + 8;
          if (new_file_bytes < old_file_bytes) {
            kill_point("gc:rewrite");
            if (write_checked(path, std::move(rebuilt))) {
              res.entries_compacted += 1;
              res.bytes_reclaimed += old_file_bytes - new_file_bytes;
              note_saved_locked(st, name, new_file_bytes);
            }
          }
        }
      }
      res.entries_kept += 1;
      // Re-sync the index: gc may be the first observer of another
      // process's entries.
      std::error_code sec;
      const auto size = fs::file_size(path, sec);
      if (!sec) {
        if (CheckpointStoreState::EntryNode* n = st.find(name)) {
          st.set_bytes(n, size);
        } else {
          note_saved_locked(st, name, size);
        }
      }
    } catch (const std::exception& e) {
      util::log_warn("checkpoint store: gc dropping {}: {}", path, e.what());
      const auto size = fs::file_size(path, ec);
      kill_point("gc:drop-invalid");
      if (fs::remove(path, ec)) {
        res.invalid_entries_removed += 1;
        if (size != static_cast<std::uintmax_t>(-1)) res.bytes_reclaimed += size;
      }
      if (CheckpointStoreState::EntryNode* n = st.find(name)) {
        if (n->leases > 0) {
          st.set_bytes(n, 0);  // keep the pin, drop the accounting
        } else {
          st.erase(n);
        }
      }
    }
  }
  res.bytes_after = st.total_bytes;
  stats.gc_runs += 1;
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Lease

CheckpointStore::Lease::Lease(std::shared_ptr<CheckpointStoreState> state,
                              std::string name)
    : state_(std::move(state)), name_(std::move(name)) {}

CheckpointStore::Lease::Lease(Lease&& other) noexcept
    : state_(std::move(other.state_)), name_(std::move(other.name_)) {
  other.state_.reset();
}

CheckpointStore::Lease& CheckpointStore::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    state_ = std::move(other.state_);
    name_ = std::move(other.name_);
    other.state_.reset();
  }
  return *this;
}

CheckpointStore::Lease::~Lease() { release(); }

void CheckpointStore::Lease::release() noexcept {
  if (!state_) return;
  std::scoped_lock lock(state_->mutex);
  if (CheckpointStoreState::EntryNode* n = state_->find(name_)) {
    if (n->leases > 0) n->leases -= 1;
  }
  state_.reset();
}

// ---------------------------------------------------------------------------
// CheckpointStore

CheckpointStore::Key CheckpointStore::Key::of(const Application& app,
                                              std::uint64_t app_seed, int stage,
                                              const vfs::MemFs::Options& fs_options) {
  return Key{app.name(), app.state_fingerprint(), app_seed, stage, fs_options.chunk_size};
}

CheckpointStore::CheckpointStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (dir_.empty()) throw std::runtime_error("CheckpointStore: empty directory path");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("CheckpointStore: cannot create directory " + dir_ + ": " +
                             ec.message());
  }
  std::string canonical = dir_;
  if (const fs::path p = fs::canonical(dir_, ec); !ec) canonical = p.string();
  {
    std::scoped_lock lock(g_registry_mutex);
    std::shared_ptr<CheckpointStoreState>& slot = registry()[canonical];
    if (!slot) slot = std::make_shared<CheckpointStoreState>();
    state_ = slot;
  }
  std::scoped_lock lock(state_->mutex);
  ensure_scanned_locked(*state_, dir_);
  evict_to_budget_locked(*state_, dir_, options_.budget_bytes, nullptr, stats_);
}

std::string CheckpointStore::entry_path(const Key& key) const {
  const std::string stage_part =
      key.stage < 0 ? std::string("golden") : "st" + std::to_string(key.stage);
  return (fs::path(dir_) / (sanitize(key.app_name) + "-s" + std::to_string(key.app_seed) +
                            "-" + stage_part + "-" + hex16(key_hash(key)) + ".ffck"))
      .string();
}

bool CheckpointStore::save_checkpoint(const Key& key, const Checkpoint& checkpoint,
                                      const vfs::MemFs* golden_tree,
                                      util::ByteSpan app_state) const {
  if (key.app_fingerprint.empty() || key.stage < 0) return false;
  util::Bytes data;
  util::ByteWriter w(data);
  write_key_header(w, key, kKindCheckpoint, key.stage);
  w.blob(app_state);
  w.u8(golden_tree != nullptr ? 1 : 0);
  std::vector<const vfs::MemFs*> trees{&checkpoint.fs()};
  if (golden_tree != nullptr) trees.push_back(golden_tree);
  w.blob(vfs::SnapshotCodec::encode(
      std::span<const vfs::MemFs* const>(trees.data(), trees.size())));
  const std::string path = entry_path(key);
  const std::uint64_t file_bytes = data.size() + 8;  // + checksum trailer
  if (!write_checked(path, std::move(data))) {
    util::log_warn("checkpoint store: could not write {}", path);
    return false;
  }
  const std::string name = fs::path(path).filename().string();
  std::scoped_lock lock(state_->mutex);
  note_saved_locked(*state_, name, file_bytes);
  evict_to_budget_locked(*state_, dir_, options_.budget_bytes, &name, stats_);
  return true;
}

std::optional<CheckpointStore::LoadedCheckpoint> CheckpointStore::load_checkpoint(
    const Key& key, const vfs::MemFs::Options& fs_options, bool want_golden_tree) const {
  if (key.app_fingerprint.empty() || key.stage < 0) return std::nullopt;
  const std::string path = entry_path(key);
  try {
    const auto data = read_checked(path);
    if (!data) {
      std::scoped_lock lock(state_->mutex);
      stats_.misses += 1;
      return std::nullopt;
    }
    util::ByteReader r{data->payload};
    read_key_header(r, key, kKindCheckpoint, key.stage);

    LoadedCheckpoint out;
    out.app_state = r.blob();
    const bool has_golden_tree = r.u8() != 0;
    // View, not copy: the codec reads straight out of the file buffer (or
    // the mapping, on the zero-copy path).
    const util::ByteSpan snapshot = r.view(static_cast<std::size_t>(r.u64()));
    r.expect_end();

    std::shared_ptr<Checkpoint> checkpoint(
        new Checkpoint(key.stage, frozen_options(fs_options)));
    std::vector<vfs::MemFs*> targets{&checkpoint->fs_};
    std::shared_ptr<vfs::MemFs> golden_tree;
    if (has_golden_tree) {
      // A declined golden tree decodes as a null target: parsed over for
      // framing, never materialized.
      if (want_golden_tree) {
        golden_tree =
            std::shared_ptr<vfs::MemFs>(new vfs::MemFs(frozen_options(fs_options)));
      }
      targets.push_back(golden_tree.get());
    }
    decode_snapshot(*data, snapshot, targets);
    out.checkpoint = std::move(checkpoint);
    out.golden_tree = std::move(golden_tree);
    {
      std::scoped_lock lock(state_->mutex);
      stats_.hits += 1;
      touch_locked(*state_, dir_, fs::path(path).filename().string());
    }
    return out;
  } catch (const std::exception& e) {
    util::log_warn("checkpoint store: rejecting {}: {}", path, e.what());
    std::scoped_lock lock(state_->mutex);
    stats_.misses += 1;
    return std::nullopt;
  }
}

bool CheckpointStore::save_golden(const Key& key, const AnalysisResult& analysis,
                                  const vfs::MemFs* tree) const {
  if (key.app_fingerprint.empty()) return false;
  Key golden_key = key;
  golden_key.stage = -1;
  util::Bytes data;
  util::ByteWriter w(data);
  write_key_header(w, golden_key, kKindGolden, -1);
  write_analysis(w, analysis);
  w.u8(tree != nullptr ? 1 : 0);
  if (tree != nullptr) {
    w.blob(vfs::SnapshotCodec::encode(*tree));
  }
  const std::string path = entry_path(golden_key);
  const std::uint64_t file_bytes = data.size() + 8;  // + checksum trailer
  if (!write_checked(path, std::move(data))) {
    util::log_warn("checkpoint store: could not write {}", path);
    return false;
  }
  const std::string name = fs::path(path).filename().string();
  std::scoped_lock lock(state_->mutex);
  note_saved_locked(*state_, name, file_bytes);
  evict_to_budget_locked(*state_, dir_, options_.budget_bytes, &name, stats_);
  return true;
}

std::optional<CheckpointStore::LoadedGolden> CheckpointStore::load_golden(
    const Key& key, const vfs::MemFs::Options& fs_options, bool want_tree) const {
  if (key.app_fingerprint.empty()) return std::nullopt;
  Key golden_key = key;
  golden_key.stage = -1;
  const std::string path = entry_path(golden_key);
  try {
    const auto data = read_checked(path);
    if (!data) {
      std::scoped_lock lock(state_->mutex);
      stats_.misses += 1;
      return std::nullopt;
    }
    util::ByteReader r{data->payload};
    read_key_header(r, golden_key, kKindGolden, -1);

    LoadedGolden out;
    out.analysis = std::make_shared<const AnalysisResult>(read_analysis(r));
    const bool has_tree = r.u8() != 0;
    if (has_tree) {
      // View, not copy — and when the caller declined the tree, the blob is
      // only skipped over for framing validation, never materialized.
      const util::ByteSpan snapshot = r.view(static_cast<std::size_t>(r.u64()));
      r.expect_end();
      if (want_tree) {
        auto tree =
            std::shared_ptr<vfs::MemFs>(new vfs::MemFs(frozen_options(fs_options)));
        vfs::MemFs* target = tree.get();
        decode_snapshot(*data, snapshot, std::span<vfs::MemFs* const>(&target, 1));
        out.tree = std::move(tree);
      }
    } else {
      r.expect_end();
    }
    {
      std::scoped_lock lock(state_->mutex);
      stats_.hits += 1;
      touch_locked(*state_, dir_, fs::path(path).filename().string());
    }
    return out;
  } catch (const std::exception& e) {
    util::log_warn("checkpoint store: rejecting {}: {}", path, e.what());
    std::scoped_lock lock(state_->mutex);
    stats_.misses += 1;
    return std::nullopt;
  }
}

CheckpointStore::Lease CheckpointStore::lease(const Key& key) const {
  const std::string name = fs::path(entry_path(key)).filename().string();
  std::scoped_lock lock(state_->mutex);
  CheckpointStoreState::EntryNode* n = state_->find_or_create(name);
  n->leases += 1;
  return Lease(state_, name);
}

CheckpointStore::GcResult CheckpointStore::gc() const {
  std::scoped_lock lock(state_->mutex);
  return gc_locked(*state_, dir_, stats_);
}

CheckpointStore::Stats CheckpointStore::stats() const {
  std::scoped_lock lock(state_->mutex);
  return stats_;
}

std::uint64_t CheckpointStore::total_bytes() const {
  std::scoped_lock lock(state_->mutex);
  return state_->total_bytes;
}

void CheckpointStore::set_test_hook(std::function<void(const char*)> hook) {
  g_test_hook = std::move(hook);
}

void CheckpointStore::reset_shared_state_for_testing() {
  std::scoped_lock lock(g_registry_mutex);
  registry().clear();
}

}  // namespace ffis::core
