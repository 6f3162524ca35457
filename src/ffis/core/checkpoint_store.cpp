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
#include <tuple>
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

// -- the entry codec ----------------------------------------------------------
//
// An entry file is a payload plus an 8-byte FNV-1a trailer.  The payload:
//
//   "FFCKPT" | u32 store version | u32 snapshot codec version | u8 kind
//   | str app_name | str app_fingerprint | u64 app_seed | i32 stage
//   | u64 chunk_size                                     (the key header)
//   | golden:     blob comparison | str report | u64 n | n x (str, f64)
//     checkpoint: blob app_state                         (the kind's metadata)
//   | u8 has-trees, always 1 | blob snapshot             (the entry's trees)
//
// A golden entry's snapshot holds the golden output tree; a checkpoint
// entry's holds the prefix snapshot, then the golden tree grown from it, so
// their chunk sharing survives the round trip.  write_entry and parse_entry
// are the only code that knows this layout.

/// A parsed entry: the key its header names (stage -1 marks a golden
/// entry), the kind's metadata, and a view of its snapshot blob.
struct Entry {
  CheckpointStore::Key key;
  AnalysisResult analysis;   ///< golden entries only
  util::ByteSpan app_state;  ///< checkpoint entries only
  util::ByteSpan snapshot;
};

/// Encodes the entry for `key`: a golden entry (key.stage < 0) carries
/// `*analysis`, a checkpoint entry `app_state`; `trees` become its snapshot.
util::Bytes write_entry(const CheckpointStore::Key& key, const AnalysisResult* analysis,
                        util::ByteSpan app_state, std::span<const vfs::MemFs* const> trees) {
  const bool golden = key.stage < 0;
  util::Bytes data;
  util::ByteWriter w(data);
  util::put_signature(w.out(), kMagic);
  w.u32(CheckpointStore::kFormatVersion);
  w.u32(vfs::SnapshotCodec::kFormatVersion);
  w.u8(golden ? kKindGolden : kKindCheckpoint);
  w.str(key.app_name);
  w.str(key.app_fingerprint);
  w.u64(key.app_seed);
  w.i32(golden ? -1 : key.stage);
  w.u64(key.chunk_size);
  if (golden) {
    w.blob(analysis->comparison_blob);
    w.str(analysis->report);
    w.u64(analysis->metrics.size());
    for (const auto& [name, value] : analysis->metrics) {
      w.str(name);
      w.f64(value);
    }
  } else {
    w.blob(app_state);
  }
  w.u8(1);  // has trees: every entry carries them
  w.blob(vfs::SnapshotCodec::encode(trees));
  return data;
}

/// Parses an entry payload strictly: the magic, both versions, a kind that
/// agrees with the stage, the has-trees byte and the exact end must all
/// check out.  The snapshot blob is only framed here; decoding it validates
/// its contents.  Throws std::exception for anything malformed.
Entry parse_entry(util::ByteSpan payload) {
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
  Entry entry;
  entry.key.app_name = r.str();
  entry.key.app_fingerprint = r.str();
  entry.key.app_seed = r.u64();
  entry.key.stage = r.i32();
  entry.key.chunk_size = r.u64();
  const bool golden = entry.key.stage < 0;
  if (kind != (golden ? kKindGolden : kKindCheckpoint)) {
    throw std::runtime_error("entry kind " + std::to_string(kind) + " at stage " +
                             std::to_string(entry.key.stage));
  }
  if (golden) {
    entry.analysis.comparison_blob = r.blob();
    entry.analysis.report = r.str();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string name = r.str();
      entry.analysis.metrics[name] = r.f64();
    }
  } else {
    entry.app_state =
        r.view(static_cast<std::size_t>(r.u64_bounded(r.remaining(), "app_state")));
  }
  // Older builds wrote 0 here for an entry saved without its golden tree.
  // Such an entry reads as a miss, and the rebuild overwrites it.
  if (r.u8() != 1) throw std::runtime_error("entry carries no trees");
  entry.snapshot =
      r.view(static_cast<std::size_t>(r.u64_bounded(r.remaining(), "snapshot")));
  r.expect_end();
  return entry;
}

/// Loads compare the header with the key they asked for, so a filename-hash
/// collision (or a hand-renamed file) can never smuggle a foreign entry in.
bool same_key(const CheckpointStore::Key& a, const CheckpointStore::Key& b) {
  return std::tie(a.app_name, a.app_fingerprint, a.app_seed, a.stage, a.chunk_size) ==
         std::tie(b.app_name, b.app_fingerprint, b.app_seed, b.stage, b.chunk_size);
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
/// dropping invalid entries is the only remaining lever, so run a GC pass.
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

/// The GC pass (see CheckpointStore::gc for the contract).  Its only
/// destructive step is an unlink of a dispensable file, so a crash at any
/// kill point leaves a valid store.
CheckpointStore::GcResult gc_locked(CheckpointStoreState& st, const std::string& dir,
                                    CheckpointStore::Stats& stats) {
  CheckpointStore::GcResult res;
  // Snapshot the listing first: the pass removes entries.
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
      (void)parse_entry(data->payload);
      res.entries_kept += 1;
      // Re-sync the index: gc may be the first observer of another
      // process's entries.
      const std::uint64_t size = data->payload.size() + 8;  // + checksum trailer
      if (CheckpointStoreState::EntryNode* n = st.find(name)) {
        st.set_bytes(n, size);
      } else {
        note_saved_locked(st, name, size);
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

bool CheckpointStore::publish(const Key& key, util::Bytes payload) const {
  const std::string path = entry_path(key);
  const std::uint64_t file_bytes = payload.size() + 8;  // + checksum trailer
  if (!write_checked(path, std::move(payload))) {
    util::log_warn("checkpoint store: could not write {}", path);
    return false;
  }
  const std::string name = fs::path(path).filename().string();
  std::scoped_lock lock(state_->mutex);
  note_saved_locked(*state_, name, file_bytes);
  evict_to_budget_locked(*state_, dir_, options_.budget_bytes, &name, stats_);
  return true;
}

template <class Loaded, class Decode>
std::optional<Loaded> CheckpointStore::load_entry(const Key& key, Decode decode) const {
  const std::string path = entry_path(key);
  try {
    if (const auto data = read_checked(path)) {
      Entry entry = parse_entry(data->payload);
      if (!same_key(entry.key, key)) throw std::runtime_error("entry header names another key");
      Loaded out = decode(entry, *data);
      std::scoped_lock lock(state_->mutex);
      stats_.hits += 1;
      touch_locked(*state_, dir_, fs::path(path).filename().string());
      return out;
    }
  } catch (const std::exception& e) {
    util::log_warn("checkpoint store: rejecting {}: {}", path, e.what());
  }
  std::scoped_lock lock(state_->mutex);
  stats_.misses += 1;
  return std::nullopt;
}

bool CheckpointStore::save_checkpoint(const Key& key, const Checkpoint& checkpoint,
                                      const vfs::MemFs& golden_tree,
                                      util::ByteSpan app_state) const {
  if (key.app_fingerprint.empty() || key.stage < 0) return false;
  const vfs::MemFs* trees[] = {&checkpoint.fs(), &golden_tree};
  return publish(key, write_entry(key, nullptr, app_state, trees));
}

std::optional<CheckpointStore::LoadedCheckpoint> CheckpointStore::load_checkpoint(
    const Key& key, const vfs::MemFs::Options& fs_options, bool want_golden_tree) const {
  if (key.app_fingerprint.empty() || key.stage < 0) return std::nullopt;
  return load_entry<LoadedCheckpoint>(key, [&](const Entry& entry, const CheckedData& data) {
    LoadedCheckpoint out;
    // Loaded snapshots are frozen and fork-only, exactly like captured ones.
    auto checkpoint = std::shared_ptr<Checkpoint>(
        new Checkpoint(key.stage, vfs::MemFs::single_thread(fs_options)));
    // A declined golden tree decodes as a null target: parsed over for
    // framing, never materialized.
    std::shared_ptr<vfs::MemFs> golden_tree;
    if (want_golden_tree) golden_tree.reset(new vfs::MemFs(vfs::MemFs::single_thread(fs_options)));
    vfs::MemFs* const targets[] = {&checkpoint->fs_, golden_tree.get()};
    decode_snapshot(data, entry.snapshot, targets);
    out.checkpoint = std::move(checkpoint);
    out.golden_tree = std::move(golden_tree);
    out.app_state.assign(entry.app_state.begin(), entry.app_state.end());
    return out;
  });
}

bool CheckpointStore::save_golden(const Key& key, const AnalysisResult& analysis,
                                  const vfs::MemFs& tree) const {
  if (key.app_fingerprint.empty()) return false;
  Key golden_key = key;
  golden_key.stage = -1;
  const vfs::MemFs* trees[] = {&tree};
  return publish(golden_key, write_entry(golden_key, &analysis, {}, trees));
}

std::optional<CheckpointStore::LoadedGolden> CheckpointStore::load_golden(
    const Key& key, const vfs::MemFs::Options& fs_options, bool want_tree) const {
  if (key.app_fingerprint.empty()) return std::nullopt;
  Key golden_key = key;
  golden_key.stage = -1;
  return load_entry<LoadedGolden>(golden_key, [&](Entry& entry, const CheckedData& data) {
    LoadedGolden out;
    out.analysis = std::make_shared<const AnalysisResult>(std::move(entry.analysis));
    // A declined tree is never decoded: the snapshot stays an unread view.
    if (want_tree) {
      auto tree =
          std::shared_ptr<vfs::MemFs>(new vfs::MemFs(vfs::MemFs::single_thread(fs_options)));
      vfs::MemFs* const targets[] = {tree.get()};
      decode_snapshot(data, entry.snapshot, targets);
      out.tree = std::move(tree);
    }
    return out;
  });
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
