#include "ffis/vfs/snapshot_codec.hpp"

#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

#include "ffis/util/chunking.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::vfs {

namespace {

// 6-byte container signature; the u32 version follows it.
constexpr std::string_view kMagic = "FFSNAP";

[[noreturn]] void bad(const std::string& what) {
  throw VfsError(VfsError::Code::InvalidArgument, "snapshot codec: " + what);
}

/// One serialized node, collected under the source tree's lock so the
/// encoder can release it before doing any heavy byte work.  The ExtentStore
/// copy is cheap (it shares chunks) and pins every referenced chunk alive
/// for the duration of the encode — the chunk table below can therefore
/// hold raw payload pointers.
struct NodeRec {
  std::string path;
  bool is_dir = false;
  std::uint32_t mode = 0;
  ExtentStore data{ExtentStore::kDefaultChunkSize};
};

/// One pinned extent payload (backed by a NodeRec's store copy).
struct ChunkRef {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  [[nodiscard]] util::ByteSpan span() const noexcept { return {data, size}; }
};

/// Content-addressed chunk table: each distinct payload extent appears once,
/// found by pointer first (structural sharing) and by content hash + memcmp
/// second (equal bytes in unrelated buffers).
class ChunkTable {
 public:
  /// Returns the 1-based reference id for the extent (0 is reserved for
  /// holes).
  std::uint64_t intern(ChunkRef chunk) {
    const auto by_ptr = ids_by_ptr_.find(chunk.data);
    if (by_ptr != ids_by_ptr_.end()) return by_ptr->second;
    const std::uint64_t hash = util::fnv1a64(chunk.span());
    for (const std::uint64_t candidate : ids_by_hash_[hash]) {
      const ChunkRef& existing = chunks_[candidate - 1];
      if (existing.size == chunk.size &&
          std::memcmp(existing.data, chunk.data, existing.size) == 0) {
        ids_by_ptr_.emplace(chunk.data, candidate);
        return candidate;
      }
    }
    chunks_.push_back(chunk);
    const std::uint64_t id = chunks_.size();
    ids_by_ptr_.emplace(chunk.data, id);
    ids_by_hash_[hash].push_back(id);
    return id;
  }

  [[nodiscard]] const std::vector<ChunkRef>& chunks() const noexcept { return chunks_; }

 private:
  std::vector<ChunkRef> chunks_;
  std::unordered_map<const std::byte*, std::uint64_t> ids_by_ptr_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> ids_by_hash_;
};

}  // namespace

util::Bytes SnapshotCodec::encode(std::span<const MemFs* const> trees) {
  // Pass 1: snapshot each tree's node table under its lock.
  std::vector<std::vector<NodeRec>> tree_nodes(trees.size());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const MemFs& fs = *trees[t];
    MemFs::Guard lock(fs.maybe_mutex());
    tree_nodes[t].reserve(fs.nodes_.size());
    for (const auto& [path, node] : fs.nodes_) {
      tree_nodes[t].push_back(NodeRec{path, node->is_dir, node->mode, node->data});
    }
  }

  // Pass 2: intern every extent, then lay out the blob.
  ChunkTable table;
  std::vector<std::vector<std::vector<std::uint64_t>>> refs(trees.size());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    refs[t].resize(tree_nodes[t].size());
    for (std::size_t n = 0; n < tree_nodes[t].size(); ++n) {
      const NodeRec& rec = tree_nodes[t][n];
      if (rec.is_dir) continue;
      refs[t][n].reserve(rec.data.chunks_.size());
      for (const ExtentStore::Chunk& chunk : rec.data.chunks_) {
        refs[t][n].push_back(
            chunk.data != nullptr ? table.intern(ChunkRef{chunk.data, chunk.size}) : 0);
      }
    }
  }

  util::Bytes out;
  util::ByteWriter w(out);
  util::put_signature(out, kMagic);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(trees.size()));
  w.u64(table.chunks().size());
  for (const ChunkRef& chunk : table.chunks()) w.blob(chunk.span());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    w.u64(tree_nodes[t].size());
    for (std::size_t n = 0; n < tree_nodes[t].size(); ++n) {
      const NodeRec& rec = tree_nodes[t][n];
      w.str(rec.path);
      w.u8(rec.is_dir ? 1 : 0);
      w.u32(rec.mode);
      if (!rec.is_dir) {
        w.u64(rec.data.chunk_size());
        w.u64(rec.data.size());
        w.u64(refs[t][n].size());
        for (const std::uint64_t ref : refs[t][n]) w.u64(ref);
      }
    }
  }
  return out;
}

namespace {

/// Parses the fixed header and returns the tree count; leaves `r`
/// positioned at the chunk table.
std::uint32_t read_header(util::ByteReader& r) {
  try {
    const util::ByteSpan sig = r.view(kMagic.size());
    if (util::to_string(sig) != kMagic) bad("bad magic (not a snapshot blob)");
    const std::uint32_t version = r.u32();
    if (version != SnapshotCodec::kFormatVersion) {
      bad("unsupported format version " + std::to_string(version) + " (this build reads " +
          std::to_string(SnapshotCodec::kFormatVersion) + ")");
    }
    return r.u32();
  } catch (const std::out_of_range& e) {
    bad(e.what());
  }
}

}  // namespace

/// Shared body of the copying and zero-copy decode entry points; `backing`
/// is null for the copying path.
void SnapshotCodec::decode_impl(util::ByteSpan blob, std::span<MemFs* const> targets,
                                const std::shared_ptr<const void>* backing) {
  util::ByteReader r(blob);
  const std::uint32_t trees = read_header(r);
  if (trees != targets.size()) {
    bad("blob holds " + std::to_string(trees) + " trees, caller expects " +
        std::to_string(targets.size()));
  }
  for (MemFs* target : targets) {
    if (target != nullptr &&
        (target->nodes_.size() != 1 || !target->nodes_.contains("/") ||
         !target->handles_.empty())) {
      bad("decode target must be a freshly constructed MemFs");
    }
  }

  try {
    // Chunk table: one allocation per distinct extent, shared by every
    // referencing slot below — this is what restores pointer identity.
    // Every entry costs at least 9 bytes (u64 length + 1 payload byte), so
    // a count beyond remaining/9 is corruption — reject it here rather than
    // letting vector::reserve escape as length_error/bad_alloc.
    const std::uint64_t chunk_count = r.u64();
    if (chunk_count > r.remaining() / 9) bad("implausible chunk count");
    std::vector<ExtentStore::Chunk> chunks;
    chunks.reserve(static_cast<std::size_t>(chunk_count));
    for (std::uint64_t i = 0; i < chunk_count; ++i) {
      const std::uint64_t len = r.u64();
      if (len == 0) bad("chunk table entry " + std::to_string(i) + " is empty");
      if (len > std::numeric_limits<std::uint32_t>::max()) {
        bad("chunk table entry " + std::to_string(i) + " exceeds the extent limit");
      }
      const util::ByteSpan payload = r.view(static_cast<std::size_t>(len));
      ExtentStore::Chunk chunk;
      if (backing != nullptr) {
        // Zero-copy: the chunk points straight into the blob and pins the
        // caller's backing (the mapped file) alive.  kMappedOwner makes it
        // shared-by-construction, so the first write detaches out of the
        // mapping — see the header contract.
        chunk.data = payload.data();
        chunk.keepalive = std::shared_ptr<const void>(*backing, payload.data());
        chunk.owner = ExtentStore::kMappedOwner;
      } else {
        // One heap buffer per distinct extent, shared by every referencing
        // slot below — decoded chunks rejoin the per-chunk use_count COW
        // discipline (owner token 0).
        auto buf = std::make_unique_for_overwrite<std::byte[]>(payload.size());
        std::memcpy(buf.get(), payload.data(), payload.size());
        chunk.data = buf.get();
        chunk.keepalive = std::shared_ptr<const void>(
            std::shared_ptr<std::byte[]>(std::move(buf)), chunk.data);
      }
      chunk.size = static_cast<std::uint32_t>(payload.size());
      chunk.capacity = chunk.size;
      chunks.push_back(std::move(chunk));
    }

    for (MemFs* target : targets) {
      std::map<std::string, std::shared_ptr<MemFs::Node>> nodes;
      const std::uint64_t node_count = r.u64();
      for (std::uint64_t n = 0; n < node_count; ++n) {
        const std::string path = r.str();
        const bool is_dir = r.u8() != 0;
        const std::uint32_t mode = r.u32();
        if (target == nullptr) {
          // Skipped tree: consume the record (the slot refs for files) and
          // move on — no materialization, no geometry validation.
          if (!is_dir) {
            (void)r.u64();  // chunk_size
            (void)r.u64();  // logical size
            const std::uint64_t skip_slots = r.u64();
            if (skip_slots > r.remaining() / 8) bad(path + " has implausible slot count");
            for (std::uint64_t s = 0; s < skip_slots; ++s) (void)r.u64();
          }
          continue;
        }
        if (nodes.contains(path)) bad("duplicate node " + path);
        if (is_dir) {
          auto node = std::make_shared<MemFs::Node>(target->chunk_size_);
          node->is_dir = true;
          node->mode = mode;
          nodes.emplace(path, std::move(node));
          continue;
        }
        const std::uint64_t chunk_size = r.u64();
        const std::uint64_t size = r.u64();
        const std::uint64_t slots = r.u64();
        if (chunk_size == 0 || chunk_size > (std::uint64_t{1} << 40)) {
          bad("implausible extent size for " + path);
        }
        // A snapshot only loads into options with the same extent size, and
        // a mismatch names the file instead of surfacing later as a
        // diff_tree failure.
        if (chunk_size != target->chunk_size_) {
          throw VfsError(VfsError::Code::InvalidArgument,
                         "snapshot codec: " + path + " was serialized with " +
                             std::to_string(chunk_size) +
                             "-byte extents but the current chunk_size is " +
                             std::to_string(target->chunk_size_) +
                             "; the snapshot predates a geometry change — recapture it");
        }
        if (slots > util::chunk_count(size, static_cast<std::size_t>(chunk_size)) ||
            slots > r.remaining() / 8) {  // each slot record is a u64
          bad(path + " has more extent slots than its size allows");
        }
        auto node = std::make_shared<MemFs::Node>(static_cast<std::size_t>(chunk_size));
        node->mode = mode;
        node->data.size_ = size;
        node->data.chunks_.reserve(static_cast<std::size_t>(slots));
        for (std::uint64_t s = 0; s < slots; ++s) {
          const std::uint64_t ref = r.u64();
          if (ref == 0) {
            node->data.chunks_.emplace_back();  // hole
            continue;
          }
          if (ref > chunks.size()) bad(path + " references a missing chunk");
          const ExtentStore::Chunk& chunk = chunks[static_cast<std::size_t>(ref - 1)];
          const std::uint64_t begin =
              util::chunk_begin(static_cast<std::size_t>(s),
                                static_cast<std::size_t>(chunk_size));
          if (chunk.size > chunk_size || begin + chunk.size > size) {
            bad(path + " extent " + std::to_string(s) + " violates store invariants");
          }
          node->data.chunks_.push_back(chunk);
        }
        nodes.emplace(path, std::move(node));
      }

      if (target == nullptr) continue;  // skipped tree: nothing to install
      if (!nodes.contains("/")) bad("tree has no root directory");
      for (const auto& [path, node] : nodes) {
        if (path == "/") continue;
        const auto parent = nodes.find(parent_path(path));
        if (parent == nodes.end() || !parent->second->is_dir) {
          bad(path + " has no parent directory");
        }
      }
      target->nodes_ = std::move(nodes);
    }
    r.expect_end();
  } catch (const std::out_of_range& e) {
    bad(e.what());
  }
}

void SnapshotCodec::decode(util::ByteSpan blob, std::span<MemFs* const> targets) {
  decode_impl(blob, targets, nullptr);
}

void SnapshotCodec::decode(util::ByteSpan blob, std::span<MemFs* const> targets,
                           const std::shared_ptr<const void>& backing) {
  if (backing == nullptr) bad("zero-copy decode requires a backing keepalive");
  decode_impl(blob, targets, &backing);
}

}  // namespace ffis::vfs
