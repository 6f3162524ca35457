#pragma once
// Extent-based copy-on-write payload store for MemFs.
//
// A file payload is a sequence of fixed-size chunks (extents), each a small
// handle: a payload pointer + stored length + a type-erased keepalive that
// pins the backing memory.  Copying an ExtentStore (what MemFs::fork does
// per node) copies only the handle vector, so a fork stays O(#files); a
// write then detaches only the chunks it touches — O(bytes written) instead
// of O(file size), which is what makes the first post-fork write into a
// multi-MB Nyx plotfile or Montage mosaic cheap.
//
// Three storage backends share the handle representation:
//  * heap chunks (the default) own their buffer through a per-chunk control
//    block, so keepalive.use_count() counts exactly the stores referencing
//    that extent — the classic shared_ptr COW discipline;
//  * arena chunks are carved from a vfs::ExtentArena slab (passed per
//    mutating call); their keepalives all alias the arena's current epoch,
//    one refcount per arena instead of one per chunk.  Because use_count()
//    is then epoch-wide, arena chunks carry an *owner token* instead: every
//    store holds a globally unique token, a chunk is privately owned iff its
//    recorded token matches, and copying a store (fork) re-tokens *both*
//    sides — so after any fork each side conservatively treats inherited
//    arena chunks as shared and detaches before writing.  A stale token can
//    only cause an extra copy, never a shared mutation.
//  * mapped chunks (SnapshotCodec's zero-copy decode) alias a read-only
//    file mapping; their keepalives all alias the util::MappedFile holder,
//    and they carry the reserved kMappedOwner token, which no store's token
//    can ever equal — so they are shared-by-construction: the first write
//    COW-detaches a private heap/arena copy out of the mapping.  The
//    mapping itself is PROT_READ, so a bug that skipped the detach would
//    fault instead of corrupting the page cache.
//
// Representation invariants:
//  * a null chunk handle (data == nullptr) is a hole — every byte in it
//    reads as zero;
//  * an allocated chunk stores between 1 and chunk_size bytes; any chunk may
//    be short (sparse writes leave short interior chunks, not just a short
//    tail), and a chunk's unstored suffix reads as zero — so small files and
//    sparse regions cost their actual bytes, not full extents;
//  * bytes in [size, capacity) of a chunk's buffer are unreachable scratch:
//    reads clamp to the stored size and in-place growth zero-fills before
//    exposing new bytes;
//  * no stored byte lies at or beyond size() (shrinking trims eagerly), so
//    growing the logical size never exposes stale data.
//
// Sharing invariants (what makes extent identity meaningful):
//  * a chunk, once published to a second store (fork/copy), is immutable —
//    every mutation goes through own_chunk, which detaches shared chunks
//    before writing.  Payload-pointer equality between two live stores
//    therefore *proves* byte equality of that extent, which is the whole
//    basis of diff() and shares_all_extents_with().  (Both handles being
//    alive is what makes this ABA-safe: a buffer address can only be reused
//    — by the allocator or by arena recycling — after its last handle is
//    gone, so two live handles with one address are one allocation.)
//  * pointer identity is only meaningful between stores on the same chunk
//    grid — diff() rejects mismatched chunk sizes (and every file of a
//    MemFs uses its Options::chunk_size, which forks inherit);
//  * sharing is observational, never load-bearing for correctness: a chunk
//    rewritten with identical bytes loses its shared pointer but still
//    memcmp-compares equal in diff().  vfs::SnapshotCodec preserves sharing
//    across serialize/deserialize so that trees loaded from one blob keep
//    the pointer-equality fast path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ffis/util/bytes.hpp"
#include "ffis/vfs/fs_diff.hpp"
#include "ffis/vfs/run_counters.hpp"

namespace ffis::vfs {

class ExtentArena;
class SnapshotCodec;

class ExtentStore {
 public:
  /// Default extent size: large enough that chunk bookkeeping is noise for
  /// multi-MB payloads, small enough that a stray write copies little.
  static constexpr std::size_t kDefaultChunkSize = 64 * 1024;

  /// Reserved owner token for extents aliasing a read-only file mapping.
  /// Real tokens count up from 1 (next_owner_token), so a mapped chunk can
  /// never match any store's token: is_shared() is unconditionally true and
  /// every mutation COW-detaches out of the mapping first — immutability by
  /// construction, with no extra branch on the write path.
  static constexpr std::uint64_t kMappedOwner = ~std::uint64_t{0};

  /// Throws std::invalid_argument when chunk_size is 0 or exceeds the
  /// 32-bit per-chunk handle limit (the chunk arithmetic requires a
  /// positive extent; handles store lengths as u32).
  explicit ExtentStore(std::size_t chunk_size = kDefaultChunkSize);

  // Copying shares every chunk (copy-on-write); this is the fork primitive.
  // Both sides receive fresh owner tokens, so arena chunks inherited either
  // way are treated as shared and detach before their next write.
  ExtentStore(const ExtentStore& other);
  ExtentStore& operator=(const ExtentStore& other);
  ExtentStore(ExtentStore&& other) noexcept;
  ExtentStore& operator=(ExtentStore&& other) noexcept;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t chunk_size() const noexcept { return chunk_size_; }

  /// Copies [offset, offset + buf.size()) into buf, zero-filling holes;
  /// returns bytes read (clamped at size(), 0 past EOF).
  std::size_t read(std::uint64_t offset, util::MutableByteSpan buf) const noexcept;

  /// Writes buf at offset, growing the payload as needed (gaps stay holes).
  /// Detaches shared chunks it touches — copying only the stored bytes the
  /// write does *not* overwrite — and charges the work to `stats`.  When
  /// `arena` is non-null, fresh and detached extents are carved from it
  /// instead of the heap.
  void write(std::uint64_t offset, util::ByteSpan buf, FsStats& stats,
             ExtentArena* arena = nullptr);

  /// Sets the logical size.  Growing leaves a hole; shrinking drops whole
  /// chunks past the end and trims the new last chunk (a COW detach when it
  /// is shared, charged to `stats`; carved from `arena` when non-null).
  void resize(std::uint64_t new_size, FsStats& stats, ExtentArena* arena = nullptr);

  /// Drops every chunk reference and zeroes the size (open-for-write
  /// truncation).  COW-free: shared chunks simply lose one owner.
  void clear() noexcept {
    chunks_.clear();
    size_ = 0;
  }

  /// Dirty byte ranges of *this relative to `base` (ascending, merged,
  /// extent-granular — a conservative superset of the truly differing bytes;
  /// an empty result proves the two payloads bit-identical).  Chunks shared
  /// by pointer are proven equal without reading; unshared chunks are
  /// compared by memcmp of their stored bytes (holes and unstored suffixes
  /// read as zero, so a hole equals an all-zero extent).  Fork-derived
  /// stores therefore diff in O(#chunks) pointer tests plus O(bytes
  /// rewritten) memcmp.  Throws std::invalid_argument when the chunk
  /// geometries differ (extent identity is only meaningful on one grid).
  [[nodiscard]] std::vector<ByteRange> diff(const ExtentStore& base) const;

  /// True when every chunk payload pointer (and the size) is identical to
  /// `base` — the structural-sharing signature of a renamed-but-unmodified
  /// file.  Stricter than an empty diff(): rewritten-but-equal payloads
  /// fail it.
  [[nodiscard]] bool shares_all_extents_with(const ExtentStore& base) const noexcept;

  /// Number of allocated (non-hole) extents.
  [[nodiscard]] std::size_t allocated_chunks() const noexcept;

  /// Bytes actually held in extents — the memory footprint, which for
  /// sparse payloads is smaller than size() (holes store nothing).
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept;

  /// Bytes held in extents currently shared with another store — the
  /// payload still pending copy-on-write.  Exact for heap chunks
  /// (per-chunk refcount); conservative for arena chunks, whose owner
  /// token may mark a never-rewritten extent shared after a fork.
  [[nodiscard]] std::uint64_t shared_bytes() const noexcept;

 private:
  /// One extent: payload pointer + stored length + lifetime pin.  `owner`
  /// is 0 for heap chunks (per-chunk use_count decides sharing) and the
  /// allocating store's token for arena chunks (token match decides
  /// sharing; the epoch-wide use_count is meaningless per chunk).
  struct Chunk {
    std::shared_ptr<const void> keepalive;
    const std::byte* data = nullptr;
    std::uint32_t size = 0;      ///< stored bytes (reads clamp here)
    std::uint32_t capacity = 0;  ///< writable bytes at data
    std::uint64_t owner = 0;
  };

  /// The snapshot codec walks chunk handles directly (serialization must
  /// observe sharing, which no byte-level API can express) and rebuilds
  /// stores chunk-by-chunk on load so that trees decoded from one blob
  /// share extents exactly as the serialized trees did.
  friend class SnapshotCodec;

  /// Fresh globally unique owner token (never 0).
  [[nodiscard]] static std::uint64_t next_owner_token() noexcept;

  [[nodiscard]] std::uint64_t owner_token() const noexcept {
    return owner_.load(std::memory_order_relaxed);
  }
  /// Whether `c` may be referenced by another store (must COW before
  /// mutating).  Conservative-true is safe; false requires sole ownership.
  [[nodiscard]] bool is_shared(const Chunk& c) const noexcept {
    return c.owner != 0 ? c.owner != owner_token() : c.keepalive.use_count() > 1;
  }

  /// Uninitialized `capacity`-byte buffer, arena-carved when `arena` is
  /// non-null (then stamped with this store's token), heap otherwise.
  [[nodiscard]] Chunk allocate_chunk(std::size_t size, std::size_t capacity,
                                     FsStats& stats, ExtentArena* arena) const;

  /// The one COW detach path: privatizes an extent into a fresh
  /// `new_size`-byte chunk, preserving stored bytes outside the pending
  /// overwrite window [write_begin, write_end) and zero-filling unstored
  /// gaps; only the preserved bytes are copied and charged to `stats`.
  [[nodiscard]] Chunk detach_chunk(const Chunk& shared, std::size_t new_size,
                                   std::size_t write_begin, std::size_t write_end,
                                   FsStats& stats, ExtentArena* arena) const;

  /// Returns chunk `index` privately owned and at least `min_len` bytes
  /// long, allocating, detaching or growing as needed.  [write_begin,
  /// write_end) is the sub-range the caller overwrites immediately after —
  /// those bytes are neither copied by a detach nor zero-filled.
  std::byte* own_chunk(std::size_t index, std::size_t min_len, std::size_t write_begin,
                       std::size_t write_end, FsStats& stats, ExtentArena* arena);

  std::size_t chunk_size_;
  std::uint64_t size_ = 0;
  std::vector<Chunk> chunks_;
  /// Owner token for arena-chunk COW decisions.  mutable + atomic because
  /// copying re-tokens the *source* as well (concurrent forks of a frozen
  /// checkpoint store race only on this store).
  mutable std::atomic<std::uint64_t> owner_;
};

}  // namespace ffis::vfs
