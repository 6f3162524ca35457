#pragma once
// Versioned binary serialization of MemFs trees.
//
// A frozen MemFs (a core::Checkpoint snapshot, a golden output tree) is a
// node table plus extent-based COW payloads.  The codec turns one *or
// several* such trees into a single self-contained blob and back:
//
//  * Content-addressed chunk table.  Every payload extent is stored exactly
//    once per blob, keyed by its bytes: chunks shared structurally between
//    trees (a golden tree grown from the checkpoint every run forks), chunks
//    shared between files, and even chunks that merely *happen* to hold the
//    same bytes all collapse to one table entry.  For checkpoint + golden
//    tree pairs this routinely halves the blob.
//  * Sharing survives the round trip.  Decoding materializes each table
//    entry as one shared_ptr<const Bytes> and points every referencing slot
//    of every tree at it — so two trees decoded from one blob share extents
//    exactly where the serialized trees did, and vfs::MemFs::diff_tree keeps
//    its pointer-equality fast path on loaded snapshots.
//  * Geometry is validated on decode.  The blob records each file's extent
//    size; decode checks it against the target's chunk_size and throws a
//    VfsError naming the path on mismatch — so a snapshot captured under
//    another extent size surfaces at load time with a clear message, not
//    as a mid-plan diff_tree failure.
//
// The format is little-endian, fixed-width, and versioned (kFormatVersion in
// the header; decode rejects unknown versions).  The codec itself carries no
// checksum — core::CheckpointStore frames blobs with a whole-file checksum —
// but every read is bounds-checked, so truncated or corrupt input throws
// instead of fabricating state.

#include <memory>
#include <span>
#include <vector>

#include "ffis/util/bytes.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::vfs {

class SnapshotCodec {
 public:
  /// Bump on any change to the blob layout; decode rejects other versions
  /// (callers treat that as a cache miss and re-capture).
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Serializes `trees` (all must be quiescent — the usual frozen-snapshot
  /// contract) into one blob with a shared content-addressed chunk table.
  /// The table holds only extents some slot references, so a blob is born
  /// compact and stays so: nothing ever rewrites one.
  [[nodiscard]] static util::Bytes encode(std::span<const MemFs* const> trees);

  /// Convenience single-tree overload.
  [[nodiscard]] static util::Bytes encode(const MemFs& tree) {
    const MemFs* p = &tree;
    return encode(std::span<const MemFs* const>(&p, 1));
  }

  /// Rebuilds the serialized trees into `targets` (same count as encoded;
  /// each must be freshly constructed — empty except for "/" — with the
  /// Options the snapshot was captured under).  A null target skips that
  /// tree: its records are parsed (bounds-checked) but nothing is
  /// materialized or validated against any Options — callers use this to
  /// decode one tree of a multi-tree blob cheaply.  Throws VfsError:
  ///  * InvalidArgument when the blob is malformed, its version is unknown,
  ///    its tree count differs from targets.size(), or a target is not empty;
  ///  * InvalidArgument naming the offending path when a file's recorded
  ///    extent size disagrees with the target's chunk_size (the snapshot
  ///    was captured under different geometry — recapture instead of
  ///    loading).
  static void decode(util::ByteSpan blob, std::span<MemFs* const> targets);

  /// Convenience single-tree overload.
  static void decode(util::ByteSpan blob, MemFs& target) {
    MemFs* p = &target;
    decode(blob, std::span<MemFs* const>(&p, 1));
  }

  /// Zero-copy decode: like decode(blob, targets), but chunk payloads alias
  /// `blob` itself instead of being memcpy'd into fresh heap buffers.
  /// `backing` must own the memory `blob` points into (typically the
  /// util::MappedFile the checkpoint store mapped the entry through); every
  /// decoded chunk's keepalive aliases it, so the backing lives exactly as
  /// long as any tree still references one of its extents — unlinking or
  /// renaming the underlying file (GC, eviction) never invalidates a live
  /// tree.  Aliased chunks carry ExtentStore::kMappedOwner and are
  /// therefore shared-by-construction: the first write to such an extent
  /// COW-detaches a private copy out of the backing, and pointer identity
  /// between trees decoded from one blob (diff_tree's fast path) is
  /// preserved exactly as in the copying path.
  static void decode(util::ByteSpan blob, std::span<MemFs* const> targets,
                     const std::shared_ptr<const void>& backing);

 private:
  /// Shared body of the copying and zero-copy decode overloads; `backing` is
  /// null for the copying path.  A member (not a free function) because it
  /// rebuilds ExtentStore chunk handles directly under this class's
  /// friendship.
  static void decode_impl(util::ByteSpan blob, std::span<MemFs* const> targets,
                          const std::shared_ptr<const void>* backing);
};

}  // namespace ffis::vfs
