#pragma once
// Mini-HDF5 writer.
//
// Reproduces the write protocol the paper's metadata experiment depends on
// (§IV-D): the library locks the file, performs multiple writes to store the
// raw data, then packs *all* metadata into one block and writes it (the
// penultimate write), finally updates the superblock end-of-file address and
// unlocks.  All metadata lives at file offset 0, immediately followed by raw
// data, so the first dataset's Address of Raw Data equals the metadata block
// size — the invariant the ARD auto-correction uses.  The block is packed
// from the structure declarations in layout.hpp, which also size it.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ffis/h5/field_map.hpp"
#include "ffis/h5/format.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::h5 {

struct WriteOptions {
  /// Bytes per raw-data pwrite.  Real HDF5 issues many partial writes for a
  /// large dataset; the campaign's uniform instance selection then lands
  /// mostly in data, as on the paper's testbed.
  std::size_t data_chunk_bytes = 16384;

  /// Whether to create/remove a ".lock" marker around the write (exercises
  /// the mknod/unlink primitives of the paper's file-locking observation).
  bool lock_file = true;

  /// Capacity (entry slots) of the root group's B-tree node.  The node is
  /// deliberately large and mostly empty: the paper measures that B-tree
  /// nodes occupy 72 % of the metadata and are ~10 % full, which is what
  /// makes 85.7 % of metadata faults benign.
  std::size_t btree_capacity = 104;

  /// Capacity of the symbol-table node (entries of 40 bytes).
  std::size_t snod_capacity = 8;

  /// Trailing "space reserved for future metadata" (bytes).
  std::size_t reserved_tail_bytes = 120;
};

struct WriteInfo {
  std::uint64_t metadata_size = 0;             ///< bytes of the packed block
  std::uint64_t file_size = 0;                 ///< total file size
  std::vector<std::uint64_t> data_addresses;   ///< ARD per dataset
  FieldMap field_map;                          ///< byte map of the metadata
};

/// Stable fingerprint of the write protocol: every WriteOptions field that
/// changes the bytes write_h5 lays down (chunking, lock-file marker, B-tree
/// and SNOD capacities, reserved tail).  Applications using write_h5 fold
/// this into Application::state_fingerprint() so persistent checkpoints
/// (core::CheckpointStore) are invalidated when the layout options change —
/// a stale plotfile snapshot would otherwise diff incorrectly against trees
/// written under the new layout.
[[nodiscard]] std::string options_fingerprint(const WriteOptions& options);

/// Writes `file` to `path` through `fs` using the paper's write protocol.
[[nodiscard]] WriteInfo write_h5(vfs::FileSystem& fs, const std::string& path,
                                 const H5File& file, const WriteOptions& options = {});

/// The same write with the raw data supplied apart from the layout: `shape`
/// names the datasets (names, dims, formats; each `data` is ignored, as in
/// plan_layout) and `values[i]` holds dataset i's elements.  A canonical
/// dataset is written straight from `values[i]`'s bytes, so callers holding
/// their data elsewhere never copy it into a Dataset.  Issues exactly the
/// pwrites of the overload above.
[[nodiscard]] WriteInfo write_h5(vfs::FileSystem& fs, const std::string& path,
                                 const H5File& shape,
                                 std::span<const std::span<const double>> values,
                                 const WriteOptions& options = {});

/// Computes the metadata layout (field map, metadata size, per-dataset ARD)
/// without performing any I/O.  Deterministic for a given file structure —
/// used by the metadata doctor to locate fields inside corrupted files.
/// The layout depends only on dataset names/dims/options, so shape-only
/// H5Files (empty `data`) are accepted.
[[nodiscard]] WriteInfo plan_layout(const H5File& file, const WriteOptions& options = {});

/// Half-open byte range [begin, end) of one dataset's raw data in the
/// planned file.
struct DatasetRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] bool contains(std::uint64_t offset, std::uint64_t length) const noexcept {
    return begin <= offset && offset + length <= end;
  }
};

/// Raw-data byte ranges per dataset, in dataset order, derived from a
/// planned (or written) layout.  Datasets are contiguous and in order, so
/// dataset i spans [address[i], address[i+1]) and the last one ends at the
/// file size; everything before the first address is metadata.  This is how
/// extent-diff dirty ranges are mapped back onto datasets/slabs: a dirty
/// range inside exactly one DatasetRange re-derives only that dataset's
/// affected elements, a dirty range below `metadata_size` forces the full
/// analysis path (metadata corruption must go through the real parser).
[[nodiscard]] std::vector<DatasetRange> dataset_byte_ranges(const WriteInfo& info);

}  // namespace ffis::h5
