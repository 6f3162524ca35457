#pragma once
// Extent-identity tree diffs.
//
// The outcome taxonomy (Benign / Detected / SDC / Crash) is decided by
// comparing a faulty run's output against the golden run.  Re-reading and
// re-analyzing every artifact per run is wasted work when ~90 % of runs are
// bit-identical; because MemFs forks share payload extents structurally
// (shared_ptr chunks), two fork-derived trees can be compared by *pointer
// identity* instead of byte-blind re-reads:
//
//  * a chunk pointer shared by both trees proves those bytes equal without
//    reading them — the whole untouched prefix of a checkpointed run costs
//    one pointer comparison per extent;
//  * chunks that are not shared (the continuation rewrote them) are compared
//    by memcmp of just those extents, so a rewritten-but-identical dataset
//    still classifies clean at O(bytes rewritten), not O(file);
//  * neither path issues a single FileSystem-level read.
//
// The result is conservative only in granularity: dirty ranges are reported
// at extent granularity, so they are a superset of the truly differing bytes
// but never miss a difference — which is exactly what "empty diff implies
// bit-identical tree" (the Benign fast path) requires.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ffis::vfs {

/// Half-open dirty byte range [offset, offset + length) within one file.
///
/// Semantics (what a range does and does not promise):
///  * Conservative superset: every byte that actually differs is inside some
///    range, but a range may cover equal bytes too — ExtentStore::diff
///    reports at extent granularity, so one differing byte dirties its whole
///    extent.  "No range covers offset X" therefore proves byte X equal;
///    "a range covers X" proves nothing about X itself.
///  * Normalized: within a FileDiff, ranges are in ascending offset order,
///    non-overlapping, with adjacent ranges merged, and length > 0.
///  * Clamped to max(base_size, size): a pure size change (truncate or
///    extend) appears as one range covering [min(sizes), max(sizes)) — the
///    shorter side simply has no bytes there, which counts as a difference.
struct ByteRange {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  [[nodiscard]] std::uint64_t end() const noexcept { return offset + length; }
  /// True when [offset, end) intersects [begin, end_excl).
  [[nodiscard]] bool overlaps(std::uint64_t begin, std::uint64_t end_excl) const noexcept {
    return offset < end_excl && begin < end();
  }

  bool operator==(const ByteRange&) const = default;
};

/// How one file present in both trees differs.
struct FileDiff {
  std::string path;
  /// Dirty ranges in ascending offset order, adjacent ranges merged, clamped
  /// to max(base_size, size).  A pure size change (truncate/extend) shows up
  /// as a range covering [min(sizes), max(sizes)).
  std::vector<ByteRange> ranges;
  std::uint64_t base_size = 0;  ///< size in the base (golden) tree
  std::uint64_t size = 0;       ///< size in the diffed (run) tree
  /// Mode bits or file/directory kind differ (content ranges may be empty).
  bool metadata_changed = false;

  bool operator==(const FileDiff&) const = default;
};

/// How one tree differs from a base tree (vfs::MemFs::diff_tree).
struct FsDiff {
  std::vector<FileDiff> changed;       ///< present in both, differing; path order
  std::vector<std::string> created;    ///< present only in the diffed tree
  std::vector<std::string> deleted;    ///< present only in the base tree
  /// Detected renames (base path -> new path): a deleted/created pair whose
  /// payload extents are pointer-identical.  Only fork-derived trees can
  /// witness this; unrelated trees report the pair as created + deleted.
  std::vector<std::pair<std::string, std::string>> renamed;

  bool operator==(const FsDiff&) const = default;

  [[nodiscard]] bool empty() const noexcept {
    return changed.empty() && created.empty() && deleted.empty() && renamed.empty();
  }

  /// The content diff of `path`, or nullptr when its content is clean.
  [[nodiscard]] const FileDiff* find(const std::string& path) const noexcept {
    for (const FileDiff& f : changed) {
      if (f.path == path) return &f;
    }
    return nullptr;
  }

  /// True when `path` is involved in any way: content/metadata change,
  /// creation, deletion, or either side of a rename.  Application
  /// analyze_dirty implementations use this to short-circuit artifacts whose
  /// bytes provably match the golden run's.
  [[nodiscard]] bool touches(const std::string& path) const noexcept {
    if (find(path) != nullptr) return true;
    for (const auto& p : created) {
      if (p == path) return true;
    }
    for (const auto& p : deleted) {
      if (p == path) return true;
    }
    for (const auto& [from, to] : renamed) {
      if (from == path || to == path) return true;
    }
    return false;
  }
};

}  // namespace ffis::vfs
