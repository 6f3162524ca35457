#pragma once
// The run-counter table: every per-run counter FFIS reports, declared once.
//
// vfs::FsStats, the per-cell and plan-wide counter block (exp::RunCounters),
// the CSV/JSONL sinks and readers, the dist wire format, the campaign journal
// and the bench JSON all expand or iterate this one list, so adding a
// counter takes one line here plus the code that increments it.
//
//   FS(name)   a storage-layer counter of the run's MemFs (a vfs::FsStats
//              member): a u64, summed over the cell's runs.  dist::RunRow
//              carries the FS entries as a counted list in table order, so
//              new FS entries go at the end of the FS block.
//   RUN(name, type, aggregation, value)
//              a cell counter taken from another per-run fact.  `value` is
//              an expression over `run` (the core::RunResult); `aggregation`
//              is Sum (add the value) or CountNonzero (count the runs whose
//              value is non-zero).

#include <cstddef>
#include <cstdint>

#define FFIS_RUN_COUNTERS(FS, RUN)                                             \
  FS(chunks_allocated)      /* fresh extents created by writes */              \
  FS(chunk_detaches)        /* shared extents privatized (COW) */              \
  FS(cow_bytes_copied)      /* bytes memcpy'd by those detaches */             \
  FS(pread_calls)           /* MemFs::pread invocations */                     \
  FS(bytes_read)            /* bytes returned by those preads */               \
  FS(arena_slabs_allocated) /* fresh ExtentArena slabs malloc'd */             \
  FS(arena_bytes_recycled)  /* bytes served from recycled slabs */             \
  FS(sectors_faulted)       /* sectors corrupted by vfs::BlockDevice */        \
  FS(crc_detected)          /* scrub-on-read CRC/LSE rejections */             \
  /* Runs whose scrub rejected a read: the Detected tally splits as */        \
  /* detected_io_error = tally(Detected) - detected_crc. */                   \
  RUN(detected_crc, std::uint64_t, CountNonzero, run.fs_stats.crc_detected)   \
  /* Wall time split at the execute/classify boundary (thread time). */       \
  RUN(execute_ms, double, Sum, run.execute_ms)                                \
  RUN(analyze_ms, double, Sum, run.analyze_ms)                                \
  /* Runs classified Benign straight from an empty extent diff. */            \
  RUN(analyze_skipped, std::uint64_t, CountNonzero, run.analyze_skipped)

namespace ffis::vfs {

/// Cumulative storage-layer counters (the FS entries of FFIS_RUN_COUNTERS).
/// MemFs owns one per instance (forks start from zero) and threads it through
/// every mutating ExtentStore call; MemFs::stats() exposes it for tests,
/// benches and the experiment engine.
struct FsStats {
#define FFIS_FS_FIELD(name) std::uint64_t name = 0;
#define FFIS_SKIP_RUN(...)
  FFIS_RUN_COUNTERS(FFIS_FS_FIELD, FFIS_SKIP_RUN)
#undef FFIS_FS_FIELD

  /// Number of FS entries (the length of dist::RunRow's counter list).
  static constexpr std::size_t kCount = 0
#define FFIS_FS_ONE(name) +1
      FFIS_RUN_COUNTERS(FFIS_FS_ONE, FFIS_SKIP_RUN);
#undef FFIS_FS_ONE

  /// Calls f(name, counter) for every member, in table order.
  template <class F>
  void for_each(F&& f) {
#define FFIS_FS_VISIT(name) f(#name, name);
    FFIS_RUN_COUNTERS(FFIS_FS_VISIT, FFIS_SKIP_RUN)
  }
  template <class F>
  void for_each(F&& f) const {
    FFIS_RUN_COUNTERS(FFIS_FS_VISIT, FFIS_SKIP_RUN)
#undef FFIS_FS_VISIT
#undef FFIS_SKIP_RUN
  }
};

}  // namespace ffis::vfs
