#pragma once
// dist::CampaignJournal — crash-consistent record of landed work units.
//
// The coordinator appends one record per accepted completion (a cell's
// preparation facts, or a unit's full row range) to an append-only journal
// file.  On restart with the same plan identity the journal's valid prefix
// replays into the result slots before the listener serves anyone, so a
// SIGKILL'd coordinator resumes the campaign instead of restarting it: landed
// units are never re-granted and the final tallies are bit-identical to an
// uninterrupted run.
//
// Format (everything little-endian, util::ByteWriter discipline):
//
//   header   "FFISJRNL" | u32 format | u64 plan_fingerprint | u64 unit_runs
//            | u64 fnv1a64(all preceding header bytes)
//   record   u32 payload_len | payload | u64 fnv1a64(payload)
//   payload  u8 kind; kind 1 = a protocol CellInfo message,
//            kind 2 = u64 unit_id | u64 n | n * (u32 worker_id | blob RunRow)
//
// unit_runs is part of the identity because unit ids are positions in the
// shard list — the same plan sharded differently numbers units differently.
// Appends are single write() + fsync() per record, so a crash leaves at most
// one torn record at the tail; replay keeps the checksummed prefix and
// truncates the rest.  A header that doesn't match (different campaign,
// corrupt file, future format) starts the journal over — never crashes,
// never double-counts.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ffis/dist/protocol.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::dist {

/// Everything recovered from a journal's valid prefix, plus how the file was
/// disposed of (resumed / started over / tail dropped) for diagnostics.
struct JournalReplay {
  /// A unit record, declared like a wire frame (protocol.hpp) whose tag is
  /// the record kind.
  struct Unit {
    static constexpr std::uint8_t kType = 2;
    std::uint64_t unit_id = 0;
    /// (worker_id, row) in the order the rows were accepted.
    std::vector<std::pair<std::uint32_t, RunRow>> rows;

    template <class M, class F>
    static void fields(M& m, F& f) {
      f(m.unit_id);
      f.list(m.rows, CountWidth::u64);
    }
  };

  std::vector<CellInfo> cell_infos;
  std::vector<Unit> units;
  /// A journal for this exact campaign existed and its valid prefix was
  /// replayed (possibly zero records).
  bool resumed = false;
  /// The file existed but belonged to another campaign, an unknown format,
  /// or had a corrupt header; it was truncated and re-headed.
  bool started_over = false;
  /// Bytes dropped past the last valid record (torn tail after a crash).
  std::uint64_t tail_bytes_dropped = 0;
};

/// Opens (creating if absent) the journal at `path` for the campaign
/// identified by (plan_fingerprint, unit_runs), replaying any valid prefix.
/// All I/O failures throw std::runtime_error — a campaign asked to journal
/// must not silently run without one.  Not thread-safe; the coordinator
/// serializes appends under its own lock.
class CampaignJournal {
 public:
  CampaignJournal(std::string path, std::uint64_t plan_fingerprint,
                  std::uint64_t unit_runs);
  ~CampaignJournal();

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  [[nodiscard]] const JournalReplay& replayed() const noexcept { return replay_; }

  /// Journals a cell's preparation facts (including deterministic prepare
  /// failures, whose cells must stay abandoned across a resume).
  void append_cell_info(const CellInfo& info);

  /// Journals one landed unit with every accepted row of its run range.
  void append_unit(std::uint64_t unit_id,
                   const std::vector<std::pair<std::uint32_t, RunRow>>& rows);

 private:
  void append_record(util::ByteSpan payload);

  std::string path_;
  int fd_ = -1;
  JournalReplay replay_;
};

}  // namespace ffis::dist
