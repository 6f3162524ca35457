#pragma once
// Wire protocol of the distributed campaign layer (dist::Coordinator /
// dist::Worker).  Each message is one net frame whose payload starts with a
// one-byte type tag followed by fixed-width little-endian fields encoded via
// util::ByteWriter; decoding is strict (ByteReader::expect_end), so trailing
// garbage, truncation and forged length prefixes all surface as exceptions
// the connection handler turns into a dropped peer.
//
// Message set (one logical conversation per worker connection):
//
//   worker -> coordinator        coordinator -> worker
//   ---------------------        ---------------------
//   Hello {version, name}        HelloAck {worker_id, plan, options}
//                                HelloReject {reason}     (version skew, ...)
//   WorkRequest {}               WorkGrant {unit, cell, run range}
//                                Shutdown {}              (plan complete)
//   CellInfo {cell, prep facts}  — once per cell per worker, before its rows
//   RunBatch {rows}              — a unit's RunRows, many per frame
//   UnitDone {unit}
//
// RunRow {unit, cell, run, outcome, counters} is not a message of its own:
// it is the encoding each executed run takes inside a RunBatch and inside a
// journal record (dist::CampaignJournal), and keeps its type tag for that.
//
// The worker never receives unsolicited messages: after Hello it strictly
// alternates "send WorkRequest, read one reply", and everything it sends in
// between (CellInfo/RunBatch/UnitDone) needs no reply.  That keeps both ends
// single-threaded per connection with blocking sockets and no state machine
// beyond "current unit".

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/extent_store.hpp"

namespace ffis::dist {

/// Bump on any wire-format change; a Hello of any other version is rejected
/// during the handshake (version-skewed workers must not compute).  RunRow's
/// storage counters travel as a counted list in run-counter table order
/// (FFIS_RUN_COUNTERS), so appending a counter needs no bump.  v6 added
/// HelloAck::checkpoint_budget, v7 RunRow's `replayed` flag, v8 its
/// `synthesized` flag, v9 turned flags bit 2 into `features_drawn`, and v10
/// dropped HelloAck's engine-toggle flags byte.
inline constexpr std::uint32_t kProtocolVersion = 10;

/// First field of every Hello; guards against a stray client that speaks
/// some other protocol entirely.
inline constexpr std::uint32_t kProtocolMagic = 0x46464953;  // "SIFF" LE = "FFIS"

enum class MsgType : std::uint8_t {
  Hello = 1,
  HelloAck,
  HelloReject,
  WorkRequest,
  WorkGrant,
  CellInfo,
  RunRow,
  UnitDone,
  Shutdown,
  Ping,
  Pong,
  RunBatch,
};

struct Hello {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version = kProtocolVersion;
  std::string worker_name;
  /// Shared-secret fleet token.  Checked with a constant-time compare
  /// before any plan text leaves the coordinator; empty on both sides
  /// disables auth.
  std::string auth_token;
  /// True when this connection replaces an earlier one from the same worker
  /// process (retry after a transport fault or a coordinator restart); feeds
  /// the coordinator's worker_reconnects counter.
  bool reconnect = false;
};

struct HelloAck {
  std::uint32_t worker_id = 0;
  /// Fingerprint of the coordinator's plan (plan_fingerprint below).  A
  /// worker running a locally-supplied plan verifies it matches before
  /// executing anything; a mismatched plan would silently corrupt tallies.
  std::uint64_t plan_fingerprint = 0;
  /// The coordinator's plan-config text (exp::parse_plan_config dialect);
  /// empty when every worker is expected to hold a local plan (in-process
  /// workers).  Remote workers build their plan from this.
  std::string plan_text;
  /// Checkpoint-store directory shared by the fleet (may be empty).  Workers
  /// fetch/publish prefix snapshots and goldens here instead of shipping
  /// multi-MiB trees over the socket.
  std::string checkpoint_dir;
  /// Base extent size every worker must use (0 = ExtentStore default).
  /// Uniform geometry keeps store entries shareable and fs-stats columns
  /// comparable across the fleet.
  std::uint64_t chunk_size = 0;
  /// Size budget of every worker's store (EngineOptions::checkpoint_budget;
  /// 0 = unbounded): workers evict under the budget a local engine would.
  std::uint64_t checkpoint_budget = 0;
  /// Interval at which the worker must send Ping frames; 0 disables
  /// heartbeats.
  std::uint64_t heartbeat_interval_ms = 0;
};

struct HelloReject {
  std::string reason;
};

struct WorkRequest {};

struct WorkGrant {
  std::uint64_t unit_id = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;  ///< exclusive
};

/// Per-cell preparation facts, sent once per cell by each worker before that
/// cell's first RunRow.  The coordinator keeps the first arrival; a non-empty
/// `error` means the cell cannot run anywhere (prepare is deterministic) and
/// its units are abandoned.
struct CellInfo : exp::CellFacts {
  std::uint32_t cell_index = 0;
};

/// One executed injection run — exactly the fields the coordinator needs to
/// rebuild CellResult tallies and sink rows bit-identically.  A run the
/// worker skipped (its instance already executed feature-free in the same
/// session) has no row.  Deliberately
/// excludes the analysis blob and crash text (only keep_details consumers
/// would see them, and they can be MiB-sized).  fs_stats travels as a counted
/// u64 list in table order; missing counters decode as 0, unknown ones skip.
struct RunRow {
  std::uint64_t unit_id = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t run_index = 0;
  core::Outcome outcome = core::Outcome::Benign;
  bool fault_fired = false;
  bool analyze_skipped = false;
  /// Flags bit 2 (protocol v9, journal format 4): the run's fault drew a
  /// feature.  When false the coordinator's collector fills every open slot
  /// of the run's instance from this row and labels the replays itself.
  bool features_drawn = false;
  /// Flags bit 3 (protocol v8, journal format 3).
  bool synthesized = false;
  vfs::FsStats fs_stats{};
  double execute_ms = 0.0;
  double analyze_ms = 0.0;
};

/// Many RunRows in one frame.  Workers accumulate a unit's rows and
/// flush one RunBatch per kRunBatchRows rows (or per flush interval, or at
/// unit end), cutting per-run framing and syscall traffic on the result
/// path.  The coordinator lands each contained row first-wins, exactly like
/// a replayed journal row, so batching changes packaging only, never
/// tallies.
struct RunBatch {
  std::vector<RunRow> rows;
};

/// Worker-side flush thresholds for RunBatch: a batch goes out when it holds
/// this many rows or when the oldest buffered row is this old, whichever
/// comes first (and always before UnitDone).
inline constexpr std::size_t kRunBatchRows = 32;
inline constexpr std::uint64_t kRunBatchFlushMs = 25;

struct UnitDone {
  std::uint64_t unit_id = 0;
};

struct Shutdown {};

/// Liveness heartbeat.  The worker's heartbeat thread sends Ping on
/// the shared connection (under the worker's send lock); the coordinator
/// refreshes the staleness clock of that worker's granted units and answers
/// Pong.  The worker's reply loop skips Pongs, so heartbeats piggyback on
/// the existing strictly-alternating conversation without a second socket.
struct Ping {};

struct Pong {};

/// The type tag of an encoded message.  Throws std::out_of_range on an empty
/// payload and std::invalid_argument on an unknown tag.
[[nodiscard]] MsgType peek_type(util::ByteSpan payload);

[[nodiscard]] util::Bytes encode(const Hello& m);
[[nodiscard]] util::Bytes encode(const HelloAck& m);
[[nodiscard]] util::Bytes encode(const HelloReject& m);
[[nodiscard]] util::Bytes encode(const WorkRequest& m);
[[nodiscard]] util::Bytes encode(const WorkGrant& m);
[[nodiscard]] util::Bytes encode(const CellInfo& m);
[[nodiscard]] util::Bytes encode(const RunRow& m);
[[nodiscard]] util::Bytes encode(const RunBatch& m);
[[nodiscard]] util::Bytes encode(const UnitDone& m);
[[nodiscard]] util::Bytes encode(const Shutdown& m);
[[nodiscard]] util::Bytes encode(const Ping& m);
[[nodiscard]] util::Bytes encode(const Pong& m);

// Strict decoders: the payload must carry the matching tag and nothing but
// the message's fields.  Throw std::out_of_range (truncation / forged length
// prefixes) or std::invalid_argument (wrong tag, out-of-range enum).
// decode_hello stops after magic + version when either differs from this
// build's, so the coordinator can reject any peer version by name.
[[nodiscard]] Hello decode_hello(util::ByteSpan payload);
[[nodiscard]] HelloAck decode_hello_ack(util::ByteSpan payload);
[[nodiscard]] HelloReject decode_hello_reject(util::ByteSpan payload);
[[nodiscard]] WorkGrant decode_work_grant(util::ByteSpan payload);
[[nodiscard]] CellInfo decode_cell_info(util::ByteSpan payload);
[[nodiscard]] RunRow decode_run_row(util::ByteSpan payload);
[[nodiscard]] RunBatch decode_run_batch(util::ByteSpan payload);
[[nodiscard]] UnitDone decode_unit_done(util::ByteSpan payload);

/// A run's wire form and back.  The worker sends to_run_row; the coordinator
/// lands to_run_result in its exp::CellCollector, exactly like a local
/// engine, and journals a landed run through to_run_row again.
[[nodiscard]] RunRow to_run_row(const core::RunResult& run, std::uint64_t unit_id = 0,
                                std::uint32_t cell_index = 0, std::uint64_t run_index = 0);
[[nodiscard]] core::RunResult to_run_result(const RunRow& row);

/// Constant-time equality for shared secrets: examines every byte of both
/// strings regardless of where they first differ, so response timing leaks
/// nothing about a partially-correct token.  (Length is compared first —
/// token lengths are not secret.)
[[nodiscard]] bool constant_time_equal(std::string_view a,
                                       std::string_view b) noexcept;

/// Order-sensitive digest of what a plan *executes*: per cell, the
/// application name, fault text, stage, runs and seed (labels are
/// presentation-only and excluded).  Both ends compute it independently;
/// equality means their per-run seeds and outcomes will be bit-identical.
[[nodiscard]] std::uint64_t plan_fingerprint(const exp::ExperimentPlan& plan);

}  // namespace ffis::dist
