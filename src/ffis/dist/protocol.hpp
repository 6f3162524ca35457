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
//
// Declaring a frame.  Each message struct names its tag (kType) and lists
// its wire fields once, in order, in a static `fields(m, f)` template; one
// encode() and one strict decode<Frame>() below are generated from that
// list (the journal's unit record is declared the same way).  Each entry is
// one call on the field codec `f` (WireWriter or WireReader):
//
//   f(x)                  u32 / u64 / f64 by the member's type
//   f(s, max, "what")     u64-length-prefixed string, <= max bytes on decode
//   f(outcome)            u8, out-of-range tags rejected on decode
//   f(stats)              vfs::FsStats as a counted u64 list in table order
//   f(frame)              a nested frame as a blob of its own encoding
//   f.flags(a, b, ...)    one byte, bit i = i-th bool; unnamed bits rejected
//   f.list(v, width)      count (u32 or u64), then each element as above
//                         (a std::pair as its two members in order)
//
// Adding a field is one entry here plus its use; any change to the bytes
// needs a kProtocolVersion bump (and a journal format bump for CellInfo and
// RunRow, which the journal stores).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/extent_store.hpp"

namespace ffis::dist {

/// Bump on any wire-format change; a Hello of any other version is rejected
/// during the handshake (version-skewed workers must not compute).  RunRow's
/// storage counters travel as a counted list in run-counter table order
/// (FFIS_RUN_COUNTERS), so appending a counter needs no bump.  v6 added
/// HelloAck::checkpoint_budget, v7 RunRow's `replayed` flag, v8 its
/// `synthesized` flag, v9 turned flags bit 2 into `features_drawn`, v10
/// dropped HelloAck's engine-toggle flags byte, and v11 added RunRow's
/// `resumed_late` flag.
inline constexpr std::uint32_t kProtocolVersion = 11;

/// First field of every Hello; guards against a stray client that speaks
/// some other protocol entirely.
inline constexpr std::uint32_t kProtocolMagic = 0x46464953;  // "SIFF" LE = "FFIS"

/// Bounds for length-prefixed fields a peer controls.  Far above anything a
/// healthy peer sends, far below anything that could stress the allocator.
inline constexpr std::size_t kMaxNameBytes = 4096;
inline constexpr std::size_t kMaxReasonBytes = 64 * 1024;
inline constexpr std::size_t kMaxErrorBytes = 256 * 1024;
inline constexpr std::size_t kMaxPlanTextBytes = 4 * 1024 * 1024;
inline constexpr std::size_t kMaxPathBytes = 64 * 1024;
inline constexpr std::size_t kMaxTokenBytes = 4096;

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

/// Width of a list's element count (WireWriter::list / WireReader::list).
enum class CountWidth : std::uint8_t { u32, u64 };

struct Hello {
  static constexpr MsgType kType = MsgType::Hello;
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

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.magic);
    f(m.version);
    // Decoding stops after magic + version when either differs from this
    // build's: what follows is another protocol's layout, and the
    // coordinator only needs the version to reject the peer by name.
    if (f.stop_unless(m.magic == kProtocolMagic && m.version == kProtocolVersion)) return;
    f(m.worker_name, kMaxNameBytes, "worker_name");
    f(m.auth_token, kMaxTokenBytes, "auth_token");
    f.flags(m.reconnect);
  }
};

struct HelloAck {
  static constexpr MsgType kType = MsgType::HelloAck;
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

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.worker_id);
    f(m.plan_fingerprint);
    f(m.plan_text, kMaxPlanTextBytes, "plan_text");
    f(m.checkpoint_dir, kMaxPathBytes, "checkpoint_dir");
    f(m.chunk_size);
    f(m.checkpoint_budget);
    f(m.heartbeat_interval_ms);
  }
};

struct HelloReject {
  static constexpr MsgType kType = MsgType::HelloReject;
  std::string reason;

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.reason, kMaxReasonBytes, "reason");
  }
};

/// A frame that is its tag alone.
template <MsgType kTag>
struct TagOnly {
  static constexpr MsgType kType = kTag;
  template <class M, class F>
  static void fields(M&, F&) {}
};

using WorkRequest = TagOnly<MsgType::WorkRequest>;

struct WorkGrant {
  static constexpr MsgType kType = MsgType::WorkGrant;
  std::uint64_t unit_id = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;  ///< exclusive

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.unit_id);
    f(m.cell_index);
    f(m.run_begin);
    f(m.run_end);
    // An inverted range is malformed, not empty.
    f.check(m.run_end >= m.run_begin, [&] {
      return "malformed WorkGrant: run_end " + std::to_string(m.run_end) +
             " < run_begin " + std::to_string(m.run_begin);
    });
  }
};

/// Per-cell preparation facts, sent once per cell by each worker before that
/// cell's first RunRow.  The coordinator keeps the first arrival; a non-empty
/// `error` means the cell cannot run anywhere (prepare is deterministic) and
/// its units are abandoned.
struct CellInfo : exp::CellFacts {
  static constexpr MsgType kType = MsgType::CellInfo;
  std::uint32_t cell_index = 0;

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.cell_index);
    f(m.primitive_count);
    f.flags(m.golden_cached, m.checkpointed, m.checkpoint_loaded);
    f(m.error, kMaxErrorBytes, "cell error");
  }
};

/// One executed injection run: the run's RunResult and where it belongs.
/// Only the fields the coordinator needs to rebuild CellResult tallies and
/// sink rows bit-identically travel; the rest decode as defaults.  A run the
/// worker skipped (its instance already executed feature-free in the same
/// session) has no row.  Deliberately
/// excludes the analysis blob and crash text (only keep_details consumers
/// would see them, and they can be MiB-sized).  fs_stats travels as a counted
/// u64 list in table order; missing counters decode as 0, unknown ones skip.
struct RunRow : core::RunResult {
  static constexpr MsgType kType = MsgType::RunRow;
  std::uint64_t unit_id = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t run_index = 0;

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.unit_id);
    f(m.cell_index);
    f(m.run_index);
    f(m.outcome);
    // Bit 2 (protocol v9, journal format 4): the run's fault drew a feature.
    // When clear the coordinator's collector fills every open slot of the
    // run's instance from this row and labels the replays itself.  Bit 3
    // arrived in protocol v8 (journal format 3), bit 4 in v11 (format 5).
    f.flags(m.fault_fired, m.analyze_skipped, m.record.features_drawn, m.synthesized,
            m.resumed_late);
    f(m.execute_ms);
    f(m.analyze_ms);
    f(m.fs_stats);
  }
};

/// Many RunRows in one frame.  Workers accumulate a unit's rows and
/// flush one RunBatch per kRunBatchRows rows (or per flush interval, or at
/// unit end), cutting per-run framing and syscall traffic on the result
/// path.  The coordinator lands each contained row first-wins, exactly like
/// a replayed journal row, so batching changes packaging only, never
/// tallies.
struct RunBatch {
  static constexpr MsgType kType = MsgType::RunBatch;
  std::vector<RunRow> rows;

  template <class M, class F>
  static void fields(M& m, F& f) {
    // Each row rides as a blob of its own RunRow frame, so a batch decodes
    // every row exactly like a lone one: strictness, outcome range check
    // and the counter list included.
    f.list(m.rows, CountWidth::u32);
  }
};

/// Worker-side flush thresholds for RunBatch: a batch goes out when it holds
/// this many rows or when the oldest buffered row is this old, whichever
/// comes first (and always before UnitDone).
inline constexpr std::size_t kRunBatchRows = 32;
inline constexpr std::uint64_t kRunBatchFlushMs = 25;

struct UnitDone {
  static constexpr MsgType kType = MsgType::UnitDone;
  std::uint64_t unit_id = 0;

  template <class M, class F>
  static void fields(M& m, F& f) {
    f(m.unit_id);
  }
};

using Shutdown = TagOnly<MsgType::Shutdown>;

/// Liveness heartbeat.  The worker's heartbeat thread sends Ping on
/// the shared connection (under the worker's send lock); the coordinator
/// refreshes the staleness clock of that worker's granted units and answers
/// Pong.  The worker's reply loop skips Pongs, so heartbeats piggyback on
/// the existing strictly-alternating conversation without a second socket.
using Ping = TagOnly<MsgType::Ping>;
using Pong = TagOnly<MsgType::Pong>;

/// Every frame, in tag order.
using Frames = std::tuple<Hello, HelloAck, HelloReject, WorkRequest, WorkGrant, CellInfo,
                          RunRow, UnitDone, Shutdown, Ping, Pong, RunBatch>;

static_assert(
    []<std::size_t... I>(std::index_sequence<I...>) {
      return ((static_cast<std::size_t>(std::tuple_element_t<I, Frames>::kType) == I + 1) && ...);
    }(std::make_index_sequence<std::tuple_size_v<Frames>>{}),
    "Frames must list every MsgType in tag order");

/// A frame, or any record that starts with a one-byte tag (the journal's
/// unit record): kType plus fields().
template <class T>
concept WireFrame = requires { T::kType; };

/// The type tag of an encoded message.  Throws std::out_of_range on an empty
/// payload and std::invalid_argument on an unknown tag.
[[nodiscard]] MsgType peek_type(util::ByteSpan payload);

template <WireFrame Frame>
[[nodiscard]] util::Bytes encode(const Frame& m);

// Strict decoder: the payload must carry the matching tag and nothing but
// the message's fields.  Throws std::out_of_range (truncation / forged
// length prefixes) or std::invalid_argument (wrong tag, out-of-range enum,
// unnamed flag bits, a failed check).
template <WireFrame Frame>
[[nodiscard]] Frame decode(util::ByteSpan payload);

/// Appends a record's fields (see "Declaring a frame") to `out`.
class WireWriter {
 public:
  explicit WireWriter(util::Bytes& out) : w_(out) {}

  void operator()(std::uint32_t v) { w_.u32(v); }
  void operator()(std::uint64_t v) { w_.u64(v); }
  void operator()(double v) { w_.f64(v); }
  void operator()(const std::string& s, std::size_t /*max*/, const char* /*what*/) {
    w_.str(s);
  }
  void operator()(core::Outcome o) { w_.u8(static_cast<std::uint8_t>(o)); }
  void operator()(const vfs::FsStats& stats);
  template <WireFrame Frame>
  void operator()(const Frame& m) {
    w_.blob(encode(m));
  }
  template <class A, class B>
  void operator()(const std::pair<A, B>& p) {
    (*this)(p.first);
    (*this)(p.second);
  }
  template <class... Bits>
  void flags(const Bits&... bits) {
    static_assert(sizeof...(Bits) <= 8);
    unsigned byte = 0, bit = 0;
    ((byte |= (bits ? 1u : 0u) << bit++), ...);
    w_.u8(static_cast<std::uint8_t>(byte));
  }
  template <class T>
  void list(const std::vector<T>& items, CountWidth width) {
    width == CountWidth::u32 ? w_.u32(static_cast<std::uint32_t>(items.size()))
                             : w_.u64(items.size());
    for (const T& item : items) (*this)(item);
  }
  /// Encoding writes every field, whatever the values.
  bool stop_unless(bool) { return false; }
  template <class Message>
  void check(bool, Message&&) {}

 private:
  util::ByteWriter w_;
};

/// Reads a record's fields (see "Declaring a frame") strictly: every
/// accessor throws on truncation, and finish() on trailing bytes.
class WireReader {
 public:
  explicit WireReader(util::ByteSpan in) : r_(in) {}

  void operator()(std::uint32_t& v) { v = r_.u32(); }
  void operator()(std::uint64_t& v) { v = r_.u64(); }
  void operator()(double& v) { v = r_.f64(); }
  void operator()(std::string& s, std::size_t max, const char* what) {
    s = r_.str_bounded(max, what);
  }
  void operator()(core::Outcome& o);
  void operator()(vfs::FsStats& stats);
  template <WireFrame Frame>
  void operator()(Frame& m) {
    m = decode<Frame>(r_.blob());
  }
  template <class A, class B>
  void operator()(std::pair<A, B>& p) {
    (*this)(p.first);
    (*this)(p.second);
  }
  template <class... Bits>
  void flags(Bits&... bits) {
    const unsigned byte = flag_byte(sizeof...(Bits));
    unsigned bit = 0;
    ((bits = ((byte >> bit++) & 1u) != 0), ...);
  }
  template <class T>
  void list(std::vector<T>& items, CountWidth width) {
    // Grown per decoded element, never sized from the count: memory stays
    // proportional to the bytes actually received.
    for (std::size_t n = list_count(width); n > 0; --n) (*this)(items.emplace_back());
  }
  /// Ends the record early (finish() then accepts what is left) when
  /// `known` is false; see Hello.
  bool stop_unless(bool known) {
    stopped_ = !known;
    return stopped_;
  }
  template <class Message>
  void check(bool ok, Message&& message) {
    if (!ok) throw std::invalid_argument(message());
  }
  /// Throws std::invalid_argument unless the next byte is `expected`.
  void tag(std::uint8_t expected);
  void finish() const {
    if (!stopped_) r_.expect_end();
  }

 private:
  /// One flags byte with `named` bits; a set bit no field names throws.
  unsigned flag_byte(std::size_t named);
  /// A list's element count.  Every list element ends in a nested frame's
  /// blob, so each costs at least its 8-byte length prefix: a forged count
  /// throws before any element is read.
  std::size_t list_count(CountWidth width);

  util::ByteReader r_;
  bool stopped_ = false;
};

template <WireFrame Frame>
util::Bytes encode(const Frame& m) {
  util::Bytes out{static_cast<std::byte>(Frame::kType)};
  WireWriter f(out);
  Frame::fields(m, f);
  return out;
}

template <WireFrame Frame>
Frame decode(util::ByteSpan payload) {
  WireReader f(payload);
  f.tag(static_cast<std::uint8_t>(Frame::kType));
  Frame m;
  Frame::fields(m, f);
  f.finish();
  return m;
}

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
