#include "ffis/dist/protocol.hpp"

#include <stdexcept>

#include "ffis/util/serialize.hpp"

namespace ffis::dist {

namespace {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

/// Bounds for length-prefixed fields a peer controls.  Far above anything a
/// healthy peer sends, far below anything that could stress the allocator.
constexpr std::size_t kMaxNameBytes = 4096;
constexpr std::size_t kMaxReasonBytes = 64 * 1024;
constexpr std::size_t kMaxErrorBytes = 256 * 1024;
constexpr std::size_t kMaxPlanTextBytes = 4 * 1024 * 1024;
constexpr std::size_t kMaxPathBytes = 64 * 1024;
constexpr std::size_t kMaxTokenBytes = 4096;

ByteWriter begin_message(Bytes& out, MsgType type) {
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

ByteReader begin_decode(util::ByteSpan payload, MsgType expected, const char* what) {
  ByteReader r(payload);
  const auto tag = r.u8();
  if (tag != static_cast<std::uint8_t>(expected)) {
    throw std::invalid_argument(std::string("expected a ") + what +
                                " message, got type tag " + std::to_string(tag));
  }
  return r;
}

}  // namespace

MsgType peek_type(util::ByteSpan payload) {
  ByteReader r(payload);
  const auto tag = r.u8();
  if (tag < static_cast<std::uint8_t>(MsgType::Hello) ||
      tag > static_cast<std::uint8_t>(MsgType::RunBatch)) {
    throw std::invalid_argument("unknown message type tag " + std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

// --- Hello -------------------------------------------------------------------

util::Bytes encode(const Hello& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::Hello);
  w.u32(m.magic);
  w.u32(m.version);
  w.str(m.worker_name);
  w.str(m.auth_token);
  w.u8(m.reconnect ? 1 : 0);
  return out;
}

Hello decode_hello(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::Hello, "Hello");
  Hello m;
  m.magic = r.u32();
  m.version = r.u32();
  if (m.magic != kProtocolMagic || m.version != kProtocolVersion) return m;
  m.worker_name = r.str_bounded(kMaxNameBytes, "worker_name");
  m.auth_token = r.str_bounded(kMaxTokenBytes, "auth_token");
  m.reconnect = (r.u8() & 1) != 0;
  r.expect_end();
  return m;
}

// --- HelloAck ----------------------------------------------------------------

util::Bytes encode(const HelloAck& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::HelloAck);
  w.u32(m.worker_id);
  w.u64(m.plan_fingerprint);
  w.str(m.plan_text);
  w.str(m.checkpoint_dir);
  w.u64(m.chunk_size);
  w.u8(static_cast<std::uint8_t>((m.use_checkpoints ? 1 : 0) |
                                 (m.use_diff_classification ? 2 : 0)));
  w.u64(m.heartbeat_interval_ms);
  return out;
}

HelloAck decode_hello_ack(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::HelloAck, "HelloAck");
  HelloAck m;
  m.worker_id = r.u32();
  m.plan_fingerprint = r.u64();
  m.plan_text = r.str_bounded(kMaxPlanTextBytes, "plan_text");
  m.checkpoint_dir = r.str_bounded(kMaxPathBytes, "checkpoint_dir");
  m.chunk_size = r.u64();
  const auto flags = r.u8();
  m.use_checkpoints = (flags & 1) != 0;
  m.use_diff_classification = (flags & 2) != 0;
  m.heartbeat_interval_ms = r.u64();
  r.expect_end();
  return m;
}

// --- HelloReject -------------------------------------------------------------

util::Bytes encode(const HelloReject& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::HelloReject);
  w.str(m.reason);
  return out;
}

HelloReject decode_hello_reject(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::HelloReject, "HelloReject");
  HelloReject m;
  m.reason = r.str_bounded(kMaxReasonBytes, "reason");
  r.expect_end();
  return m;
}

// --- WorkRequest / Shutdown (tag-only) ---------------------------------------

util::Bytes encode(const WorkRequest&) {
  Bytes out;
  begin_message(out, MsgType::WorkRequest);
  return out;
}

util::Bytes encode(const Shutdown&) {
  Bytes out;
  begin_message(out, MsgType::Shutdown);
  return out;
}

util::Bytes encode(const Ping&) {
  Bytes out;
  begin_message(out, MsgType::Ping);
  return out;
}

util::Bytes encode(const Pong&) {
  Bytes out;
  begin_message(out, MsgType::Pong);
  return out;
}

// --- WorkGrant ---------------------------------------------------------------

util::Bytes encode(const WorkGrant& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::WorkGrant);
  w.u64(m.unit_id);
  w.u32(m.cell_index);
  w.u64(m.run_begin);
  w.u64(m.run_end);
  return out;
}

WorkGrant decode_work_grant(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::WorkGrant, "WorkGrant");
  WorkGrant m;
  m.unit_id = r.u64();
  m.cell_index = r.u32();
  m.run_begin = r.u64();
  m.run_end = r.u64();
  r.expect_end();
  if (m.run_end < m.run_begin) {
    throw std::invalid_argument("malformed WorkGrant: run_end " +
                                std::to_string(m.run_end) + " < run_begin " +
                                std::to_string(m.run_begin));
  }
  return m;
}

// --- CellInfo ----------------------------------------------------------------

util::Bytes encode(const CellInfo& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::CellInfo);
  w.u32(m.cell_index);
  w.u64(m.primitive_count);
  w.u8(static_cast<std::uint8_t>((m.golden_cached ? 1 : 0) | (m.checkpointed ? 2 : 0) |
                                 (m.checkpoint_loaded ? 4 : 0)));
  w.str(m.error);
  return out;
}

CellInfo decode_cell_info(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::CellInfo, "CellInfo");
  CellInfo m;
  m.cell_index = r.u32();
  m.primitive_count = r.u64();
  const auto flags = r.u8();
  m.golden_cached = (flags & 1) != 0;
  m.checkpointed = (flags & 2) != 0;
  m.checkpoint_loaded = (flags & 4) != 0;
  m.error = r.str_bounded(kMaxErrorBytes, "cell error");
  r.expect_end();
  return m;
}

// --- RunRow ------------------------------------------------------------------

util::Bytes encode(const RunRow& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::RunRow);
  w.u64(m.unit_id);
  w.u32(m.cell_index);
  w.u64(m.run_index);
  w.u8(static_cast<std::uint8_t>(m.outcome));
  w.u8(static_cast<std::uint8_t>((m.fault_fired ? 1 : 0) | (m.analyze_skipped ? 2 : 0)));
  w.f64(m.execute_ms);
  w.f64(m.analyze_ms);
  w.u32(static_cast<std::uint32_t>(vfs::FsStats::kCount));
  m.fs_stats.for_each([&](const char*, std::uint64_t v) { w.u64(v); });
  return out;
}

RunRow decode_run_row(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::RunRow, "RunRow");
  RunRow m;
  m.unit_id = r.u64();
  m.cell_index = r.u32();
  m.run_index = r.u64();
  const auto outcome = r.u8();
  if (outcome >= core::kOutcomeCount) {
    throw std::invalid_argument("malformed RunRow: outcome tag " +
                                std::to_string(outcome) + " out of range");
  }
  m.outcome = static_cast<core::Outcome>(outcome);
  const auto flags = r.u8();
  m.fault_fired = (flags & 1) != 0;
  m.analyze_skipped = (flags & 2) != 0;
  m.execute_ms = r.f64();
  m.analyze_ms = r.f64();
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / 8) {
    throw std::out_of_range("malformed RunRow: counter count " + std::to_string(count) +
                            " exceeds what " + std::to_string(r.remaining()) +
                            " payload bytes could hold");
  }
  std::uint32_t i = 0;
  m.fs_stats.for_each([&](const char*, std::uint64_t& v) { v = i++ < count ? r.u64() : 0; });
  for (; i < count; ++i) (void)r.u64();  // counters a newer table appended
  r.expect_end();
  return m;
}

RunRow to_run_row(const core::RunResult& run) {
  return {.outcome = run.outcome,
          .fault_fired = run.fault_fired,
          .analyze_skipped = run.analyze_skipped,
          .fs_stats = run.fs_stats,
          .execute_ms = run.execute_ms,
          .analyze_ms = run.analyze_ms};
}

core::RunResult to_run_result(const RunRow& row) {
  core::RunResult run;
  run.outcome = row.outcome;
  run.fault_fired = row.fault_fired;
  run.fs_stats = row.fs_stats;
  run.execute_ms = row.execute_ms;
  run.analyze_ms = row.analyze_ms;
  run.analyze_skipped = row.analyze_skipped;
  return run;
}

// --- RunBatch ----------------------------------------------------------------

util::Bytes encode(const RunBatch& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::RunBatch);
  w.u32(static_cast<std::uint32_t>(m.rows.size()));
  // Each row rides as a length-prefixed blob of its own RunRow frame, so the
  // batch decoder reuses decode_run_row verbatim — strictness, outcome range
  // checks and the counter list included.
  for (const RunRow& row : m.rows) w.blob(encode(row));
  return out;
}

RunBatch decode_run_batch(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::RunBatch, "RunBatch");
  RunBatch m;
  const std::uint32_t count = r.u32();
  // Every row costs at least its 8-byte blob length prefix, so a forged
  // count can never reserve more rows than the frame could possibly carry.
  if (count > r.remaining() / 8) {
    throw std::out_of_range("malformed RunBatch: row count " + std::to_string(count) +
                            " exceeds what " + std::to_string(r.remaining()) +
                            " payload bytes could hold");
  }
  m.rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const Bytes row = r.blob();
    m.rows.push_back(decode_run_row(row));
  }
  r.expect_end();
  return m;
}

// --- UnitDone ----------------------------------------------------------------

util::Bytes encode(const UnitDone& m) {
  Bytes out;
  ByteWriter w = begin_message(out, MsgType::UnitDone);
  w.u64(m.unit_id);
  return out;
}

UnitDone decode_unit_done(util::ByteSpan payload) {
  ByteReader r = begin_decode(payload, MsgType::UnitDone, "UnitDone");
  UnitDone m;
  m.unit_id = r.u64();
  r.expect_end();
  return m;
}

// --- auth --------------------------------------------------------------------

bool constant_time_equal(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  // volatile keeps the compiler from short-circuiting the fold; the loop
  // touches every byte no matter where the first mismatch sits.
  volatile unsigned char acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = static_cast<unsigned char>(
        acc | (static_cast<unsigned char>(a[i]) ^ static_cast<unsigned char>(b[i])));
  }
  return acc == 0;
}

// --- plan fingerprint --------------------------------------------------------

std::uint64_t plan_fingerprint(const exp::ExperimentPlan& plan) {
  Bytes buf;
  ByteWriter w(buf);
  w.u64(plan.size());
  for (const auto& cell : plan.cells()) {
    w.str(cell.app != nullptr ? cell.app->name() : "");
    w.str(cell.fault);
    w.i32(cell.stage);
    w.u64(cell.runs);
    w.u64(cell.seed);
  }
  return util::fnv1a64(buf);
}

}  // namespace ffis::dist
