// Unit tests for ffis::net and the dist wire protocol: length-prefixed
// framing over real loopback sockets, encode/decode round-trips of every
// message type, handshake version-skew rejection, and a seeded
// malformed-input fuzz pass asserting that no truncation or byte flip can do
// anything worse than throw.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "ffis/dist/protocol.hpp"
#include "ffis/net/faulty_socket.hpp"
#include "ffis/net/framing.hpp"
#include "ffis/net/socket.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/run_counters.hpp"
#include "counter_testing.hpp"

namespace {

using namespace ffis;

util::Bytes bytes_of(const std::string& s) { return util::to_bytes(s); }

/// A connected loopback socket pair: `client` from connect(), `server` from
/// accept().
struct SocketPair {
  net::Socket client;
  net::Socket server;

  SocketPair() {
    auto listener = net::Listener::listen(0);
    const std::uint16_t port = listener.port();
    std::thread connector([&] { client = net::Socket::connect("127.0.0.1", port); });
    server = listener.accept();
    connector.join();
  }
};

// --- ByteReader hardening ----------------------------------------------------

TEST(ByteReaderHardening, U64BoundedAcceptsUpToMax) {
  util::Bytes buf;
  util::ByteWriter w(buf);
  w.u64(41);
  util::ByteReader r(buf);
  EXPECT_EQ(r.u64_bounded(41, "answer"), 41u);
}

TEST(ByteReaderHardening, U64BoundedThrowsPastMax) {
  util::Bytes buf;
  util::ByteWriter w(buf);
  w.u64(42);
  util::ByteReader r(buf);
  EXPECT_THROW((void)r.u64_bounded(41, "answer"), std::out_of_range);
}

TEST(ByteReaderHardening, StrBoundedRoundTripsAndRejectsOversize) {
  util::Bytes buf;
  util::ByteWriter w(buf);
  w.str("hello");
  {
    util::ByteReader r(buf);
    EXPECT_EQ(r.str_bounded(16, "greeting"), "hello");
  }
  {
    util::ByteReader r(buf);
    EXPECT_THROW((void)r.str_bounded(4, "greeting"), std::out_of_range);
  }
}

TEST(ByteReaderHardening, ForgedHugeLengthPrefixThrowsInsteadOfWrapping) {
  // A length prefix of 2^64-1 must be rejected by the bounds check as a full
  // u64 comparison — casting it to size_t first could wrap on 32-bit and
  // pass.  Either way the reader must throw, never allocate.
  util::Bytes buf;
  util::ByteWriter w(buf);
  w.u64(~0ULL);
  w.raw(bytes_of("x"));
  util::ByteReader r(buf);
  EXPECT_THROW((void)r.str(), std::out_of_range);
}

// --- framing over loopback ---------------------------------------------------

TEST(Framing, RoundTripsPayloadsOverLoopback) {
  SocketPair pair;
  const util::Bytes small = bytes_of("hello frames");
  util::Bytes big(100 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::byte>(i & 0xff);

  // Send from a helper thread: the big payload can exceed the loopback
  // socket buffer, so a single-threaded send-then-receive could deadlock.
  std::thread sender([&] {
    net::send_frame(pair.client, small);
    net::send_frame(pair.client, {});  // empty frames are legal
    net::send_frame(pair.client, big);
  });

  const auto f1 = net::recv_frame(pair.server);
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(util::to_string(*f1), "hello frames");
  const auto f2 = net::recv_frame(pair.server);
  ASSERT_TRUE(f2.has_value());
  EXPECT_TRUE(f2->empty());
  const auto f3 = net::recv_frame(pair.server);
  ASSERT_TRUE(f3.has_value());
  EXPECT_EQ(*f3, big);
  sender.join();
}

TEST(Framing, CleanCloseBetweenFramesIsNullopt) {
  SocketPair pair;
  net::send_frame(pair.client, bytes_of("last frame"));
  pair.client.close();
  EXPECT_TRUE(net::recv_frame(pair.server).has_value());
  EXPECT_FALSE(net::recv_frame(pair.server).has_value());
}

TEST(Framing, CloseInsideAFrameThrows) {
  SocketPair pair;
  // Length prefix promising 100 bytes, then only 3 bytes and a close.
  const std::array<std::byte, 4> prefix{std::byte{100}, std::byte{0}, std::byte{0},
                                        std::byte{0}};
  pair.client.send_all(prefix);
  pair.client.send_all(bytes_of("abc"));
  pair.client.close();
  EXPECT_THROW((void)net::recv_frame(pair.server), net::NetError);
}

TEST(Framing, OversizedLengthPrefixThrowsBeforeAllocating) {
  SocketPair pair;
  const std::array<std::byte, 4> prefix{std::byte{0xff}, std::byte{0xff},
                                        std::byte{0xff}, std::byte{0xff}};
  pair.client.send_all(prefix);
  EXPECT_THROW((void)net::recv_frame(pair.server), net::NetError);
}

TEST(Framing, RefusesToSendPayloadAboveLimit) {
  SocketPair pair;
  const util::Bytes payload(128);
  EXPECT_THROW(net::send_frame(pair.client, payload, /*max_bytes=*/64), net::NetError);
}

// --- protocol round-trips ----------------------------------------------------

TEST(Protocol, HelloRoundTrip) {
  dist::Hello m;
  m.worker_name = "node-7";
  const auto encoded = dist::encode(m);
  EXPECT_EQ(dist::peek_type(encoded), dist::MsgType::Hello);
  const auto decoded = dist::decode<dist::Hello>(encoded);
  EXPECT_EQ(decoded.magic, dist::kProtocolMagic);
  EXPECT_EQ(decoded.version, dist::kProtocolVersion);
  EXPECT_EQ(decoded.worker_name, "node-7");
}

TEST(Protocol, HelloAckRoundTrip) {
  dist::HelloAck m;
  m.worker_id = 3;
  m.plan_fingerprint = 0xdeadbeefcafef00dULL;
  m.plan_text = "runs = 10\n[cell]\nfault = BF\n";
  m.checkpoint_dir = "/tmp/store";
  m.chunk_size = 4096;
  m.checkpoint_budget = 0x123456789aULL;
  m.heartbeat_interval_ms = 250;
  const auto encoded = dist::encode(m);
  EXPECT_EQ(dist::peek_type(encoded), dist::MsgType::HelloAck);
  const auto decoded = dist::decode<dist::HelloAck>(encoded);
  EXPECT_EQ(decoded.worker_id, 3u);
  EXPECT_EQ(decoded.plan_fingerprint, m.plan_fingerprint);
  EXPECT_EQ(decoded.plan_text, m.plan_text);
  EXPECT_EQ(decoded.checkpoint_dir, "/tmp/store");
  EXPECT_EQ(decoded.chunk_size, 4096u);
  EXPECT_EQ(decoded.checkpoint_budget, 0x123456789aULL);
  EXPECT_EQ(decoded.heartbeat_interval_ms, 250u);
}

TEST(Protocol, HelloRejectRoundTrip) {
  const auto encoded = dist::encode(dist::HelloReject{"version skew"});
  EXPECT_EQ(dist::peek_type(encoded), dist::MsgType::HelloReject);
  EXPECT_EQ(dist::decode<dist::HelloReject>(encoded).reason, "version skew");
}

TEST(Protocol, WorkRequestAndShutdownAreTagOnly) {
  const auto request = dist::encode(dist::WorkRequest{});
  EXPECT_EQ(request.size(), 1u);
  EXPECT_EQ(dist::peek_type(request), dist::MsgType::WorkRequest);
  const auto shutdown = dist::encode(dist::Shutdown{});
  EXPECT_EQ(shutdown.size(), 1u);
  EXPECT_EQ(dist::peek_type(shutdown), dist::MsgType::Shutdown);
}

TEST(Protocol, WorkGrantRoundTripAndInvertedRangeRejected) {
  dist::WorkGrant m;
  m.unit_id = 17;
  m.cell_index = 2;
  m.run_begin = 96;
  m.run_end = 128;
  const auto encoded = dist::encode(m);
  const auto decoded = dist::decode<dist::WorkGrant>(encoded);
  EXPECT_EQ(decoded.unit_id, 17u);
  EXPECT_EQ(decoded.cell_index, 2u);
  EXPECT_EQ(decoded.run_begin, 96u);
  EXPECT_EQ(decoded.run_end, 128u);

  dist::WorkGrant inverted = m;
  inverted.run_begin = 128;
  inverted.run_end = 96;
  EXPECT_THROW((void)dist::decode<dist::WorkGrant>(dist::encode(inverted)),
               std::invalid_argument);
}

TEST(Protocol, CellInfoRoundTrip) {
  dist::CellInfo m;
  m.cell_index = 5;
  m.primitive_count = 1234;
  m.golden_cached = true;
  m.checkpointed = true;
  m.checkpoint_loaded = false;
  m.error = "the target primitive never executed";
  const auto decoded = dist::decode<dist::CellInfo>(dist::encode(m));
  EXPECT_EQ(decoded.cell_index, 5u);
  EXPECT_EQ(decoded.primitive_count, 1234u);
  EXPECT_TRUE(decoded.golden_cached);
  EXPECT_TRUE(decoded.checkpointed);
  EXPECT_FALSE(decoded.checkpoint_loaded);
  EXPECT_EQ(decoded.error, m.error);
}

/// (name, value) of every FsStats counter, in table order.
std::vector<std::pair<std::string, std::uint64_t>> fs_values(const vfs::FsStats& stats) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  stats.for_each([&](const char* name, std::uint64_t v) { out.emplace_back(name, v); });
  return out;
}

TEST(Protocol, RunRowRoundTripsEveryTableCounter) {
  dist::RunRow m;
  m.unit_id = 9;
  m.cell_index = 1;
  m.run_index = 77;
  m.outcome = core::Outcome::Sdc;
  m.fault_fired = true;
  m.analyze_skipped = false;
  test_support::set_distinct_counters(m.fs_stats);
  m.execute_ms = 1.25;
  m.analyze_ms = 0.5;
  const auto decoded = dist::decode<dist::RunRow>(dist::encode(m));
  EXPECT_EQ(decoded.unit_id, 9u);
  EXPECT_EQ(decoded.cell_index, 1u);
  EXPECT_EQ(decoded.run_index, 77u);
  EXPECT_EQ(decoded.outcome, core::Outcome::Sdc);
  EXPECT_TRUE(decoded.fault_fired);
  EXPECT_FALSE(decoded.analyze_skipped);
  EXPECT_FALSE(decoded.record.features_drawn);
  EXPECT_EQ(fs_values(decoded.fs_stats), fs_values(m.fs_stats));
  // Phase timers must round-trip bit-exactly (IEEE-754 pattern on the wire).
  EXPECT_EQ(decoded.execute_ms, 1.25);
  EXPECT_EQ(decoded.analyze_ms, 0.5);
}

std::string hex(util::ByteSpan bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += kDigits[std::to_integer<unsigned>(b) >> 4];
    out += kDigits[std::to_integer<unsigned>(b) & 0xf];
  }
  return out;
}

TEST(Protocol, RunRowV5EncodingIsPinned) {
  dist::RunRow m;
  m.unit_id = 9;
  m.cell_index = 1;
  m.run_index = 77;
  m.outcome = core::Outcome::Sdc;
  m.fault_fired = true;
  m.analyze_skipped = true;
  m.execute_ms = 1.25;
  m.analyze_ms = 0.5;
  test_support::set_distinct_counters(m.fs_stats, /*base=*/1);
  std::string counters;
  for (std::uint64_t i = 1; i <= vfs::FsStats::kCount; ++i) {
    util::Bytes le;
    util::ByteWriter(le).u64(i);
    counters += hex(le);
  }
  util::Bytes count;
  util::ByteWriter(count).u32(static_cast<std::uint32_t>(vfs::FsStats::kCount));
  EXPECT_EQ(hex(dist::encode(m)),
            "07"                  // tag
            "0900000000000000"    // unit_id
            "01000000"            // cell_index
            "4d00000000000000"    // run_index
            "02"                  // outcome (Sdc)
            "03"                  // fault_fired | analyze_skipped
            "000000000000f43f"    // execute_ms = 1.25
            "000000000000e03f" +  // analyze_ms = 0.5
                hex(count) + counters);
  EXPECT_EQ(hex(count), "09000000");  // today's table: nine FsStats counters
  // Bit 2 clear: the row's fault drew no feature, so it fills its instance.
  EXPECT_FALSE(dist::decode<dist::RunRow>(dist::encode(m)).record.features_drawn);

  m.record.features_drawn = true;
  m.synthesized = true;
  EXPECT_EQ(hex(dist::encode(m)).substr(2 * (1 + 8 + 4 + 8 + 1), 2),
            "0f");  // fault_fired | analyze_skipped | features_drawn | synthesized
  m.resumed_late = true;
  EXPECT_EQ(hex(dist::encode(m)).substr(2 * (1 + 8 + 4 + 8 + 1), 2), "1f");
}

/// One populated instance of every frame declaration, in tag order.
dist::Frames sample_frames() {
  dist::Hello hello;
  hello.worker_name = "fuzzed-worker";
  hello.auth_token = "secret";
  hello.reconnect = true;
  dist::HelloAck ack;
  ack.worker_id = 1;
  ack.plan_text = "runs = 4\n[cell]\nfault = BF\n";
  ack.checkpoint_dir = "/tmp/ffis-store";
  ack.heartbeat_interval_ms = 250;
  dist::WorkGrant grant;
  grant.unit_id = 3;
  grant.cell_index = 1;
  grant.run_begin = 32;
  grant.run_end = 64;
  dist::CellInfo info;
  info.cell_index = 2;
  info.checkpointed = true;
  info.error = "prepare failed";
  dist::RunRow row;
  row.outcome = core::Outcome::Crash;
  row.fault_fired = true;
  row.resumed_late = true;
  row.execute_ms = 3.5;
  test_support::set_distinct_counters(row.fs_stats);
  dist::RunBatch batch;
  batch.rows = {row, dist::RunRow{}};
  return {hello, ack, dist::HelloReject{"version skew"}, dist::WorkRequest{}, grant, info, row,
          dist::UnitDone{7}, dist::Shutdown{}, dist::Ping{}, dist::Pong{}, batch};
}

TEST(Protocol, EveryFrameRoundTripsByteIdentically) {
  const auto round_trips = [](const auto& frame) {
    using Frame = std::decay_t<decltype(frame)>;
    const util::Bytes encoded = dist::encode(frame);
    EXPECT_EQ(dist::peek_type(encoded), Frame::kType);
    EXPECT_EQ(dist::encode(dist::decode<Frame>(encoded)), encoded)
        << "type tag " << static_cast<int>(Frame::kType);
  };
  std::apply([&](const auto&... frame) { (round_trips(frame), ...); }, sample_frames());
}

/// `encoded` with the byte at `at` replaced by `value`.
util::Bytes with_byte(util::Bytes encoded, std::size_t at, unsigned value) {
  encoded.at(at) = static_cast<std::byte>(value);
  return encoded;
}

TEST(Protocol, HelloRejectsFlagBitsNoFieldNames) {
  const auto encoded = dist::encode(std::get<dist::Hello>(sample_frames()));
  const std::size_t flags_at = encoded.size() - 1;
  EXPECT_TRUE(dist::decode<dist::Hello>(with_byte(encoded, flags_at, 0x01)).reconnect);
  EXPECT_THROW((void)dist::decode<dist::Hello>(with_byte(encoded, flags_at, 0x02)),
               std::invalid_argument);
  EXPECT_THROW((void)dist::decode<dist::Hello>(with_byte(encoded, flags_at, 0x81)),
               std::invalid_argument);
}

TEST(Protocol, CellInfoRejectsFlagBitsNoFieldNames) {
  const auto encoded = dist::encode(std::get<dist::CellInfo>(sample_frames()));
  const std::size_t flags_at = 1 + 4 + 8;  // tag, cell_index, primitive_count
  EXPECT_TRUE(dist::decode<dist::CellInfo>(with_byte(encoded, flags_at, 0x07)).checkpoint_loaded);
  EXPECT_THROW((void)dist::decode<dist::CellInfo>(with_byte(encoded, flags_at, 0x08)),
               std::invalid_argument);
}

TEST(Protocol, RunRowRejectsFlagBitsNoFieldNames) {
  const auto encoded = dist::encode(std::get<dist::RunRow>(sample_frames()));
  const std::size_t flags_at = 1 + 8 + 4 + 8 + 1;  // tag, indices, outcome
  EXPECT_TRUE(dist::decode<dist::RunRow>(with_byte(encoded, flags_at, 0x1f)).resumed_late);
  EXPECT_THROW((void)dist::decode<dist::RunRow>(with_byte(encoded, flags_at, 0x20)),
               std::invalid_argument);
  EXPECT_THROW((void)dist::decode<dist::RunRow>(with_byte(encoded, flags_at, 0x80)),
               std::invalid_argument);
}

// --- golden bytes of every frame ---------------------------------------------
// A change to any of these is a wire-format change: it needs a
// kProtocolVersion bump (and for CellInfo and RunRow, which the campaign
// journal stores, a journal format bump).

TEST(Protocol, HelloBytesArePinned) {
  dist::Hello m;
  m.worker_name = "w1";
  m.auth_token = "tk";
  m.reconnect = true;
  EXPECT_EQ(hex(dist::encode(m)),
            "01"                      // tag
            "53494646"                // magic "FFIS"
            "0b000000"                // version 11
            "0200000000000000" "7731"  // worker_name "w1"
            "0200000000000000" "746b"  // auth_token "tk"
            "01");                    // flags: reconnect
}

TEST(Protocol, HelloAckBytesArePinned) {
  dist::HelloAck m;
  m.worker_id = 3;
  m.plan_fingerprint = 0x0123456789abcdefULL;
  m.plan_text = "p";
  m.checkpoint_dir = "d";
  m.chunk_size = 4096;
  m.checkpoint_budget = 5;
  m.heartbeat_interval_ms = 250;
  EXPECT_EQ(hex(dist::encode(m)),
            "02"                    // tag
            "03000000"              // worker_id
            "efcdab8967452301"      // plan_fingerprint
            "0100000000000000" "70"  // plan_text "p"
            "0100000000000000" "64"  // checkpoint_dir "d"
            "0010000000000000"      // chunk_size
            "0500000000000000"      // checkpoint_budget
            "fa00000000000000");    // heartbeat_interval_ms
}

TEST(Protocol, HelloRejectBytesArePinned) {
  EXPECT_EQ(hex(dist::encode(dist::HelloReject{"no"})),
            "03"                      // tag
            "0200000000000000" "6e6f");  // reason "no"
}

TEST(Protocol, TagOnlyFrameBytesArePinned) {
  EXPECT_EQ(hex(dist::encode(dist::WorkRequest{})), "04");
  EXPECT_EQ(hex(dist::encode(dist::Shutdown{})), "09");
  EXPECT_EQ(hex(dist::encode(dist::Ping{})), "0a");
  EXPECT_EQ(hex(dist::encode(dist::Pong{})), "0b");
}

TEST(Protocol, WorkGrantBytesArePinned) {
  dist::WorkGrant m;
  m.unit_id = 17;
  m.cell_index = 2;
  m.run_begin = 96;
  m.run_end = 128;
  EXPECT_EQ(hex(dist::encode(m)),
            "05"                 // tag
            "1100000000000000"   // unit_id
            "02000000"           // cell_index
            "6000000000000000"   // run_begin
            "8000000000000000");  // run_end
}

TEST(Protocol, CellInfoBytesArePinned) {
  dist::CellInfo m;
  m.cell_index = 5;
  m.primitive_count = 1234;
  m.golden_cached = true;
  m.checkpointed = false;
  m.checkpoint_loaded = true;
  m.error = "e";
  EXPECT_EQ(hex(dist::encode(m)),
            "06"                     // tag
            "05000000"               // cell_index
            "d204000000000000"       // primitive_count
            "05"                     // flags: golden_cached | checkpoint_loaded
            "0100000000000000" "65");  // error "e"
}

TEST(Protocol, RunBatchBytesArePinned) {
  ASSERT_EQ(vfs::FsStats::kCount, 9u);  // today's run-counter table
  dist::RunBatch batch;
  for (std::uint64_t i = 0; i < 2; ++i) {
    dist::RunRow row;
    row.unit_id = 3;
    row.cell_index = 1;
    row.run_index = 10 + i;
    row.outcome = i == 0 ? core::Outcome::Benign : core::Outcome::Crash;
    row.fault_fired = i == 1;
    row.analyze_skipped = i == 0;
    row.synthesized = i == 0;
    row.resumed_late = i == 1;
    row.execute_ms = i == 0 ? 0.25 : 2.0;
    test_support::set_distinct_counters(row.fs_stats, /*base=*/1 + 16 * i);
    batch.rows.push_back(row);
  }
  // The nine counters base, base + 1, ... as u64s after their u32 count.
  const auto counters = [](std::uint64_t base) {
    util::Bytes out;
    util::ByteWriter w(out);
    w.u32(9);
    for (std::uint64_t v = base; v < base + 9; ++v) w.u64(v);
    return hex(out);
  };
  EXPECT_EQ(hex(dist::encode(batch)),
            "0c"                  // tag
            "02000000"            // row count
            "7300000000000000"    // row 0: blob length (115)
            "07"                  //   RunRow tag
            "0300000000000000"    //   unit_id
            "01000000"            //   cell_index
            "0a00000000000000"    //   run_index
            "00"                  //   outcome (Benign)
            "0a"                  //   analyze_skipped | synthesized
            "000000000000d03f"    //   execute_ms = 0.25
            "0000000000000000" +  //   analyze_ms
                counters(1) +
                "7300000000000000"  // row 1: blob length (115)
                "07"                //   RunRow tag
                "0300000000000000"  //   unit_id
                "01000000"          //   cell_index
                "0b00000000000000"  //   run_index
                "03"                //   outcome (Crash)
                "11"                //   fault_fired | resumed_late
                "0000000000000040"  //   execute_ms = 2.0
                "0000000000000000" +  // analyze_ms
                counters(17));
}

TEST(Protocol, UnitDoneBytesArePinned) {
  EXPECT_EQ(hex(dist::encode(dist::UnitDone{41})),
            "08"                 // tag
            "2900000000000000");  // unit_id
}

TEST(Protocol, RunRowCarriesFeaturesDrawnInFlagsBitTwo) {
  core::RunResult run;
  run.record.features_drawn = true;
  const util::Bytes encoded = dist::encode(dist::RunRow{run});
  // tag, unit_id, cell_index, run_index, outcome, then the flags byte.
  EXPECT_EQ(std::to_integer<unsigned>(encoded[1 + 8 + 4 + 8 + 1]), 4u);
  const auto decoded = dist::decode<dist::RunRow>(encoded);
  EXPECT_TRUE(decoded.record.features_drawn);
  EXPECT_FALSE(decoded.fault_fired);
  EXPECT_FALSE(decoded.analyze_skipped);
  EXPECT_FALSE(decoded.synthesized);
  // `replayed` is the collector's to label: it never travels.
  EXPECT_FALSE(decoded.replayed);
  run.replayed = true;
  EXPECT_EQ(dist::encode(dist::RunRow{run}), encoded);
}

TEST(Protocol, RunRowCarriesSynthesizedInFlagsBitThree) {
  core::RunResult run;
  run.synthesized = true;
  const util::Bytes encoded = dist::encode(dist::RunRow{run, 1, 2, 3});
  EXPECT_EQ(std::to_integer<unsigned>(encoded[1 + 8 + 4 + 8 + 1]), 8u);
  const auto decoded = dist::decode<dist::RunRow>(encoded);
  EXPECT_TRUE(decoded.synthesized);
  EXPECT_FALSE(decoded.record.features_drawn);
  EXPECT_EQ(decoded.run_index, 3u);
}

TEST(Protocol, RunRowCarriesResumedLateInFlagsBitFour) {
  dist::RunRow m;
  m.resumed_late = true;
  const util::Bytes encoded = dist::encode(m);
  EXPECT_EQ(std::to_integer<unsigned>(encoded[1 + 8 + 4 + 8 + 1]), 16u);
  const auto decoded = dist::decode<dist::RunRow>(encoded);
  EXPECT_TRUE(decoded.resumed_late);
  EXPECT_FALSE(decoded.synthesized);
  EXPECT_FALSE(decoded.record.features_drawn);
  EXPECT_EQ(dist::encode(decoded), encoded);
}

TEST(Protocol, RunRowCounterListToleratesLengthSkewButNotForgedCounts) {
  dist::RunRow m;
  test_support::set_distinct_counters(m.fs_stats, /*base=*/1);
  const util::Bytes full = dist::encode(m);
  const std::size_t count_at = full.size() - 8 * vfs::FsStats::kCount - 4;

  // A list shorter than this build's table (an older peer): the missing
  // tail counters read as 0.
  util::Bytes shorter(full.begin(), full.end() - 16);
  shorter[count_at] = static_cast<std::byte>(vfs::FsStats::kCount - 2);
  const auto short_row = dist::decode<dist::RunRow>(shorter);
  std::uint64_t expected = 1;
  short_row.fs_stats.for_each([&](const char* name, std::uint64_t v) {
    EXPECT_EQ(v, expected <= vfs::FsStats::kCount - 2 ? expected : 0u) << name;
    ++expected;
  });

  // A longer list (a newer table): the extra counters are skipped.
  util::Bytes longer = full;
  util::ByteWriter(longer).u64(0xfeed);
  longer[count_at] = static_cast<std::byte>(vfs::FsStats::kCount + 1);
  EXPECT_EQ(fs_values(dist::decode<dist::RunRow>(longer).fs_stats), fs_values(m.fs_stats));

  // A count promising more counters than the payload holds is rejected
  // before a single counter is read.
  util::Bytes forged = full;
  forged[count_at + 3] = std::byte{0x7f};
  EXPECT_THROW((void)dist::decode<dist::RunRow>(forged), std::out_of_range);
}

TEST(Protocol, RunBatchRoundTripsEveryRowThroughTheRowDecoder) {
  dist::RunBatch batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    dist::RunRow row;
    row.unit_id = 3;
    row.cell_index = 1;
    row.run_index = 10 + i;
    row.outcome = i % 2 == 0 ? core::Outcome::Benign : core::Outcome::Sdc;
    row.fs_stats.arena_bytes_recycled = 100 * i;
    row.execute_ms = 0.25 * static_cast<double>(i);
    batch.rows.push_back(row);
  }
  const auto encoded = dist::encode(batch);
  EXPECT_EQ(dist::peek_type(encoded), dist::MsgType::RunBatch);
  const auto decoded = dist::decode<dist::RunBatch>(encoded);
  ASSERT_EQ(decoded.rows.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(decoded.rows[i].run_index, 10 + i);
    EXPECT_EQ(decoded.rows[i].outcome,
              i % 2 == 0 ? core::Outcome::Benign : core::Outcome::Sdc);
    EXPECT_EQ(decoded.rows[i].fs_stats.arena_bytes_recycled, 100 * i);
    EXPECT_EQ(decoded.rows[i].execute_ms, 0.25 * static_cast<double>(i));
  }
  // An empty batch is legal (the worker never sends one, but the decoder
  // must not confuse "no rows" with truncation).
  EXPECT_TRUE(dist::decode<dist::RunBatch>(dist::encode(dist::RunBatch{})).rows.empty());
}

TEST(Protocol, RunBatchRejectsForgedCountAndBadRows) {
  dist::RunBatch batch;
  batch.rows.emplace_back();
  auto encoded = dist::encode(batch);
  // Byte 1 is the low byte of the LE row count: forging 0xff promises more
  // rows than the payload could hold, which must throw before any loop runs.
  encoded[1] = std::byte{0xff};
  EXPECT_THROW((void)dist::decode<dist::RunBatch>(encoded), std::out_of_range);
  // A row with an out-of-range outcome poisons the whole batch.
  auto bad_row = dist::encode(batch);
  // Offset: tag(1) + count(4) + blob length(8) + row tag(1) + unit_id(8) +
  // cell_index(4) + run_index(8) = the row's outcome byte.
  bad_row[1 + 4 + 8 + 1 + 8 + 4 + 8] = std::byte{0x7f};
  EXPECT_THROW((void)dist::decode<dist::RunBatch>(bad_row), std::invalid_argument);
}

TEST(Protocol, RunRowRejectsOutOfRangeOutcome) {
  dist::RunRow m;
  auto encoded = dist::encode(m);
  // The outcome byte sits right after unit_id(8) + cell_index(4) +
  // run_index(8) + the tag byte.
  encoded[1 + 8 + 4 + 8] = std::byte{0x7f};
  EXPECT_THROW((void)dist::decode<dist::RunRow>(encoded), std::invalid_argument);
}

TEST(Protocol, UnitDoneRoundTrip) {
  EXPECT_EQ(dist::decode<dist::UnitDone>(dist::encode(dist::UnitDone{41})).unit_id, 41u);
}

TEST(Protocol, HelloCarriesAuthTokenAndReconnect) {
  dist::Hello m;
  m.worker_name = "node-9";
  m.auth_token = "fleet-secret";
  m.reconnect = true;
  const auto decoded = dist::decode<dist::Hello>(dist::encode(m));
  EXPECT_EQ(decoded.version, dist::kProtocolVersion);
  EXPECT_EQ(decoded.auth_token, "fleet-secret");
  EXPECT_TRUE(decoded.reconnect);
}

TEST(Protocol, OtherVersionHelloDecodesOnlyItsPrefix) {
  // Whatever an old worker put after magic + version (a v1 Hello had no
  // auth token), the coordinator must still learn the version to reject it
  // by name.
  util::Bytes v1;
  util::ByteWriter w(v1);
  w.u8(static_cast<std::uint8_t>(dist::MsgType::Hello));
  w.u32(dist::kProtocolMagic);
  w.u32(1);
  w.str("old-node");
  const auto decoded = dist::decode<dist::Hello>(v1);
  EXPECT_EQ(decoded.magic, dist::kProtocolMagic);
  EXPECT_EQ(decoded.version, 1u);
  EXPECT_TRUE(decoded.worker_name.empty());
  // This build's Hello with trailing bytes is still malformed.
  auto padded = dist::encode(dist::Hello{});
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)dist::decode<dist::Hello>(padded), std::out_of_range);
}

TEST(Protocol, HelloAckCarriesHeartbeatInterval) {
  dist::HelloAck m;
  m.worker_id = 2;
  m.heartbeat_interval_ms = 750;
  const auto encoded = dist::encode(m);
  EXPECT_EQ(dist::decode<dist::HelloAck>(encoded).heartbeat_interval_ms, 750u);
  const util::ByteSpan truncated(encoded.data(), encoded.size() - 8);
  EXPECT_THROW((void)dist::decode<dist::HelloAck>(truncated), std::out_of_range);
}

TEST(Protocol, PingPongRoundTripAsTagOnly) {
  const auto ping = dist::encode(dist::Ping{});
  EXPECT_EQ(ping.size(), 1u);
  EXPECT_EQ(dist::peek_type(ping), dist::MsgType::Ping);
  const auto pong = dist::encode(dist::Pong{});
  EXPECT_EQ(pong.size(), 1u);
  EXPECT_EQ(dist::peek_type(pong), dist::MsgType::Pong);
}

TEST(Protocol, ConstantTimeEqualComparesExactBytes) {
  EXPECT_TRUE(dist::constant_time_equal("", ""));
  EXPECT_TRUE(dist::constant_time_equal("secret", "secret"));
  EXPECT_FALSE(dist::constant_time_equal("secret", "secres"));
  EXPECT_FALSE(dist::constant_time_equal("secret", "secret "));
  EXPECT_FALSE(dist::constant_time_equal("", "x"));
}

TEST(Protocol, PeekTypeRejectsEmptyAndUnknown) {
  EXPECT_THROW((void)dist::peek_type({}), std::out_of_range);
  const util::Bytes junk{std::byte{0x63}};
  EXPECT_THROW((void)dist::peek_type(junk), std::invalid_argument);
  const util::Bytes zero{std::byte{0x00}};
  EXPECT_THROW((void)dist::peek_type(zero), std::invalid_argument);
}

TEST(Protocol, DecodersRejectWrongTagAndTrailingGarbage) {
  const auto hello = dist::encode(dist::Hello{});
  EXPECT_THROW((void)dist::decode<dist::WorkGrant>(hello), std::invalid_argument);
  auto padded = dist::encode(dist::UnitDone{1});
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)dist::decode<dist::UnitDone>(padded), std::out_of_range);
}

// --- FaultySocket ------------------------------------------------------------

TEST(FaultySocket, NonePlanIsATransparentPassThrough) {
  SocketPair pair;
  net::FaultySocket faulty(std::move(pair.client), net::FaultPlan::none());
  net::send_frame(faulty, bytes_of("ping over faulty"));
  const auto got = net::recv_frame(pair.server);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "ping over faulty");

  net::send_frame(pair.server, bytes_of("pong back"));
  const auto back = net::recv_frame(faulty);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(util::to_string(*back), "pong back");
  EXPECT_FALSE(faulty.fault_fired());
  EXPECT_GT(faulty.bytes_sent(), 0u);
  EXPECT_GT(faulty.bytes_received(), 0u);
}

TEST(FaultySocket, DropAfterSendBlackholesAndFailsTheNextRecv) {
  SocketPair pair;
  // Budget covers exactly the 4-byte length prefix: the payload vanishes.
  net::FaultySocket faulty(std::move(pair.client), net::FaultPlan::drop_after_send(4));
  net::send_frame(faulty, bytes_of("hello"));
  EXPECT_TRUE(faulty.fault_fired());
  // The blackholed conversation can never produce a reply.
  EXPECT_THROW((void)net::recv_frame(faulty), net::NetError);
  // The peer sees the link die mid-frame (prefix promised 5 bytes).
  EXPECT_THROW((void)net::recv_frame(pair.server), net::NetError);
}

TEST(FaultySocket, CloseAfterRecvAtFrameBoundaryIsACleanClose) {
  SocketPair pair;
  const util::Bytes payload = bytes_of("whole frame");
  net::FaultySocket faulty(std::move(pair.server),
                           net::FaultPlan::close_after_recv(4 + payload.size()));
  net::send_frame(pair.client, payload);
  net::send_frame(pair.client, payload);  // never delivered
  const auto first = net::recv_frame(faulty);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, payload);
  // The budget is exhausted exactly between frames: a clean close, as if the
  // peer shut down after its last complete message.
  EXPECT_FALSE(net::recv_frame(faulty).has_value());
  EXPECT_TRUE(faulty.fault_fired());
}

TEST(FaultySocket, CloseAfterRecvMidFrameThrows) {
  SocketPair pair;
  net::FaultySocket faulty(std::move(pair.server), net::FaultPlan::close_after_recv(2));
  net::send_frame(pair.client, bytes_of("doomed"));
  EXPECT_THROW((void)net::recv_frame(faulty), net::NetError);
  EXPECT_TRUE(faulty.fault_fired());
}

TEST(FaultySocket, GarbledLengthPrefixIsRejectedBeforeAllocation) {
  SocketPair pair;
  // Byte 3 is the length prefix's most significant byte (LE): the flip
  // forges a ~2 GiB frame, which the framing limit rejects.
  net::FaultySocket faulty(std::move(pair.server), net::FaultPlan::garble_recv_byte(3));
  net::send_frame(pair.client, bytes_of("x"));
  EXPECT_THROW((void)net::recv_frame(faulty), net::NetError);
  EXPECT_TRUE(faulty.fault_fired());
}

TEST(FaultySocket, StallRecvDelaysButDeliversIntactData) {
  SocketPair pair;
  net::FaultySocket faulty(std::move(pair.server), net::FaultPlan::stall_recv(0, 5));
  net::send_frame(pair.client, bytes_of("slow but alive"));
  const auto got = net::recv_frame(faulty);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::to_string(*got), "slow but alive");
  EXPECT_TRUE(faulty.fault_fired());
}

TEST(FaultySocket, FromSeedIsDeterministicAndCoversEveryKind) {
  bool saw[5] = {};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto a = net::FaultPlan::from_seed(seed);
    const auto b = net::FaultPlan::from_seed(seed);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.at_byte, b.at_byte);
    EXPECT_EQ(a.stall_ms, b.stall_ms);
    saw[static_cast<std::size_t>(a.kind)] = true;
    if (a.kind == net::FaultPlan::Kind::GarbleRecvByte) {
      EXPECT_LT(a.at_byte, 14u);  // garbles stay inside the handshake region
    }
  }
  EXPECT_TRUE(saw[static_cast<std::size_t>(net::FaultPlan::Kind::DropAfterSend)]);
  EXPECT_TRUE(saw[static_cast<std::size_t>(net::FaultPlan::Kind::CloseAfterRecv)]);
  EXPECT_TRUE(saw[static_cast<std::size_t>(net::FaultPlan::Kind::GarbleRecvByte)]);
  EXPECT_TRUE(saw[static_cast<std::size_t>(net::FaultPlan::Kind::StallRecv)]);
}

// --- malformed-input fuzz ----------------------------------------------------

/// Every decoder must respond to arbitrary corruption with an exception (or
/// a successful parse of coincidentally-valid bytes) — never a crash, hang,
/// or giant allocation.
void fuzz_decoder(const util::Bytes& valid,
                  const std::function<void(util::ByteSpan)>& decode) {
  // Truncation at every length below the full message.
  for (std::size_t n = 0; n < valid.size(); ++n) {
    const util::ByteSpan prefix(valid.data(), n);
    EXPECT_THROW(decode(prefix), std::exception) << "truncated to " << n << " bytes";
  }
  // Seeded random single-byte corruption.
  util::Rng rng(0xf22dULL);
  for (int i = 0; i < 512; ++i) {
    util::Bytes corrupt = valid;
    const std::size_t pos = rng() % corrupt.size();
    corrupt[pos] ^= static_cast<std::byte>(1 + (rng() % 255));
    try {
      decode(corrupt);  // a flip that keeps the message valid is fine
    } catch (const std::exception&) {
      // expected for most flips
    }
  }
}

TEST(ProtocolFuzz, MalformedFramesThrowNeverCrash) {
  const auto fuzz = [](const auto& frame) {
    using Frame = std::decay_t<decltype(frame)>;
    fuzz_decoder(dist::encode(frame), [](util::ByteSpan b) { (void)dist::decode<Frame>(b); });
  };
  std::apply([&](const auto&... frame) { (fuzz(frame), ...); }, sample_frames());
}

}  // namespace
