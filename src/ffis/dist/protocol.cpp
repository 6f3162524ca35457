#include "ffis/dist/protocol.hpp"

#include <stdexcept>

namespace ffis::dist {

using util::ByteReader;
using util::Bytes;
using util::ByteWriter;

namespace {

[[noreturn]] void forged_count(std::uint64_t count, std::size_t bytes) {
  throw std::out_of_range("malformed frame: count " + std::to_string(count) + " exceeds what " +
                          std::to_string(bytes) + " payload bytes could hold");
}

}  // namespace

MsgType peek_type(util::ByteSpan payload) {
  ByteReader r(payload);
  const auto tag = r.u8();
  if (tag < 1 || tag > std::tuple_size_v<Frames>) {
    throw std::invalid_argument("unknown message type tag " + std::to_string(tag));
  }
  return static_cast<MsgType>(tag);
}

// --- field codecs ------------------------------------------------------------

void WireWriter::operator()(const vfs::FsStats& stats) {
  w_.u32(static_cast<std::uint32_t>(vfs::FsStats::kCount));
  stats.for_each([&](const char*, std::uint64_t v) { w_.u64(v); });
}

void WireReader::operator()(core::Outcome& o) {
  const auto tag = r_.u8();
  if (tag >= core::kOutcomeCount) {
    throw std::invalid_argument("malformed frame: outcome tag " + std::to_string(tag) +
                                " out of range");
  }
  o = static_cast<core::Outcome>(tag);
}

void WireReader::operator()(vfs::FsStats& stats) {
  // A peer with a shorter counter table sends fewer counters (the missing
  // tail reads as 0), a newer one more (the extras are skipped).
  const std::uint32_t count = r_.u32();
  if (count > r_.remaining() / 8) forged_count(count, r_.remaining());
  std::uint32_t i = 0;
  stats.for_each([&](const char*, std::uint64_t& v) { v = i++ < count ? r_.u64() : 0; });
  for (; i < count; ++i) (void)r_.u64();  // counters a newer table appended
}

void WireReader::tag(std::uint8_t expected) {
  const auto tag = r_.u8();
  if (tag != expected) {
    throw std::invalid_argument("expected type tag " + std::to_string(expected) +
                                ", got type tag " + std::to_string(tag));
  }
}

unsigned WireReader::flag_byte(std::size_t named) {
  const unsigned byte = r_.u8();
  if (byte >> named != 0) {
    throw std::invalid_argument("malformed frame: flags byte " + std::to_string(byte) +
                                " sets a bit no field names");
  }
  return byte;
}

std::size_t WireReader::list_count(CountWidth width) {
  const std::uint64_t count = width == CountWidth::u32 ? r_.u32() : r_.u64();
  if (count > r_.remaining() / 8) forged_count(count, r_.remaining());
  return static_cast<std::size_t>(count);
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
