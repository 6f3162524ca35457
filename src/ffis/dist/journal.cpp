#include "ffis/dist/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "ffis/util/serialize.hpp"

namespace ffis::dist {

namespace {

using util::ByteReader;
using util::Bytes;
using util::ByteSpan;
using util::ByteWriter;

constexpr std::string_view kSignature = "FFISJRNL";
/// 2: records hold protocol-v5 RunRows.  A journal of another format fails
/// the header comparison and the campaign starts over.
constexpr std::uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
/// Far above any real record (a 16 Ki-run unit is ~1.5 MiB) while still
/// rejecting a garbage length field before it sizes an allocation.
constexpr std::size_t kMaxRecordBytes = 16 * 1024 * 1024;
constexpr std::uint64_t kMaxRowsPerRecord = 1u << 20;

constexpr std::uint8_t kKindCellInfo = 1;
constexpr std::uint8_t kKindUnit = 2;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("campaign journal: " + what + ": " +
                           std::strerror(errno));
}

Bytes encode_header(std::uint64_t plan_fingerprint, std::uint64_t unit_runs) {
  Bytes out;
  ByteWriter w(out);
  w.raw(util::to_bytes(kSignature));
  w.u32(kFormatVersion);
  w.u64(plan_fingerprint);
  w.u64(unit_runs);
  w.u64(util::fnv1a64(out));
  return out;
}

/// Parses one checksummed record payload into `replay`.  Throws on any
/// structural problem — the caller treats it as the end of the valid prefix.
void apply_record(ByteSpan payload, JournalReplay& replay) {
  ByteReader r(payload);
  const auto kind = r.u8();
  if (kind == kKindCellInfo) {
    replay.cell_infos.push_back(decode_cell_info(r.view(r.remaining())));
    return;
  }
  if (kind != kKindUnit) {
    throw std::invalid_argument("unknown journal record kind " +
                                std::to_string(kind));
  }
  JournalReplay::Unit unit;
  unit.unit_id = r.u64();
  const std::uint64_t n = r.u64_bounded(kMaxRowsPerRecord, "journal row count");
  unit.rows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t worker_id = r.u32();
    const Bytes row = r.blob();
    unit.rows.emplace_back(worker_id, decode_run_row(row));
  }
  r.expect_end();
  replay.units.push_back(std::move(unit));
}

}  // namespace

CampaignJournal::CampaignJournal(std::string path, std::uint64_t plan_fingerprint,
                                 std::uint64_t unit_runs)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("cannot open " + path_);

  Bytes data;
  {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("cannot read " + path_);
      }
      if (n == 0) break;
      data.insert(data.end(), reinterpret_cast<const std::byte*>(buf),
                  reinterpret_cast<const std::byte*>(buf) + n);
    }
  }

  const Bytes header = encode_header(plan_fingerprint, unit_runs);
  std::uint64_t valid_end = 0;
  if (data.size() >= kHeaderBytes &&
      std::equal(header.begin(), header.end(), data.begin())) {
    // Same campaign: replay every record whose length, checksum and
    // structure all hold; the first violation ends the valid prefix (a torn
    // append from the crash, or trailing corruption).
    replay_.resumed = true;
    std::size_t pos = kHeaderBytes;
    valid_end = pos;
    const ByteSpan all(data);
    while (data.size() - pos >= 4) {
      const std::uint64_t len = util::get_le(all, pos, 4);
      if (len > kMaxRecordBytes) break;
      if (data.size() - pos - 4 < len + 8) break;
      const ByteSpan payload = all.subspan(pos + 4, static_cast<std::size_t>(len));
      if (util::get_le(all, pos + 4 + static_cast<std::size_t>(len), 8) !=
          util::fnv1a64(payload)) {
        break;
      }
      try {
        apply_record(payload, replay_);
      } catch (const std::exception&) {
        break;
      }
      pos += 4 + static_cast<std::size_t>(len) + 8;
      valid_end = pos;
    }
    replay_.tail_bytes_dropped = data.size() - valid_end;
  } else if (!data.empty()) {
    // Another campaign's journal (or a corrupt/foreign file): start over.
    // Header checksums make "changed plan" and "flipped header byte"
    // indistinguishable on purpose — both mean none of these records may
    // seed result slots.
    replay_.started_over = true;
  }

  if (valid_end == 0) {
    if (::ftruncate(fd_, 0) != 0) fail("cannot truncate " + path_);
    std::size_t off = 0;
    while (off < header.size()) {
      const ssize_t n = ::write(fd_, header.data() + off, header.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail("cannot write the header of " + path_);
      }
      off += static_cast<std::size_t>(n);
    }
  } else if (replay_.tail_bytes_dropped > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      fail("cannot drop the torn tail of " + path_);
    }
  }
  if (::fsync(fd_) != 0) fail("cannot fsync " + path_);
}

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void CampaignJournal::append_record(util::ByteSpan payload) {
  Bytes rec;
  ByteWriter w(rec);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u64(util::fnv1a64(payload));
  std::size_t off = 0;
  while (off < rec.size()) {
    const ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("cannot append to " + path_);
    }
    off += static_cast<std::size_t>(n);
  }
  // One fsync per landed unit: the journal's whole point is surviving a
  // SIGKILL, and units land at human-scale rates (they each cover dozens of
  // runs), so the durability write is not on any hot path.
  if (::fsync(fd_) != 0) fail("cannot fsync " + path_);
}

void CampaignJournal::append_cell_info(const CellInfo& info) {
  Bytes payload;
  ByteWriter w(payload);
  w.u8(kKindCellInfo);
  w.raw(encode(info));
  append_record(payload);
}

void CampaignJournal::append_unit(
    std::uint64_t unit_id,
    const std::vector<std::pair<std::uint32_t, RunRow>>& rows) {
  Bytes payload;
  ByteWriter w(payload);
  w.u8(kKindUnit);
  w.u64(unit_id);
  w.u64(rows.size());
  for (const auto& [worker_id, row] : rows) {
    w.u32(worker_id);
    w.blob(encode(row));
  }
  append_record(payload);
}

}  // namespace ffis::dist
