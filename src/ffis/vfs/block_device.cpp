#include "ffis/vfs/block_device.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ffis/util/strfmt.hpp"
#include "ffis/vfs/extent_arena.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::vfs {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

/// Largest supported sector; fixed stack buffers below rely on it.
constexpr std::size_t kMaxSectorBytes = 4096;

}  // namespace

std::uint32_t crc32(util::ByteSpan data) noexcept {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c = kCrc32Table[(c ^ static_cast<std::uint8_t>(b)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

BlockDevice::BlockDevice(Options options) : options_(options) {
  if (options_.sector_bytes != 512 && options_.sector_bytes != 4096) {
    throw std::invalid_argument("BlockDevice: sector_bytes must be 512 or 4096, got " +
                                std::to_string(options_.sector_bytes));
  }
}

void BlockDevice::arm(const ArmSpec& spec) {
  spec_ = spec;
  armed_ = true;
  fired_ = false;
  rng_ = util::Rng(spec.seed);
}

void BlockDevice::read_sector(const ExtentStore& store, std::uint64_t sector_offset,
                              std::byte* out) const {
  // The checksummable content of a sector is always exactly sector_bytes,
  // zero-padded past EOF — so file growth through holes never changes a
  // recorded CRC.
  std::memset(out, 0, options_.sector_bytes);
  if (sector_offset >= store.size()) return;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.sector_bytes, store.size() - sector_offset));
  store.read(sector_offset, util::MutableByteSpan(out, len));
}

std::uint32_t BlockDevice::sector_crc(const ExtentStore& store,
                                      std::uint64_t sector_offset) const {
  std::array<std::byte, kMaxSectorBytes> sector;
  read_sector(store, sector_offset, sector.data());
  return crc32(util::ByteSpan(sector.data(), options_.sector_bytes));
}

void BlockDevice::reconcile_overlaps(const void* file, const ExtentStore& store,
                                     std::uint64_t offset, std::uint64_t len) {
  if (faulted_.empty() || len == 0) return;
  const std::uint64_t sb = options_.sector_bytes;
  for (auto it = faulted_.begin(); it != faulted_.end();) {
    Entry& e = *it;
    if (e.file != file || e.offset >= offset + len || e.offset + sb <= offset) {
      ++it;
      continue;
    }
    if (e.kind == MediaFault::LatentSectorError ||
        (offset <= e.offset && offset + len >= e.offset + sb)) {
      // Remapped (LSE) or fully rewritten: the sector is whole again.
      it = faulted_.erase(it);
      continue;
    }
    // Partial overwrite: the FS's read-modify-write re-checksums the sector
    // as it now stands — surviving corrupt bytes are laundered into a
    // validly-checksummed sector.
    e.expected_crc = sector_crc(store, e.offset);
    ++it;
  }
}

void BlockDevice::apply_write(const std::shared_ptr<const void>& file, ExtentStore& store,
                              std::uint64_t offset, util::ByteSpan buf, FsStats& stats,
                              ExtentArena* arena) {
  if (buf.empty()) {
    store.write(offset, buf, stats, arena);  // keep byte-identical semantics
    return;
  }
  const std::uint64_t sb = options_.sector_bytes;
  const std::uint64_t first = offset / sb;
  const std::uint64_t last = (offset + buf.size() - 1) / sb;
  const std::uint64_t n = last - first + 1;

  std::uint64_t target_sector = 0;
  bool fire = false;
  if (enabled_) {
    if (armed_ && !fired_ && spec_.target_sector_write >= sector_writes_ &&
        spec_.target_sector_write < sector_writes_ + n) {
      fire = true;
      target_sector = first + (spec_.target_sector_write - sector_writes_);
    }
    sector_writes_ += n;
  }

  if (!fire) {
    store.write(offset, buf, stats, arena);
    reconcile_overlaps(file.get(), store, offset, buf.size());
    return;
  }
  inject(file, store, offset, buf, target_sector,
         spec_.size_after.value_or(std::max<std::uint64_t>(store.size(), offset + buf.size())),
         stats, arena);
}

void BlockDevice::inject(const std::shared_ptr<const void>& file, ExtentStore& store,
                         std::uint64_t offset, util::ByteSpan buf,
                         std::uint64_t target_sector, std::uint64_t new_size,
                         FsStats& stats, ExtentArena* arena) {
  fired_ = true;
  const std::uint64_t sb = options_.sector_bytes;
  const std::uint64_t sec_off = target_sector * sb;
  // The write's intersection with the target sector ("slice").
  const std::uint64_t slice_begin = std::max<std::uint64_t>(offset, sec_off);
  const std::uint64_t slice_end =
      std::min<std::uint64_t>(offset + buf.size(), sec_off + sb);
  const std::uint64_t slice_len = slice_end - slice_begin;

  record_ = Record{};
  record_.fault = spec_.fault;
  record_.instance = spec_.target_sector_write;
  record_.sector = target_sector;
  record_.offset = sec_off;

  const auto register_entry = [&](MediaFault kind, std::uint64_t sector,
                                  std::uint32_t expected) {
    Entry e;
    e.file = file.get();
    e.keepalive = file;
    e.kind = kind;
    e.sector = sector;
    e.offset = sector * sb;
    e.expected_crc = expected;
    const auto at = std::upper_bound(
        faulted_.begin(), faulted_.end(), e.offset,
        [](std::uint64_t offset, const Entry& x) { return offset < x.offset; });
    faulted_.insert(at, std::move(e));
    ++stats.sectors_faulted;
  };

  // CRC of the content the FS *intended* for the target sector: its
  // pre-write content overlaid with the full slice (the stored checksum a
  // real FS would record for the completed write).
  std::array<std::byte, kMaxSectorBytes> intended;
  read_sector(store, sec_off, intended.data());
  std::memcpy(intended.data() + (slice_begin - sec_off),
              buf.data() + (slice_begin - offset), static_cast<std::size_t>(slice_len));
  const std::uint32_t intended_crc = crc32(util::ByteSpan(intended.data(), sb));
  // Bytes of the target sector the file holds once the write completes.
  const std::size_t stored =
      static_cast<std::size_t>(std::min<std::uint64_t>(sb, new_size - sec_off));

  // Lands all of the write but [skip_begin, skip_end), which keeps its
  // pre-write content.
  const auto write_around = [&](std::uint64_t skip_begin, std::uint64_t skip_end) {
    if (skip_begin > offset) {
      store.write(offset, buf.first(static_cast<std::size_t>(skip_begin - offset)), stats,
                  arena);
    }
    if (offset + buf.size() > skip_end) {
      store.write(skip_end, buf.subspan(static_cast<std::size_t>(skip_end - offset)), stats,
                  arena);
    }
  };

  switch (spec_.fault) {
    case MediaFault::TornSector: {
      // The device programs only the first `keep` bytes of the slice; the
      // rest of the sector retains stale media content (or stays a hole).
      const std::uint64_t keep = rng_.uniform(slice_len);  // at least 1 byte lost
      write_around(slice_begin + keep, slice_end);
      record_.corrupted_bytes = static_cast<std::size_t>(slice_len - keep);
      register_entry(MediaFault::TornSector, target_sector, intended_crc);
      break;
    }
    case MediaFault::LatentSectorError: {
      // The write completes, then the sector decays unreadable; its media
      // content is unrecoverable garbage.  Under scrub a read reports EIO;
      // without scrub the garbage flows to the application.
      store.write(offset, buf, stats, arena);
      std::array<std::byte, kMaxSectorBytes> garbled;
      read_sector(store, sec_off, garbled.data());
      for (std::size_t i = 0; i < stored; ++i) {
        garbled[i] = static_cast<std::byte>(rng_() & 0xff);
      }
      store.write(sec_off, util::ByteSpan(garbled.data(), stored), stats, arena);
      record_.corrupted_bytes = stored;
      register_entry(MediaFault::LatentSectorError, target_sector, intended_crc);
      break;
    }
    case MediaFault::MisdirectedWrite: {
      const std::uint64_t total_sectors = (new_size + sb - 1) / sb;
      // Everything outside the slice lands where it should.
      write_around(slice_begin, slice_end);
      record_.corrupted_bytes = static_cast<std::size_t>(slice_len);
      register_entry(MediaFault::MisdirectedWrite, target_sector, intended_crc);
      if (total_sectors > 1) {
        // Victim sector, uniform over the file excluding the target.
        std::uint64_t victim = rng_.uniform(total_sectors - 1);
        if (victim >= target_sector) ++victim;
        record_.misdirected_to = victim;
        const std::uint64_t land_off = victim * sb + (slice_begin - sec_off);
        const std::uint64_t land_len =
            new_size > land_off ? std::min<std::uint64_t>(slice_len, new_size - land_off)
                                : 0;
        if (land_len > 0) {
          // What the FS believes sector `victim` holds after this write: its
          // content before the stray data lands (legitimate parts of the
          // write included, applied above).
          const std::uint32_t victim_crc = sector_crc(store, victim * sb);
          store.write(land_off,
                      buf.subspan(static_cast<std::size_t>(slice_begin - offset),
                                  static_cast<std::size_t>(land_len)),
                      stats, arena);
          register_entry(MediaFault::MisdirectedWrite, victim, victim_crc);
        }
      }
      // total_sectors == 1: the stray write lands outside anything we model
      // (another LBA entirely); the slice is simply lost.
      break;
    }
    case MediaFault::BitRot: {
      store.write(offset, buf, stats, arena);
      std::array<std::byte, kMaxSectorBytes> sector;
      read_sector(store, sec_off, sector.data());
      const std::size_t bit = static_cast<std::size_t>(rng_.uniform(stored * 8));
      record_.corrupted_bytes =
          util::flip_bits(util::MutableByteSpan(sector.data(), stored), bit, spec_.rot_width);
      store.write(sec_off, util::ByteSpan(sector.data(), stored), stats, arena);
      record_.flipped_bit = bit;
      register_entry(MediaFault::BitRot, target_sector, intended_crc);
      break;
    }
  }
}

void BlockDevice::check_read(const void* file, const ExtentStore& store,
                             std::uint64_t offset, std::size_t len, FsStats& stats) {
  if (faulted_.empty() || !options_.scrub_on_read || len == 0) return;
  const std::uint64_t sb = options_.sector_bytes;
  for (const Entry& e : faulted_) {
    if (e.file != file || e.offset >= offset + len || e.offset + sb <= offset) continue;
    if (e.kind == MediaFault::LatentSectorError) {
      ++stats.crc_detected;
      throw VfsError(VfsError::Code::IoError,
                     util::fmt("latent sector error: sector {} (offset {}) unreadable",
                               e.sector, e.offset));
    }
    if (sector_crc(store, e.offset) != e.expected_crc) {
      ++stats.crc_detected;
      throw VfsError(VfsError::Code::IoError,
                     util::fmt("sector CRC mismatch: sector {} (offset {}) fails its "
                               "stored checksum",
                               e.sector, e.offset));
    }
  }
}

void BlockDevice::on_truncate(const void* file, const ExtentStore& store,
                              FsStats& stats) {
  (void)stats;
  if (faulted_.empty()) return;
  const std::uint64_t sb = options_.sector_bytes;
  for (auto it = faulted_.begin(); it != faulted_.end();) {
    Entry& e = *it;
    if (e.file != file) {
      ++it;
      continue;
    }
    if (e.offset >= store.size()) {
      // The sector is gone entirely.
      it = faulted_.erase(it);
      continue;
    }
    if (e.offset + sb > store.size() && e.kind != MediaFault::LatentSectorError) {
      // Straddles the new EOF: the trim re-checksums the shortened sector.
      e.expected_crc = sector_crc(store, e.offset);
    }
    ++it;
  }
}

}  // namespace ffis::vfs
