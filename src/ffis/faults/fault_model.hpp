#pragma once
// The fault models FFIS injects.  The SSD partial failures of paper §III-B
// (Table I) fire at the file-system call boundary (faults::FaultingFs):
//
//  * BIT_FLIP      — flip `width` (default 2) consecutive bits at a uniformly
//                    random bit position in the write buffer.  Models silent
//                    chip-level bit corruption that escaped the SSD's ECC.
//  * SHORN_WRITE   — the device completes only the first 3/8 or 7/8 of each
//                    4 KB block, at 512 B sector granularity; FFIS strips the
//                    buffer tail but keeps the original `size` argument, so
//                    "undefined" bytes get written in place of the lost tail
//                    (paper §IV-B: the write loses its last 1/8th).
//  * DROPPED_WRITE — the file system issues the write but the device never
//                    executes it; the call reports full success.
//  * IO_ERROR      — the paper's class (a) failure: the file system detects
//                    the device failure and returns an I/O error for the
//                    application to handle (paper II: "the file system
//                    throws the I/O errors and leaves the handling to the
//                    application").
//
// Four further models fail *below* the file-system call boundary, at sector
// granularity on the block device (see vfs::BlockDevice and
// faults/media_faults.hpp — FaultingFs never sees them):
//
//  * TORN_SECTOR          — one sector of a write is only partially
//                           programmed; the tail keeps stale media content.
//  * LATENT_SECTOR_ERROR  — a written sector decays unreadable; scrub-on-read
//                           reports EIO, otherwise garbage flows upward.
//  * MISDIRECTED_WRITE    — one sector's data lands at the wrong sector of
//                           the file; both sectors fail their stored CRCs.
//  * BIT_ROT              — `width` (default 1) consecutive bits decay after
//                           a successful write; per-sector CRCs catch it on
//                           read when scrubbing is enabled.
//
// Each model is declared once, as one row of the model table in
// fault_signature.cpp: canonical name, short form, third spelling, layer
// (for a media row, the vfs::MediaFault hosting it) and its feature keys,
// the one list that both parses and renders its signature features.
//
// `apply_*` are pure functions from (spec, rng, buffer) to a mutation plan,
// so fault behaviour is unit-testable independent of any file system.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ffis/util/bytes.hpp"
#include "ffis/util/rng.hpp"

namespace ffis::faults {

enum class FaultModel : std::uint8_t {
  // Syscall-level models (hosted by FaultingFs).
  BitFlip,
  ShornWrite,
  DroppedWrite,
  IoError,
  // Media-level models (hosted by vfs::BlockDevice beneath the write path).
  TornSector,
  LatentSectorError,
  MisdirectedWrite,
  BitRot,
  kCount  ///< number of models; not a model
};

/// How the "undefined" tail bytes of a shorn write are materialized.
enum class ShornTail : std::uint8_t {
  /// Tail bytes come from the adjacent preceding region of the same buffer —
  /// what an out-of-bounds read past the shrunk buffer typically hits (the
  /// neighbouring elements of the same dataset).  This is why the paper
  /// observes replacement data "within an order of magnitude" of the
  /// original (§V-B).  Default.
  AdjacentData,
  /// Seeded pseudo-random garbage.
  Garbage,
  /// The write is simply truncated: the device keeps its previous contents
  /// for the tail range (torn write).
  Stale,
};

[[nodiscard]] std::string_view shorn_tail_name(ShornTail t) noexcept;

struct BitFlipSpec {
  /// Number of consecutive bits flipped (paper default: 2; footnote 3
  /// ablates 4).
  std::uint32_t width = 2;
};

/// Parameters shared by the four media-level models (see
/// faults/media_faults.hpp for the device bridge).
struct MediaSpec {
  /// Device sector size in bytes; 512 or 4096 only.
  std::uint32_t sector_bytes = 512;
  /// Verify per-sector CRCs on read (CRC mismatch ⇒ Detected); off routes
  /// the corruption to the Sdc/Benign classifier.
  bool scrub_on_read = true;
  /// BIT_ROT: number of consecutive bits that decay.
  std::uint32_t width = 1;
};

struct ShornSpec {
  /// Numerator over 8: the fraction of each 4 KB block that completes.
  /// Table I lists 3/8 and 7/8; §IV-B's "lose the last 1/8th" is 7/8.
  std::uint32_t completed_eighths = 7;
  ShornTail tail = ShornTail::AdjacentData;
  /// Sector granularity of the device (bytes).
  std::uint32_t sector_bytes = 512;
  /// Device block size (bytes).
  std::uint32_t block_bytes = 4096;
};

/// The effect of one fault activation on one pwrite call.
struct WriteMutation {
  /// true: the inner pwrite is skipped entirely (DROPPED_WRITE); the
  /// primitive still reports the original size as written.
  bool dropped = false;
  /// Buffer to forward to the inner pwrite when not dropped.
  util::Bytes data;
  /// First corrupted bit position (BIT_FLIP), for diagnostics.
  std::optional<std::size_t> flipped_bit;
  /// First byte of the shorn (undefined) region, for diagnostics.
  std::optional<std::size_t> shorn_from;
  /// When set, forward only data[0..forward_only) to the inner pwrite while
  /// still reporting the full original size (ShornTail::Stale semantics).
  std::optional<std::size_t> forward_only;
};

/// Applies a BIT_FLIP to a copy of `buf`.  Position is uniform over all bit
/// positions; flips crossing the buffer end are clamped (device corrupts the
/// final partial byte).  Empty buffers pass through unchanged.
[[nodiscard]] WriteMutation apply_bit_flip(const BitFlipSpec& spec, util::Rng& rng,
                                           util::ByteSpan buf);

/// Applies a SHORN_WRITE: every complete 4 KB block keeps only its first
/// `completed_eighths/8`, and the final partial block is shorn at the same
/// sector-aligned fraction of its own length.  The overall buffer length is
/// preserved (the size argument is not shrunk).
[[nodiscard]] WriteMutation apply_shorn_write(const ShornSpec& spec, util::Rng& rng,
                                              util::ByteSpan buf);

/// A DROPPED_WRITE mutation (no data).
[[nodiscard]] WriteMutation apply_dropped_write() noexcept;

}  // namespace ffis::faults
