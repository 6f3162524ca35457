#pragma once
// Byte-level helpers shared by the VFS, the fault models and the mini-HDF5
// format code: little-endian scalar encode/decode, the bulk binary64 array
// kernel, bit manipulation on byte buffers, and hexdump rendering for
// diagnostics.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ffis::util {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

/// Appends an unsigned little-endian integer of `width` bytes (1..8).
void put_le(Bytes& out, std::uint64_t value, std::size_t width);

/// Writes value little-endian into buf[offset..offset+width). Bounds-checked;
/// throws std::out_of_range on overflow.
void put_le_at(MutableByteSpan buf, std::size_t offset, std::uint64_t value,
               std::size_t width);

/// Reads an unsigned little-endian integer of `width` bytes (1..8).
/// Throws std::out_of_range if the read would exceed the span.
[[nodiscard]] std::uint64_t get_le(ByteSpan buf, std::size_t offset,
                                   std::size_t width);

/// Bulk binary64 kernel: reads `out.size()` IEEE-754 doubles stored in
/// `order` from the front of `raw` — one memcpy when `order` is the host's,
/// a byte swap per element otherwise.  Bit patterns (NaN payloads included)
/// pass through unchanged.  Throws std::out_of_range if `raw` is too short.
void load_f64s(ByteSpan raw, std::span<double> out, std::endian order);

/// The inverse of load_f64s: stores `values` in `order` at the front of
/// `out`.  Throws std::out_of_range if `out` is too short.
void store_f64s(std::span<const double> values, MutableByteSpan out, std::endian order);

/// Appends raw bytes.
void put_bytes(Bytes& out, ByteSpan data);

/// Appends an ASCII signature (no NUL), e.g. "TREE".
void put_signature(Bytes& out, std::string_view sig);

/// Flips `count` consecutive bits starting at absolute bit position
/// `bit_offset` (bit 0 = LSB of byte 0). Bits past the end of the buffer are
/// ignored (mirrors a device corrupting the final partial byte).  Returns the
/// number of bytes the flip changed.
std::size_t flip_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t count);

/// Tests the bit at absolute position `bit_offset`.
[[nodiscard]] bool test_bit(ByteSpan buf, std::size_t bit_offset);

/// Extracts `nbits` (<= 64) starting at absolute bit position `bit_offset`,
/// little-endian bit order (the order HDF5 uses for floating-point fields).
[[nodiscard]] std::uint64_t extract_bits(ByteSpan buf, std::size_t bit_offset,
                                         std::size_t nbits);

/// Deposits the low `nbits` of `value` at absolute bit position `bit_offset`.
void deposit_bits(MutableByteSpan buf, std::size_t bit_offset,
                  std::size_t nbits, std::uint64_t value);

/// Renders buf as a classic 16-bytes-per-line hexdump (offset, hex, ASCII).
[[nodiscard]] std::string hexdump(ByteSpan buf, std::size_t max_bytes = 512);

/// Number of positions where the two spans differ; spans may differ in length
/// (the length difference counts as differing bytes).
[[nodiscard]] std::size_t count_diff_bytes(ByteSpan a, ByteSpan b) noexcept;

/// Convenience conversions between std::byte buffers and string-ish data.
[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(ByteSpan b);

}  // namespace ffis::util
