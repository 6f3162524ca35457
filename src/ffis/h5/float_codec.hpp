#pragma once
// Generic floating-point codec driven by the HDF5 datatype message.
//
// Every element is decoded *through* the FloatFormat parsed from the file's
// datatype message (sign location, exponent location/size/bias, mantissa
// location/size, normalization mode, byte order).  This is the property that
// makes metadata faults reproduce the paper's SDC phenomenology — a corrupted
// Exponent Bias genuinely rescales all values by a power of two, a corrupted
// Mantissa Size genuinely re-partitions the bit fields, a flipped
// normalization bit genuinely changes the implied-MSB rule.
//
// The array functions take a bulk copy (util::load_f64s / store_f64s) only
// when the parsed format is exactly canonical IEEE binary64 little-endian
// (FloatFormat::is_ieee_binary64()).  For that format the per-element decode
// is a bit cast, so the bulk result is bit-identical to the per-element one.
// Any other format — a single corrupted datatype field, or the canonical
// layout with the byte-order bit flipped — goes through the per-element loop
// with exactly the per-element results.
//
// Decoding is deliberately *permissive* for the paper's SDC-capable fields
// (locations/sizes are clamped to the element width instead of rejected),
// matching the observation that the HDF5 library accepts these values and
// silently produces wrong data.  Structurally impossible values (reserved
// normalization mode 3, zero-size datatype) throw, producing crashes.

#include <cstdint>
#include <span>
#include <vector>

#include "ffis/h5/format.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5 {

/// Decodes one raw element (little-endian bit numbering within the
/// `format.size_bytes * 8`-bit word) to a double.
[[nodiscard]] double decode_element(std::uint64_t raw, const FloatFormat& format);

/// Encodes a double into the raw bit pattern for `format`.  Exact for IEEE
/// binary64; best-effort (round-to-nearest mantissa truncation, clamped
/// exponent) for other formats.
[[nodiscard]] std::uint64_t encode_element(double value, const FloatFormat& format);

/// Decodes `out.size()` elements from `raw` (size_bytes stride, honouring
/// format.big_endian) straight into caller storage.  The format is validated
/// first, so an unsupported one throws H5FormatError even when `out` is
/// empty; throws H5BoundsError when raw is too short.
void decode_into(util::ByteSpan raw, const FloatFormat& format, std::span<double> out);

/// decode_into a freshly allocated vector of `count` elements.
[[nodiscard]] std::vector<double> decode_array(util::ByteSpan raw, std::uint64_t count,
                                               const FloatFormat& format);

/// Encodes values into a byte buffer (size_bytes stride).
[[nodiscard]] util::Bytes encode_array(std::span<const double> values,
                                       const FloatFormat& format);

/// The raw-data bytes of `values` in `format`, for handing to pwrite: a view
/// of the values' own storage when the format is canonical and the host is
/// little-endian (no copy), else encode_array's output held in `scratch`.
[[nodiscard]] util::ByteSpan raw_view(std::span<const double> values, const FloatFormat& format,
                                      util::Bytes& scratch);

}  // namespace ffis::h5
