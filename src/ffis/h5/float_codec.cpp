#include "ffis/h5/float_codec.hpp"

#include <bit>
#include <cmath>
#include <limits>

namespace ffis::h5 {

namespace {

/// Extracts `nbits` at `pos` from a word of `width` bits, clamping the field
/// to the word (permissive handling of corrupted location/size fields).
std::uint64_t field(std::uint64_t raw, unsigned pos, unsigned nbits, unsigned width) {
  if (pos >= width || nbits == 0) return 0;
  nbits = std::min(nbits, width - pos);
  const std::uint64_t mask = (nbits >= 64) ? ~0ULL : ((1ULL << nbits) - 1);
  return (raw >> pos) & mask;
}

void validate(const FloatFormat& f) {
  if (f.size_bytes == 0 || f.size_bytes > 8) {
    throw H5FormatError("datatype size not supported: " +
                        std::to_string(f.size_bytes) + " bytes");
  }
  const auto norm = static_cast<std::uint8_t>(f.normalization);
  if (norm > 2) {
    throw H5FormatError("reserved mantissa normalization mode: " + std::to_string(norm));
  }
  if (f.exponent_size == 0 || f.exponent_size > 63) {
    throw H5FormatError("exponent size not supported: " + std::to_string(f.exponent_size));
  }
}

/// The field geometry of a validated format, clamped to the element width:
/// computed once per array, not once per element.
struct Geometry {
  unsigned width = 0;      ///< element width in bits
  unsigned exp_nbits = 0;  ///< exponent bits that fit in the word
  unsigned man_nbits = 0;  ///< mantissa bits that fit in the word
  std::uint64_t exp_max = 0;
};

Geometry geometry(const FloatFormat& f) {
  Geometry g;
  g.width = f.size_bytes * 8;
  g.exp_nbits = (f.exponent_location >= g.width)
                    ? 0
                    : std::min<unsigned>(f.exponent_size, g.width - f.exponent_location);
  g.man_nbits = (f.mantissa_location >= g.width)
                    ? 0
                    : std::min<unsigned>(f.mantissa_size, g.width - f.mantissa_location);
  g.exp_max = (g.exp_nbits == 0) ? 0 : ((1ULL << g.exp_nbits) - 1);
  return g;
}

/// `v << pos`, defined as 0 once `pos` leaves the 64-bit word (a corrupted
/// location field may hold any byte value).
std::uint64_t shifted(std::uint64_t v, unsigned pos) { return pos >= 64 ? 0 : v << pos; }

/// The generic (non-canonical) decode of one element.
double decode_generic(std::uint64_t raw, const FloatFormat& f, const Geometry& g) {
  const std::uint64_t exp_field = field(raw, f.exponent_location, f.exponent_size, g.width);
  const std::uint64_t man_field = field(raw, f.mantissa_location, f.mantissa_size, g.width);
  const unsigned man_nbits = g.man_nbits;
  const bool negative = f.sign_location < g.width && ((raw >> f.sign_location) & 1u);
  const auto bias = static_cast<std::int64_t>(f.exponent_bias);

  double magnitude;
  if (g.exp_nbits > 0 && exp_field == g.exp_max && g.exp_max > 1) {
    // All-ones exponent: infinity (zero mantissa) or NaN.
    magnitude = (man_field == 0) ? std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::quiet_NaN();
  } else if (exp_field == 0) {
    // Denormalized: no implied bit regardless of mode.
    magnitude = std::ldexp(static_cast<double>(man_field),
                           static_cast<int>(1 - bias - static_cast<std::int64_t>(man_nbits)));
  } else {
    const auto e = static_cast<std::int64_t>(exp_field) - bias;
    switch (f.normalization) {
      case MantissaNorm::MsbImplied:
        magnitude = std::ldexp(static_cast<double>(man_field) +
                                   std::ldexp(1.0, static_cast<int>(man_nbits)),
                               static_cast<int>(e - static_cast<std::int64_t>(man_nbits)));
        break;
      case MantissaNorm::MsbSet:
        // The stored mantissa's MSB is the leading significant bit.
        magnitude = std::ldexp(static_cast<double>(man_field),
                               static_cast<int>(e - static_cast<std::int64_t>(man_nbits) + 1));
        break;
      case MantissaNorm::None:
        // Mantissa is a plain fraction in [0, 1) with no implied bit; the
        // exponent applies to the fraction scaled into [0.5, 1).
        magnitude = std::ldexp(static_cast<double>(man_field),
                               static_cast<int>(e + 1 - static_cast<std::int64_t>(man_nbits)));
        break;
      default:
        throw H5FormatError("unreachable normalization mode");
    }
  }
  return negative ? -magnitude : magnitude;
}

/// The generic (non-canonical) encode of one element.
std::uint64_t encode_generic(double value, const FloatFormat& f, const Geometry& g) {
  const unsigned width = g.width;
  const unsigned man_nbits = g.man_nbits;
  const std::uint64_t exp_max = g.exp_max;

  std::uint64_t raw = 0;
  const bool negative = std::signbit(value);
  if (negative && f.sign_location < width) raw |= (1ULL << f.sign_location);
  const double mag = std::fabs(value);

  if (std::isnan(mag)) {
    raw |= shifted(exp_max, f.exponent_location);
    raw |= shifted(1, f.mantissa_location);  // any non-zero mantissa
    return raw;
  }
  if (std::isinf(mag)) {
    raw |= shifted(exp_max, f.exponent_location);
    return raw;
  }
  if (mag == 0.0) return raw;

  int e2 = 0;
  const double frac = std::frexp(mag, &e2);  // frac in [0.5, 1)
  // Normalized form: 1.xxx * 2^(e2-1).
  std::int64_t exp_field = (e2 - 1) + static_cast<std::int64_t>(f.exponent_bias);
  if (exp_field >= static_cast<std::int64_t>(exp_max)) {
    // Overflow: clamp to infinity.
    raw |= shifted(exp_max, f.exponent_location);
    return raw;
  }
  if (exp_field <= 0) {
    // Underflow: encode as denormal.
    const double scaled =
        std::ldexp(mag, static_cast<int>(static_cast<std::int64_t>(man_nbits) +
                                         static_cast<std::int64_t>(f.exponent_bias) - 1));
    auto man = static_cast<std::uint64_t>(std::llround(scaled));
    const std::uint64_t man_mask = (man_nbits >= 64) ? ~0ULL : ((1ULL << man_nbits) - 1);
    raw |= shifted(man & man_mask, f.mantissa_location);
    return raw;
  }

  std::uint64_t man = 0;
  switch (f.normalization) {
    case MantissaNorm::MsbImplied: {
      // frac*2 in [1,2); drop the implied leading 1.
      const double m = (frac * 2.0 - 1.0);  // [0,1)
      man = static_cast<std::uint64_t>(std::llround(std::ldexp(m, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {  // rounding carried into the implied bit
        man = 0;
        ++exp_field;
        if (exp_field >= static_cast<std::int64_t>(exp_max)) {
          raw |= shifted(exp_max, f.exponent_location);
          return raw;
        }
      }
      break;
    }
    case MantissaNorm::MsbSet: {
      man = static_cast<std::uint64_t>(
          std::llround(std::ldexp(frac, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {
        man >>= 1;
        ++exp_field;
      }
      break;
    }
    case MantissaNorm::None: {
      man = static_cast<std::uint64_t>(
          std::llround(std::ldexp(frac, static_cast<int>(man_nbits))));
      if (man >> man_nbits) {
        man >>= 1;
        ++exp_field;
      }
      break;
    }
    default:
      throw H5FormatError("unreachable normalization mode");
  }
  const std::uint64_t man_mask = (man_nbits >= 64) ? ~0ULL : ((1ULL << man_nbits) - 1);
  raw |= shifted(man & man_mask, f.mantissa_location);
  raw |= shifted(static_cast<std::uint64_t>(exp_field) & exp_max, f.exponent_location);
  return raw;
}

/// Reads one `stride`-byte element word in the given byte order.
std::uint64_t load_word(const std::byte* p, std::size_t stride, bool big_endian) {
  std::uint64_t bits = 0;
  for (std::size_t b = 0; b < stride; ++b) {
    const std::size_t shift = 8 * (big_endian ? stride - 1 - b : b);
    bits |= std::to_integer<std::uint64_t>(p[b]) << shift;
  }
  return bits;
}

/// Writes the low `stride` bytes of `bits` in the given byte order.
void store_word(std::uint64_t bits, std::byte* p, std::size_t stride, bool big_endian) {
  for (std::size_t b = 0; b < stride; ++b) {
    const std::size_t shift = 8 * (big_endian ? stride - 1 - b : b);
    p[b] = static_cast<std::byte>((bits >> shift) & 0xff);
  }
}

/// Validates `format`, then checks that `raw` holds `count` elements.
void require_raw(util::ByteSpan raw, std::uint64_t count, const FloatFormat& format) {
  validate(format);
  const std::size_t stride = format.size_bytes;
  if (count > raw.size() / stride) {
    throw H5BoundsError("raw data region too small: need " +
                        std::to_string(count * stride) + " bytes, have " +
                        std::to_string(raw.size()));
  }
}

}  // namespace

double decode_element(std::uint64_t raw, const FloatFormat& f) {
  validate(f);
  // Fast path: bit-exact for the canonical type (also covers inf/nan/subnormal).
  if (f.is_ieee_binary64()) return std::bit_cast<double>(raw);
  return decode_generic(raw, f, geometry(f));
}

std::uint64_t encode_element(double value, const FloatFormat& f) {
  validate(f);
  if (f.is_ieee_binary64()) return std::bit_cast<std::uint64_t>(value);
  return encode_generic(value, f, geometry(f));
}

void decode_into(util::ByteSpan raw, const FloatFormat& format, std::span<double> out) {
  require_raw(raw, out.size(), format);
  if (format.is_ieee_binary64()) {
    util::load_f64s(raw, out, std::endian::little);
    return;
  }
  const Geometry g = geometry(format);
  const std::size_t stride = format.size_bytes;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = decode_generic(load_word(raw.data() + i * stride, stride, format.big_endian),
                            format, g);
  }
}

std::vector<double> decode_array(util::ByteSpan raw, std::uint64_t count,
                                 const FloatFormat& format) {
  // Checked before allocating: `count` may come from a corrupted dataspace.
  require_raw(raw, count, format);
  std::vector<double> out(static_cast<std::size_t>(count));
  decode_into(raw, format, out);
  return out;
}

util::Bytes encode_array(std::span<const double> values, const FloatFormat& format) {
  validate(format);
  const std::size_t stride = format.size_bytes;
  util::Bytes out(values.size() * stride);
  if (format.is_ieee_binary64()) {
    util::store_f64s(values, out, std::endian::little);
    return out;
  }
  const Geometry g = geometry(format);
  for (std::size_t i = 0; i < values.size(); ++i) {
    store_word(encode_generic(values[i], format, g), out.data() + i * stride, stride,
               format.big_endian);
  }
  return out;
}

util::ByteSpan raw_view(std::span<const double> values, const FloatFormat& format,
                        util::Bytes& scratch) {
  if (std::endian::native == std::endian::little && format.is_ieee_binary64()) {
    return std::as_bytes(values);
  }
  scratch = encode_array(values, format);
  return scratch;
}

}  // namespace ffis::h5
