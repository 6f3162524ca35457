#include "ffis/util/bytes.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace ffis::util {

namespace {

/// std::byteswap is C++23; compilers lower this pattern to one bswap.
constexpr std::uint64_t byteswap64(std::uint64_t v) noexcept {
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) | ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

}  // namespace

void put_le(Bytes& out, std::uint64_t value, std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("put_le: width must be 1..8");
  for (std::size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<std::byte>((value >> (8 * i)) & 0xff));
  }
}

void put_le_at(MutableByteSpan buf, std::size_t offset, std::uint64_t value,
               std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("put_le_at: width must be 1..8");
  if (offset + width > buf.size()) throw std::out_of_range("put_le_at: write past end of buffer");
  for (std::size_t i = 0; i < width; ++i) {
    buf[offset + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
}

std::uint64_t get_le(ByteSpan buf, std::size_t offset, std::size_t width) {
  if (width == 0 || width > 8) throw std::invalid_argument("get_le: width must be 1..8");
  if (offset + width > buf.size()) throw std::out_of_range("get_le: read past end of buffer");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(buf[offset + i])) << (8 * i);
  }
  return value;
}

void load_f64s(ByteSpan raw, std::span<double> out, std::endian order) {
  if (raw.size() < out.size_bytes()) {
    throw std::out_of_range("load_f64s: read past end of buffer");
  }
  if (out.empty()) return;
  if (order == std::endian::native) {
    std::memcpy(out.data(), raw.data(), out.size_bytes());
    return;
  }
  // Swap as integers: the bits never pass through a floating-point register.
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, raw.data() + 8 * i, 8);
    bits = byteswap64(bits);
    std::memcpy(&out[i], &bits, 8);
  }
}

void store_f64s(std::span<const double> values, MutableByteSpan out, std::endian order) {
  if (out.size() < values.size_bytes()) {
    throw std::out_of_range("store_f64s: write past end of buffer");
  }
  if (values.empty()) return;
  if (order == std::endian::native) {
    std::memcpy(out.data(), values.data(), values.size_bytes());
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], 8);
    bits = byteswap64(bits);
    std::memcpy(out.data() + 8 * i, &bits, 8);
  }
}

void put_bytes(Bytes& out, ByteSpan data) {
  out.insert(out.end(), data.begin(), data.end());
}

void put_signature(Bytes& out, std::string_view sig) {
  for (char c : sig) out.push_back(static_cast<std::byte>(c));
}

std::size_t flip_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t count) {
  const std::size_t first = bit_offset / 8;
  if (count == 0 || first >= buf.size()) return 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t bit = bit_offset + i;
    const std::size_t byte = bit / 8;
    if (byte >= buf.size()) break;
    buf[byte] ^= static_cast<std::byte>(1u << (bit % 8));
  }
  // Every byte the run touches has at least one of its bits flipped.
  return std::min((bit_offset + count - 1) / 8, buf.size() - 1) - first + 1;
}

bool test_bit(ByteSpan buf, std::size_t bit_offset) {
  const std::size_t byte = bit_offset / 8;
  if (byte >= buf.size()) throw std::out_of_range("test_bit: past end of buffer");
  return (std::to_integer<std::uint8_t>(buf[byte]) >> (bit_offset % 8)) & 1u;
}

std::uint64_t extract_bits(ByteSpan buf, std::size_t bit_offset, std::size_t nbits) {
  if (nbits > 64) throw std::invalid_argument("extract_bits: nbits must be <= 64");
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    if (test_bit(buf, bit_offset + i)) value |= (1ULL << i);
  }
  return value;
}

void deposit_bits(MutableByteSpan buf, std::size_t bit_offset, std::size_t nbits,
                  std::uint64_t value) {
  if (nbits > 64) throw std::invalid_argument("deposit_bits: nbits must be <= 64");
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::size_t bit = bit_offset + i;
    const std::size_t byte = bit / 8;
    if (byte >= buf.size()) throw std::out_of_range("deposit_bits: past end of buffer");
    const auto mask = static_cast<std::byte>(1u << (bit % 8));
    if ((value >> i) & 1u) {
      buf[byte] |= mask;
    } else {
      buf[byte] &= ~mask;
    }
  }
}

std::string hexdump(ByteSpan buf, std::size_t max_bytes) {
  std::string out;
  const std::size_t n = std::min(buf.size(), max_bytes);
  char line[128];
  for (std::size_t base = 0; base < n; base += 16) {
    int pos = std::snprintf(line, sizeof line, "%08zx  ", base);
    for (std::size_t i = 0; i < 16; ++i) {
      if (base + i < n) {
        pos += std::snprintf(line + pos, sizeof line - pos, "%02x ",
                             std::to_integer<unsigned>(buf[base + i]));
      } else {
        pos += std::snprintf(line + pos, sizeof line - pos, "   ");
      }
      if (i == 7) pos += std::snprintf(line + pos, sizeof line - pos, " ");
    }
    pos += std::snprintf(line + pos, sizeof line - pos, " |");
    for (std::size_t i = 0; i < 16 && base + i < n; ++i) {
      const auto c = std::to_integer<unsigned char>(buf[base + i]);
      pos += std::snprintf(line + pos, sizeof line - pos, "%c",
                           std::isprint(c) ? static_cast<char>(c) : '.');
    }
    std::snprintf(line + pos, sizeof line - pos, "|");
    out += line;
    out += '\n';
  }
  if (buf.size() > max_bytes) out += "... (" + std::to_string(buf.size() - max_bytes) + " more bytes)\n";
  return out;
}

std::size_t count_diff_bytes(ByteSpan a, ByteSpan b) noexcept {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t diff = 0;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++diff;
  }
  return diff + (std::max(a.size(), b.size()) - common);
}

Bytes to_bytes(std::string_view s) {
  Bytes out;
  out.reserve(s.size());
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string to_string(ByteSpan b) {
  std::string out;
  out.reserve(b.size());
  for (std::byte x : b) out.push_back(static_cast<char>(std::to_integer<unsigned char>(x)));
  return out;
}

}  // namespace ffis::util
