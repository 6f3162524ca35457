// Unit tests for ffis::h5 — float codec, writer/reader round trips, field
// map integrity, and the crash/benign/SDC semantics of metadata corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/h5/field_map.hpp"
#include "ffis/h5/float_codec.hpp"
#include "ffis/h5/reader.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "write_recording.hpp"

namespace {

using namespace ffis;
using h5::FloatFormat;
using h5::MantissaNorm;

h5::H5File small_file(std::size_t n = 8) {
  h5::H5File file;
  h5::Dataset ds;
  ds.name = "baryon_density";
  ds.dims = {n, n, n};
  ds.data.resize(n * n * n);
  util::Rng rng(1);
  for (auto& v : ds.data) v = std::exp(0.5 * rng.gaussian());
  file.datasets.push_back(std::move(ds));
  return file;
}

// --- float codec ---------------------------------------------------------------

TEST(FloatCodec, IeeeDecodeMatchesBitCast) {
  util::Rng rng(7);
  const FloatFormat ieee{};
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng();
    const double via_codec = h5::decode_element(bits, ieee);
    const double via_cast = std::bit_cast<double>(bits);
    if (std::isnan(via_cast)) {
      EXPECT_TRUE(std::isnan(via_codec));
    } else {
      EXPECT_EQ(via_codec, via_cast);
    }
  }
}

TEST(FloatCodec, IeeeEncodeMatchesBitCast) {
  util::Rng rng(11);
  const FloatFormat ieee{};
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp(rng.gaussian(0.0, 5.0)) * (rng.bernoulli(0.5) ? 1 : -1);
    EXPECT_EQ(h5::encode_element(v, ieee), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(FloatCodec, IeeeSpecialValues) {
  const FloatFormat ieee{};
  for (const double v : {0.0, -0.0, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min()}) {
    EXPECT_EQ(h5::decode_element(h5::encode_element(v, ieee), ieee), v);
  }
  EXPECT_TRUE(std::isnan(h5::decode_element(
      h5::encode_element(std::nan(""), ieee), ieee)));
}

// The generic decode path must agree with the IEEE fast path when given a
// format that is IEEE-shaped in all but one irrelevant detail.
TEST(FloatCodec, GenericPathMatchesIeeeForNormalValues) {
  FloatFormat almost_ieee{};
  almost_ieee.bit_offset = 1;  // disables the fast path; ignored by decode
  util::Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double v = std::exp(rng.gaussian(0.0, 3.0));
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    EXPECT_DOUBLE_EQ(h5::decode_element(bits, almost_ieee), v) << "value " << v;
  }
}

class CodecRoundtrip : public ::testing::TestWithParam<MantissaNorm> {};

TEST_P(CodecRoundtrip, EncodeDecodeIsNearIdentity) {
  FloatFormat f{};
  f.bit_offset = 1;  // force the generic path
  f.normalization = GetParam();
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::exp(rng.gaussian(0.0, 2.0)) * (rng.bernoulli(0.5) ? 1 : -1);
    const double back = h5::decode_element(h5::encode_element(v, f), f);
    EXPECT_NEAR(back, v, std::fabs(v) * 1e-12) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Norms, CodecRoundtrip,
                         ::testing::Values(MantissaNorm::None, MantissaNorm::MsbSet,
                                           MantissaNorm::MsbImplied));

TEST(FloatCodec, BiasShiftScalesByPowersOfTwo) {
  // The Exponent-Bias SDC signature: decoding with bias-k scales by 2^k.
  const FloatFormat ieee{};
  FloatFormat biased{};
  biased.exponent_bias = 1023 - 12;
  const double v = 1.7340521;
  const std::uint64_t bits = h5::encode_element(v, ieee);
  EXPECT_DOUBLE_EQ(h5::decode_element(bits, biased), v * 4096.0);
}

TEST(FloatCodec, NormalizationBitChangesValues) {
  const FloatFormat ieee{};
  FloatFormat mode0{};
  mode0.normalization = MantissaNorm::None;
  const double v = 1.5;
  const std::uint64_t bits = h5::encode_element(v, ieee);
  const double reinterpreted = h5::decode_element(bits, mode0);
  // Losing the implied MSB halves-ish the mantissa value.
  EXPECT_LT(reinterpreted, v);
  EXPECT_GT(reinterpreted, 0.0);
}

TEST(FloatCodec, PermissiveClampingForCorruptLocations) {
  FloatFormat weird{};
  weird.bit_offset = 1;           // generic path
  weird.exponent_location = 60;   // runs past the word: clamped, no throw
  weird.exponent_size = 11;
  EXPECT_NO_THROW((void)h5::decode_element(0x3ff0000000000000ULL, weird));
  FloatFormat past{};
  past.bit_offset = 1;
  past.mantissa_location = 80;  // entirely outside: decodes as zero mantissa
  EXPECT_NO_THROW((void)h5::decode_element(0x3ff0000000000000ULL, past));
}

TEST(FloatCodec, StructurallyImpossibleFormatsThrow) {
  FloatFormat reserved_norm{};
  reserved_norm.normalization = static_cast<MantissaNorm>(3);
  EXPECT_THROW((void)h5::decode_element(0, reserved_norm), h5::H5FormatError);

  FloatFormat zero_exp{};
  zero_exp.exponent_size = 0;
  EXPECT_THROW((void)h5::decode_element(0, zero_exp), h5::H5FormatError);

  FloatFormat huge{};
  huge.size_bytes = 16;
  EXPECT_THROW((void)h5::decode_element(0, huge), h5::H5FormatError);
}

TEST(FloatCodec, ArrayRoundtripAndEndianness) {
  const std::vector<double> values = {1.0, -2.5, 3.25e10, 1e-300};
  FloatFormat le{};
  FloatFormat be{};
  be.big_endian = true;
  const auto le_bytes = h5::encode_array(values, le);
  const auto be_bytes = h5::encode_array(values, be);
  EXPECT_EQ(le_bytes.size(), be_bytes.size());
  EXPECT_NE(le_bytes, be_bytes);
  // Byte-reversed per element.
  for (std::size_t e = 0; e < values.size(); ++e) {
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(le_bytes[e * 8 + b], be_bytes[e * 8 + 7 - b]);
    }
  }
  EXPECT_EQ(h5::decode_array(le_bytes, values.size(), le), values);
  EXPECT_EQ(h5::decode_array(be_bytes, values.size(), be), values);
}

// --- bulk codec vs the per-element reference -------------------------------------
// The array functions may take a bulk copy for the canonical format and hoist
// validation and field geometry out of the loop otherwise; either way they
// must reproduce a plain per-element decode_element / encode_element loop
// bit for bit.

std::vector<double> reference_decode(util::ByteSpan raw, std::size_t count,
                                     const FloatFormat& f) {
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < f.size_bytes; ++b) {
      const std::size_t shift = 8 * (f.big_endian ? f.size_bytes - 1 - b : b);
      bits |= std::to_integer<std::uint64_t>(raw[i * f.size_bytes + b]) << shift;
    }
    out.push_back(h5::decode_element(bits, f));
  }
  return out;
}

util::Bytes reference_encode(const std::vector<double>& values, const FloatFormat& f) {
  util::Bytes out;
  for (const double v : values) {
    const std::uint64_t bits = h5::encode_element(v, f);
    for (std::size_t b = 0; b < f.size_bytes; ++b) {
      const std::size_t shift = 8 * (f.big_endian ? f.size_bytes - 1 - b : b);
      out.push_back(static_cast<std::byte>((bits >> shift) & 0xff));
    }
  }
  return out;
}

std::vector<std::uint64_t> bit_patterns(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Seeded random words with the special patterns planted at the front: NaN
/// payloads (quiet and signalling, both signs), +-0, subnormals, +-inf.
std::vector<std::uint64_t> codec_words(std::size_t count, std::uint64_t seed) {
  static constexpr std::uint64_t kSpecial[] = {
      0x7ff0000000000001ULL, 0x7ff8000000000123ULL,  // NaNs
      0xfff4000000abcdefULL, 0xffffffffffffffffULL,
      0x0000000000000000ULL, 0x8000000000000000ULL,  // +-0
      0x0000000000000001ULL, 0x800fffffffffffffULL,  // subnormals
      0x7ff0000000000000ULL, 0xfff0000000000000ULL}; // +-inf
  util::Rng rng(seed);
  std::vector<std::uint64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = i < std::size(kSpecial) ? kSpecial[i] : rng();
  }
  return out;
}

/// The canonical format plus every single-field perturbation of it.
std::vector<FloatFormat> perturbed_formats() {
  std::vector<FloatFormat> out{FloatFormat{}};
  const auto plus_minus_one = [&](auto FloatFormat::*member) {
    for (const int delta : {-1, +1}) {
      FloatFormat f{};
      using T = std::remove_reference_t<decltype(f.*member)>;
      f.*member = static_cast<T>(f.*member + delta);
      out.push_back(f);
    }
  };
  plus_minus_one(&FloatFormat::size_bytes);
  plus_minus_one(&FloatFormat::bit_offset);
  plus_minus_one(&FloatFormat::bit_precision);
  plus_minus_one(&FloatFormat::exponent_location);
  plus_minus_one(&FloatFormat::exponent_size);
  plus_minus_one(&FloatFormat::mantissa_location);
  plus_minus_one(&FloatFormat::mantissa_size);
  plus_minus_one(&FloatFormat::exponent_bias);
  plus_minus_one(&FloatFormat::sign_location);
  for (const MantissaNorm norm : {MantissaNorm::None, MantissaNorm::MsbSet}) {
    FloatFormat f{};
    f.normalization = norm;
    out.push_back(f);
  }
  FloatFormat flipped{};
  flipped.big_endian = true;
  out.push_back(flipped);
  return out;
}

bool format_is_valid(const FloatFormat& f) {
  try {
    (void)h5::decode_element(0, f);
    return true;
  } catch (const h5::H5FormatError&) {
    return false;
  }
}

TEST(FloatCodecDifferential, BulkDecodeMatchesPerElementLoop) {
  std::uint64_t seed = 100;
  for (const FloatFormat& f : perturbed_formats()) {
    for (const std::size_t count : {0u, 1u, 4097u}) {
      // Raw bytes: the planted words' low size_bytes bytes, element by element.
      util::Bytes raw;
      for (const std::uint64_t w : codec_words(count, ++seed)) {
        for (std::size_t b = 0; b < std::min<std::size_t>(f.size_bytes, 8); ++b) {
          raw.push_back(static_cast<std::byte>((w >> (8 * b)) & 0xff));
        }
      }
      if (!format_is_valid(f)) {
        // Validated before any branch: an empty array still throws.
        EXPECT_THROW((void)h5::decode_array(raw, count, f), h5::H5FormatError);
        continue;
      }
      const auto expected = bit_patterns(reference_decode(raw, count, f));
      EXPECT_EQ(bit_patterns(h5::decode_array(raw, count, f)), expected)
          << "size " << f.size_bytes << " count " << count;
      std::vector<double> into(count, -1.0);
      h5::decode_into(raw, f, into);
      EXPECT_EQ(bit_patterns(into), expected);
    }
  }
}

TEST(FloatCodecDifferential, BulkEncodeMatchesPerElementLoop) {
  std::uint64_t seed = 200;
  for (const FloatFormat& f : perturbed_formats()) {
    for (const std::size_t count : {0u, 1u, 4097u}) {
      std::vector<double> values;
      for (const std::uint64_t w : codec_words(count, ++seed)) {
        values.push_back(std::bit_cast<double>(w));
      }
      if (!format_is_valid(f)) {
        EXPECT_THROW((void)h5::encode_array(values, f), h5::H5FormatError);
        continue;
      }
      EXPECT_EQ(h5::encode_array(values, f), reference_encode(values, f))
          << "size " << f.size_bytes << " count " << count;
      util::Bytes scratch;
      const util::ByteSpan view = h5::raw_view(values, f, scratch);
      const util::Bytes viewed(view.begin(), view.end());
      EXPECT_EQ(viewed, reference_encode(values, f));
    }
  }
}

TEST(FloatCodecDifferential, ErrorsSurviveTheBulkPath) {
  const util::Bytes raw(8 * 3);
  // Too short for the count: a bounds error, canonical format or not.
  EXPECT_THROW((void)h5::decode_array(raw, 4, FloatFormat{}), h5::H5BoundsError);
  std::vector<double> four(4);
  EXPECT_THROW(h5::decode_into(raw, FloatFormat{}, four), h5::H5BoundsError);
  FloatFormat flipped{};
  flipped.big_endian = true;
  EXPECT_THROW((void)h5::decode_array(raw, 4, flipped), h5::H5BoundsError);

  // Structurally impossible formats throw before any length is considered.
  FloatFormat reserved_norm{};
  reserved_norm.normalization = static_cast<MantissaNorm>(3);
  FloatFormat zero_size{};
  zero_size.size_bytes = 0;
  for (const FloatFormat& f : {reserved_norm, zero_size}) {
    EXPECT_THROW((void)h5::decode_array(raw, 0, f), h5::H5FormatError);
    EXPECT_THROW((void)h5::decode_array(raw, 2, f), h5::H5FormatError);
    EXPECT_THROW(h5::decode_into(raw, f, std::span<double>{}), h5::H5FormatError);
    EXPECT_THROW((void)h5::encode_array(std::vector<double>{}, f), h5::H5FormatError);
  }
}

// --- writer / reader round trip -----------------------------------------------------

class RoundtripDims : public ::testing::TestWithParam<std::vector<std::uint64_t>> {};

TEST_P(RoundtripDims, WritesAndReadsBack) {
  h5::H5File file;
  h5::Dataset ds;
  ds.name = "data";
  ds.dims = GetParam();
  ds.data.resize(ds.element_count());
  util::Rng rng(3);
  for (auto& v : ds.data) v = rng.gaussian();
  file.datasets.push_back(ds);

  vfs::MemFs fs;
  const auto info = h5::write_h5(fs, "/f.h5", file);
  const auto back = h5::read_h5(fs, "/f.h5");
  ASSERT_EQ(back.datasets.size(), 1u);
  EXPECT_EQ(back.datasets[0].name, "data");
  EXPECT_EQ(back.datasets[0].dims, ds.dims);
  EXPECT_EQ(back.datasets[0].data, ds.data);
  EXPECT_EQ(info.data_addresses[0], info.metadata_size);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RoundtripDims,
                         ::testing::Values(std::vector<std::uint64_t>{16},
                                           std::vector<std::uint64_t>{4, 6},
                                           std::vector<std::uint64_t>{8, 8, 8},
                                           std::vector<std::uint64_t>{2, 3, 4, 5}));

TEST(Writer, MultipleDatasetsRoundtrip) {
  h5::H5File file;
  for (int d = 0; d < 3; ++d) {
    h5::Dataset ds;
    ds.name = "var" + std::to_string(d);
    ds.dims = {8, 8};
    ds.data.assign(64, static_cast<double>(d) + 0.5);
    file.datasets.push_back(std::move(ds));
  }
  vfs::MemFs fs;
  const auto info = h5::write_h5(fs, "/multi.h5", file);
  EXPECT_EQ(info.data_addresses.size(), 3u);
  const auto back = h5::read_h5(fs, "/multi.h5");
  ASSERT_EQ(back.datasets.size(), 3u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(back.dataset("var" + std::to_string(d)).data[0],
              static_cast<double>(d) + 0.5);
  }
}

TEST(Writer, PlanLayoutMatchesActualWrite) {
  const auto file = small_file();
  const auto plan = h5::plan_layout(file);
  vfs::MemFs fs;
  const auto written = h5::write_h5(fs, "/f.h5", file);
  EXPECT_EQ(plan.metadata_size, written.metadata_size);
  EXPECT_EQ(plan.file_size, written.file_size);
  EXPECT_EQ(plan.data_addresses, written.data_addresses);
  EXPECT_EQ(plan.field_map.entries().size(), written.field_map.entries().size());
  EXPECT_EQ(fs.stat("/f.h5").size, written.file_size);
}

TEST(Writer, LockFileProtocol) {
  const auto file = small_file();
  vfs::MemFs fs;
  (void)h5::write_h5(fs, "/f.h5", file);
  EXPECT_FALSE(fs.exists("/f.h5.lock"));  // created then removed
  h5::WriteOptions no_lock;
  no_lock.lock_file = false;
  (void)h5::write_h5(fs, "/g.h5", file, no_lock);
  EXPECT_FALSE(fs.exists("/g.h5.lock"));
}

TEST(Writer, ChunkedDataWrites) {
  const auto file = small_file(16);  // 16^3 * 8 = 32 KB of raw data
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  h5::WriteOptions options;
  options.data_chunk_bytes = 4096;
  (void)h5::write_h5(counting, "/f.h5", file, options);
  // 8 data chunks + metadata + EOF update.
  EXPECT_EQ(counting.count(vfs::Primitive::Pwrite), 10u);
}

TEST(Writer, RejectsInvalidStructures) {
  vfs::MemFs fs;
  h5::H5File empty;
  EXPECT_THROW((void)h5::write_h5(fs, "/f.h5", empty), h5::H5FormatError);

  h5::H5File bad_dims;
  h5::Dataset ds;
  ds.name = "d";
  ds.dims = {4};
  ds.data.resize(3);  // mismatch
  bad_dims.datasets.push_back(ds);
  EXPECT_THROW((void)h5::write_h5(fs, "/f.h5", bad_dims), h5::H5FormatError);

  h5::H5File unnamed;
  ds.data.resize(4);
  ds.name.clear();
  unnamed.datasets.push_back(ds);
  EXPECT_THROW((void)h5::write_h5(fs, "/f.h5", unnamed), h5::H5FormatError);

  // A B-tree node needs a slot for its one child; a symbol-table node one
  // per dataset.
  h5::WriteOptions no_btree_slots;
  no_btree_slots.btree_capacity = 0;
  h5::WriteOptions no_snod_slots;
  no_snod_slots.snod_capacity = 0;
  for (const auto& options : {no_btree_slots, no_snod_slots}) {
    EXPECT_THROW((void)h5::plan_layout(small_file(), options), h5::H5FormatError);
    EXPECT_THROW((void)h5::write_h5(fs, "/f.h5", small_file(), options), h5::H5FormatError);
  }
}

/// One canonical dataset (written from the values' own bytes), one with the
/// byte-order bit flipped and one binary32-shaped (both encoded per element).
h5::H5File mixed_format_file() {
  h5::H5File file;
  h5::Dataset canonical;
  canonical.name = "canonical";
  canonical.dims = {30, 20};
  h5::Dataset flipped = canonical;
  flipped.name = "flipped";
  flipped.format.big_endian = true;
  h5::Dataset narrow;
  narrow.name = "binary32";
  narrow.dims = {250};
  narrow.format.size_bytes = 4;
  narrow.format.bit_precision = 32;
  narrow.format.exponent_location = 23;
  narrow.format.exponent_size = 8;
  narrow.format.mantissa_size = 23;
  narrow.format.exponent_bias = 127;
  narrow.format.sign_location = 31;
  util::Rng rng(21);
  for (h5::Dataset* ds : {&canonical, &flipped, &narrow}) {
    ds->data.resize(ds->element_count());
    for (auto& v : ds->data) v = rng.gaussian(0.0, 1e3);
    ds->data[0] = -0.0;
    file.datasets.push_back(*ds);
  }
  return file;
}

TEST(WriterSequence, MixedFormatWritesArePinned) {
  // The three datasets in 1000-byte slices that straddle element boundaries.
  const h5::H5File file = mixed_format_file();
  vfs::MemFs backing;
  test_support::RecordingFs recording(backing);
  h5::WriteOptions options;
  options.data_chunk_bytes = 1000;
  (void)h5::write_h5(recording, "/f.h5", file, options);
  // Five slices per 4800-byte dataset, one for the 1000-byte one, then the
  // metadata block and the EOF update.
  const std::vector<test_support::WriteRecord> expected = {
      {2672, 1000, 0x8801bfbce0902b3aULL},  {3672, 1000, 0xa611e37027fb3946ULL},
      {4672, 1000, 0xf598a5eccbeff33ULL},   {5672, 1000, 0xd045ea02bce02d1eULL},
      {6672, 800, 0xbaa350a771062193ULL},   {7472, 1000, 0xf4d4238dcfa23262ULL},
      {8472, 1000, 0x20158f70a4b6540aULL},  {9472, 1000, 0xce0c2ba7b63f30ecULL},
      {10472, 1000, 0x173334dfee4683ccULL}, {11472, 800, 0x46d93dc02bd75a89ULL},
      {12272, 1000, 0x7e6457b9292740b9ULL}, {0, 2672, 0x4f2b5e6ef2a1839fULL},
      {40, 8, 0x2740bc8f4f481f5cULL},
  };
  EXPECT_EQ(recording.writes(), expected);
}

TEST(Writer, ShapeAndValuesOverloadIssuesTheSameWrites) {
  const auto file = small_file();
  h5::H5File shape = file;
  shape.datasets[0].data.clear();  // shape only: the values travel apart
  const std::span<const double> values[] = {file.datasets[0].data};
  vfs::MemFs fs_a, fs_b;
  test_support::RecordingFs a(fs_a), b(fs_b);
  (void)h5::write_h5(a, "/f.h5", file);
  (void)h5::write_h5(b, "/f.h5", shape, values);
  EXPECT_EQ(a.writes(), b.writes());
  EXPECT_EQ(vfs::read_file(fs_a, "/f.h5"), vfs::read_file(fs_b, "/f.h5"));

  const std::span<const std::span<const double>> no_values;
  EXPECT_THROW((void)h5::write_h5(b, "/g.h5", shape, no_values), h5::H5FormatError);
  const std::span<const double> short_values[] = {std::span(file.datasets[0].data).first(7)};
  EXPECT_THROW((void)h5::write_h5(b, "/g.h5", shape, short_values), h5::H5FormatError);
}

// --- field map ---------------------------------------------------------------------

TEST(FieldMap, EntriesAreContiguousAndNonOverlapping) {
  const auto plan = h5::plan_layout(small_file());
  std::uint64_t cursor = 0;
  for (const auto& e : plan.field_map.entries()) {
    EXPECT_EQ(e.offset, cursor) << "gap before " << e.name;
    cursor = e.offset + e.length;
  }
  EXPECT_EQ(cursor, plan.metadata_size);
}

TEST(FieldMap, FindLocatesEveryByte) {
  const auto plan = h5::plan_layout(small_file());
  for (std::uint64_t off = 0; off < plan.metadata_size; ++off) {
    const auto* entry = plan.field_map.find(off);
    ASSERT_NE(entry, nullptr) << "unmapped byte " << off;
    EXPECT_LE(entry->offset, off);
    EXPECT_LT(off, entry->offset + entry->length);
  }
  EXPECT_EQ(plan.field_map.find(plan.metadata_size), nullptr);
}

TEST(FieldMap, FindByNameLocatesKeyFields) {
  const auto plan = h5::plan_layout(small_file());
  for (const char* name :
       {"superblock.signature", "superblock.endOfFileAddress", "btree.signature",
        "snod.signature", "heap.signature",
        "objectHeader[baryon_density].dataType.floatProperty.exponentBias",
        "objectHeader[baryon_density].layout.addressOfRawData"}) {
    EXPECT_NE(plan.field_map.find_by_name(name), nullptr) << name;
  }
  EXPECT_EQ(plan.field_map.find_by_name("no.such.field"), nullptr);
}

TEST(FieldMap, UnusedSpaceDominates) {
  // The Table III precondition: most metadata bytes are unused/reserved
  // (mostly-empty B-tree nodes), which is why faults are mostly benign.
  const auto plan = h5::plan_layout(small_file());
  const auto unused = plan.field_map.bytes_of_class(h5::FieldClass::Unused) +
                      plan.field_map.bytes_of_class(h5::FieldClass::Reserved);
  EXPECT_GT(static_cast<double>(unused) / static_cast<double>(plan.metadata_size), 0.7);
}

TEST(FieldMap, TsvRendering) {
  const auto plan = h5::plan_layout(small_file());
  const std::string tsv = plan.field_map.to_tsv();
  EXPECT_NE(tsv.find("offset\tlength\tclass\tname"), std::string::npos);
  EXPECT_NE(tsv.find("btree.signature"), std::string::npos);
}

// --- layout pins ---------------------------------------------------------------------
// Every byte the writer lays down, every field-map entry and every reader
// verdict on a corrupted byte is pinned by digest, so a change to how the
// layout is declared cannot move any of them silently.

/// FNV-1a of `words` followed by the bytes of `text`, chained onto `digest`.
std::uint64_t fold(std::uint64_t digest, std::initializer_list<std::uint64_t> words,
                   std::string_view text = {}) {
  digest = util::fnv1a64(std::as_bytes(std::span(words.begin(), words.size())), digest);
  return util::fnv1a64(std::as_bytes(std::span(text)), digest);
}

std::uint64_t layout_digest(const h5::WriteInfo& info) {
  std::uint64_t digest = fold(util::fnv1a64({}), {info.metadata_size, info.file_size});
  for (const std::uint64_t address : info.data_addresses) digest = fold(digest, {address});
  for (const auto& e : info.field_map.entries()) {
    digest = fold(digest, {e.offset, e.length, static_cast<std::uint64_t>(e.cls), e.name.size()},
                  e.name);
  }
  return digest;
}

TEST(LayoutPin, FieldMapsArePinned) {
  h5::WriteOptions custom;
  custom.data_chunk_bytes = 4096;
  custom.lock_file = false;
  custom.btree_capacity = 40;
  custom.reserved_tail_bytes = 24;
  EXPECT_EQ(layout_digest(nyx::plan_plotfile_layout(64)), 0x8764cf92bb258206ULL);
  EXPECT_EQ(layout_digest(nyx::plan_plotfile_layout(64, custom)), 0xd1870e06a8c2db82ULL);
  EXPECT_EQ(layout_digest(h5::plan_layout(mixed_format_file())), 0xb9db1c0498b5384eULL);
}

/// The most-derived H5 exception class `e` belongs to.
std::string_view exception_kind(const std::exception& e) {
  if (dynamic_cast<const h5::H5SignatureError*>(&e)) return "H5SignatureError";
  if (dynamic_cast<const h5::H5VersionError*>(&e)) return "H5VersionError";
  if (dynamic_cast<const h5::H5BoundsError*>(&e)) return "H5BoundsError";
  if (dynamic_cast<const h5::H5NotFoundError*>(&e)) return "H5NotFoundError";
  if (dynamic_cast<const h5::H5FormatError*>(&e)) return "H5FormatError";
  if (dynamic_cast<const h5::H5Exception*>(&e)) return "H5Exception";
  return "std::exception";
}

TEST(LayoutPin, ReaderByteFlipsArePinned) {
  // Every metadata byte of the three-dataset file inverted in turn: the
  // symbol-table loop runs three entries, one dataset is big-endian and one
  // binary32, so each structure and each datatype branch is read corrupted.
  vfs::MemFs fs;
  const auto info = h5::write_h5(fs, "/f.h5", mixed_format_file());
  const util::Bytes image = vfs::read_file(fs, "/f.h5");
  std::uint64_t digest = util::fnv1a64({});
  std::size_t parsed = 0;
  for (std::uint64_t offset = 0; offset < info.metadata_size; ++offset) {
    util::Bytes corrupted = image;
    corrupted[offset] ^= std::byte{0xff};
    try {
      const h5::H5File file = h5::read_h5(util::ByteSpan(corrupted));
      ++parsed;
      digest = fold(digest, {offset}, "ok");
      for (const auto& ds : file.datasets) {
        const auto& f = ds.format;
        digest = fold(digest, {ds.name.size()}, ds.name);
        for (const std::uint64_t d : ds.dims) digest = fold(digest, {d});
        digest = fold(digest, {f.size_bytes, f.bit_offset, f.bit_precision, f.exponent_location,
                               f.exponent_size, f.mantissa_location, f.mantissa_size,
                               f.exponent_bias, f.sign_location,
                               static_cast<std::uint64_t>(f.normalization),
                               static_cast<std::uint64_t>(f.big_endian),
                               std::bit_cast<std::uint64_t>(ds.fill_value), ds.data.size()});
        digest = util::fnv1a64(std::as_bytes(std::span(ds.data)), digest);
      }
    } catch (const std::exception& e) {
      const std::string_view what = e.what();
      digest = fold(digest, {offset}, exception_kind(e));
      digest = fold(digest, {what.size()}, what);
    }
  }
  EXPECT_EQ(info.metadata_size, 2672u);
  EXPECT_EQ(parsed, 2366u);
  EXPECT_EQ(digest, 0x4beef4467a7b23f4ULL) << std::hex << digest;
}

// --- reader validation (crash modelling) ---------------------------------------------

class ReaderCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = small_file();
    info_ = h5::write_h5(fs_, "/f.h5", file_);
    image_ = vfs::read_file(fs_, "/f.h5");
  }

  /// Corrupts the named field (xor 0xFF on its first byte) and re-reads.
  void corrupt_field(const std::string& name) {
    const auto* entry = info_.field_map.find_by_name(name);
    ASSERT_NE(entry, nullptr) << name;
    util::Bytes corrupted = image_;
    corrupted[entry->offset] ^= std::byte{0xff};
    vfs::write_file(fs_, "/f.h5", corrupted);
  }

  h5::H5File file_;
  vfs::MemFs fs_;
  h5::WriteInfo info_;
  util::Bytes image_;
};

TEST_F(ReaderCorruption, SuperblockSignatureCrashes) {
  corrupt_field("superblock.signature");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5SignatureError);
}

TEST_F(ReaderCorruption, BtreeSignatureCrashes) {
  corrupt_field("btree.signature");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5SignatureError);
}

TEST_F(ReaderCorruption, SnodSignatureCrashes) {
  corrupt_field("snod.signature");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5SignatureError);
}

TEST_F(ReaderCorruption, HeapSignatureCrashes) {
  corrupt_field("heap.signature");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5SignatureError);
}

TEST_F(ReaderCorruption, VersionNumbersCrash) {
  for (const char* field : {"superblock.versionSuperblock", "snod.version",
                            "heap.version", "objectHeader[baryon_density].version",
                            "objectHeader[baryon_density].dataspace.version",
                            "objectHeader[baryon_density].layout.version"}) {
    SetUp();
    corrupt_field(field);
    EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5Exception) << field;
  }
}

TEST_F(ReaderCorruption, EofAddressMismatchCrashes) {
  corrupt_field("superblock.endOfFileAddress");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5BoundsError);
}

TEST_F(ReaderCorruption, HeapLinkNameCrashesLookup) {
  corrupt_field("heap.linkName[baryon_density]");
  // Parsing may succeed (the symbol just has a different name), but the
  // dataset lookup must fail.
  EXPECT_THROW((void)h5::read_dataset(fs_, "/f.h5", "baryon_density"), h5::H5Exception);
}

TEST_F(ReaderCorruption, RawDataAddressBeforeFileStartCrashes) {
  // address - 4096 wraps below zero; the bounds check must not wrap with it.
  const auto* entry =
      info_.field_map.find_by_name("objectHeader[baryon_density].layout.addressOfRawData");
  ASSERT_NE(entry, nullptr);
  util::Bytes corrupted = image_;
  const std::uint64_t address = util::get_le(corrupted, entry->offset, 8);
  ASSERT_LT(address, 4096u);
  util::put_le_at(corrupted, entry->offset, address - 4096, 8);
  vfs::write_file(fs_, "/f.h5", corrupted);
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5BoundsError);
}

TEST_F(ReaderCorruption, HeapAddressNearWrapCrashes) {
  // address + size wraps past 2^64 to a small sum; the check must not wrap.
  const auto* entry = info_.field_map.find_by_name("heap.dataSegmentAddress");
  ASSERT_NE(entry, nullptr);
  util::Bytes corrupted = image_;
  util::put_le_at(corrupted, entry->offset, ~std::uint64_t{0}, 8);
  vfs::write_file(fs_, "/f.h5", corrupted);
  try {
    (void)h5::read_h5(fs_, "/f.h5");
    ADD_FAILURE() << "a heap segment at 2^64 - 1 was accepted";
  } catch (const h5::H5BoundsError& e) {
    EXPECT_NE(std::string(e.what()).find("heap data segment"), std::string::npos)
        << e.what();
  }
}

TEST_F(ReaderCorruption, HugeSkipCrashes) {
  // An undefined fill value of 2^32 - 1 bytes makes the cursor skip far past
  // the end of the file.
  const std::string oh = "objectHeader[baryon_density].fillValue.";
  const auto* defined = info_.field_map.find_by_name(oh + "fillDefined");
  const auto* size = info_.field_map.find_by_name(oh + "size");
  ASSERT_NE(defined, nullptr);
  ASSERT_NE(size, nullptr);
  util::Bytes corrupted = image_;
  util::put_le_at(corrupted, defined->offset, 0, 1);
  util::put_le_at(corrupted, size->offset, 0xffffffffu, 4);
  vfs::write_file(fs_, "/f.h5", corrupted);
  try {
    (void)h5::read_h5(fs_, "/f.h5");
    ADD_FAILURE() << "a 4 GiB skip was accepted";
  } catch (const h5::H5BoundsError& e) {
    EXPECT_NE(std::string(e.what()).find("read past end of file"), std::string::npos)
        << e.what();
  }
}

TEST_F(ReaderCorruption, TruncatedFileCrashes) {
  util::Bytes truncated(image_.begin(), image_.begin() + 64);
  vfs::write_file(fs_, "/f.h5", truncated);
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5BoundsError);
}

TEST_F(ReaderCorruption, MessageTypeUnknownCrashes) {
  corrupt_field("objectHeader[baryon_density].dataspace.messageType");
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5Exception);
}

// --- benign fields (paper V-A analysis) -----------------------------------------------

TEST_F(ReaderCorruption, BitOffsetIsBenign) {
  corrupt_field("objectHeader[baryon_density].dataType.floatProperty.bitOffset");
  const auto back = h5::read_h5(fs_, "/f.h5");
  EXPECT_EQ(back.dataset("baryon_density").data, file_.datasets[0].data);
}

TEST_F(ReaderCorruption, BitPrecisionIsBenign) {
  corrupt_field("objectHeader[baryon_density].dataType.floatProperty.bitPrecision");
  const auto back = h5::read_h5(fs_, "/f.h5");
  EXPECT_EQ(back.dataset("baryon_density").data, file_.datasets[0].data);
}

TEST_F(ReaderCorruption, StorageSizeBiggerIsBenignSmallerCrashes) {
  // Paper: "if a fault modifies the size to a bigger value, the application
  // would still produce the correct output, otherwise a crash would occur."
  const auto* entry =
      info_.field_map.find_by_name("objectHeader[baryon_density].layout.contiguousStorageSize");
  ASSERT_NE(entry, nullptr);

  util::Bytes bigger = image_;
  const std::uint64_t size = util::get_le(bigger, entry->offset, 8);
  util::put_le_at(bigger, entry->offset, size * 2, 8);
  vfs::write_file(fs_, "/f.h5", bigger);
  EXPECT_EQ(h5::read_h5(fs_, "/f.h5").dataset("baryon_density").data,
            file_.datasets[0].data);

  util::Bytes smaller = image_;
  util::put_le_at(smaller, entry->offset, size / 2, 8);
  vfs::write_file(fs_, "/f.h5", smaller);
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5BoundsError);
}

TEST_F(ReaderCorruption, ReservedAndUnusedBytesAreBenign) {
  for (const char* field : {"btree.unusedEntries", "snod.unusedEntry[4]",
                            "reservedFutureMetadata", "superblock.fileConsistencyFlags"}) {
    SetUp();
    corrupt_field(field);
    const auto back = h5::read_h5(fs_, "/f.h5");
    EXPECT_EQ(back.dataset("baryon_density").data, file_.datasets[0].data) << field;
  }
}

// --- SDC fields (paper Table IV semantics) ----------------------------------------------

TEST_F(ReaderCorruption, ExponentBiasScalesAllValues) {
  const auto* entry = info_.field_map.find_by_name(
      "objectHeader[baryon_density].dataType.floatProperty.exponentBias");
  util::Bytes corrupted = image_;
  const std::uint64_t bias = util::get_le(corrupted, entry->offset, 4);
  util::put_le_at(corrupted, entry->offset, bias - 12, 4);
  vfs::write_file(fs_, "/f.h5", corrupted);
  const auto back = h5::read_h5(fs_, "/f.h5");
  const auto& data = back.dataset("baryon_density").data;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(data[i], file_.datasets[0].data[i] * 4096.0);
  }
}

TEST_F(ReaderCorruption, ArdShiftSlidesData) {
  const auto* entry = info_.field_map.find_by_name(
      "objectHeader[baryon_density].layout.addressOfRawData");
  util::Bytes corrupted = image_;
  const std::uint64_t ard = util::get_le(corrupted, entry->offset, 8);
  util::put_le_at(corrupted, entry->offset, ard - 16, 8);  // shift by 2 elements
  vfs::write_file(fs_, "/f.h5", corrupted);
  const auto back = h5::read_h5(fs_, "/f.h5");
  const auto& data = back.dataset("baryon_density").data;
  for (std::size_t i = 2; i < data.size(); ++i) {
    EXPECT_EQ(data[i], file_.datasets[0].data[i - 2]);
  }
}

TEST_F(ReaderCorruption, ArdBeyondEofCrashes) {
  const auto* entry = info_.field_map.find_by_name(
      "objectHeader[baryon_density].layout.addressOfRawData");
  util::Bytes corrupted = image_;
  const std::uint64_t ard = util::get_le(corrupted, entry->offset, 8);
  util::put_le_at(corrupted, entry->offset, ard + 4096, 8);
  vfs::write_file(fs_, "/f.h5", corrupted);
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5BoundsError);
}

TEST_F(ReaderCorruption, MantissaSizeChangesValuesSilently) {
  const auto* entry = info_.field_map.find_by_name(
      "objectHeader[baryon_density].dataType.floatProperty.mantissaSize");
  util::Bytes corrupted = image_;
  util::put_le_at(corrupted, entry->offset, 48, 1);
  vfs::write_file(fs_, "/f.h5", corrupted);
  const auto back = h5::read_h5(fs_, "/f.h5");
  EXPECT_NE(back.dataset("baryon_density").data, file_.datasets[0].data);
}

TEST_F(ReaderCorruption, ReservedNormalizationModeCrashes) {
  const auto* entry = info_.field_map.find_by_name(
      "objectHeader[baryon_density].dataType.classBitField0");
  util::Bytes corrupted = image_;
  // Set normalization bits (4-5) to the reserved value 3.
  corrupted[entry->offset] |= std::byte{0x30};
  vfs::write_file(fs_, "/f.h5", corrupted);
  EXPECT_THROW((void)h5::read_h5(fs_, "/f.h5"), h5::H5FormatError);
}

// Property: the validating reader never exhibits UB or unclassifiable
// behaviour under random corruption — every corrupted image either parses
// (possibly to different data) or throws an H5Exception subclass.
class ReaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReaderFuzz, RandomCorruptionAlwaysClassifies) {
  vfs::MemFs fs;
  const auto file = small_file();
  (void)h5::write_h5(fs, "/f.h5", file);
  const util::Bytes image = vfs::read_file(fs, "/f.h5");

  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    util::Bytes corrupted = image;
    const std::size_t flips = 1 + rng.uniform(4);
    for (std::size_t f = 0; f < flips; ++f) {
      util::flip_bits(corrupted, rng.uniform(corrupted.size() * 8), 1 + rng.uniform(8));
    }
    // Occasionally truncate too.
    if (rng.bernoulli(0.1)) corrupted.resize(rng.uniform(corrupted.size()) + 1);
    vfs::write_file(fs, "/f.h5", corrupted);
    try {
      const auto parsed = h5::read_h5(fs, "/f.h5");
      for (const auto& ds : parsed.datasets) {
        EXPECT_LE(ds.data.size(), 1u << 22);  // no runaway allocations
      }
    } catch (const h5::H5Exception&) {
      // classified crash — fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzz, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Reader, MissingDatasetThrows) {
  vfs::MemFs fs;
  (void)h5::write_h5(fs, "/f.h5", small_file());
  EXPECT_THROW((void)h5::read_dataset(fs, "/f.h5", "nope"), h5::H5NotFoundError);
}

TEST(Reader, EmptyFileThrows) {
  vfs::MemFs fs;
  vfs::write_file(fs, "/f.h5", {});
  EXPECT_THROW((void)h5::read_h5(fs, "/f.h5"), h5::H5BoundsError);
}

}  // namespace
