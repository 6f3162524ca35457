// Unit tests for ffis::util — RNG, byte utilities, string formatting,
// environment helpers and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include "ffis/util/bytes.hpp"
#include "ffis/util/chunking.hpp"
#include "ffis/util/env.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/strfmt.hpp"
#include "ffis/util/thread_pool.hpp"

namespace {

using namespace ffis::util;

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(1);
  Rng c1_again = parent.split(0);
  EXPECT_EQ(c1(), c1_again());
  EXPECT_NE(c1(), c2());
}

class RngUniformBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformBound, StaysBelowBound) {
  const std::uint64_t bound = GetParam();
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.uniform(bound), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformBound,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 10ULL, 1000ULL,
                                           0x100000000ULL, ~0ULL - 1));

TEST(Rng, UniformBoundOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformSignedRange) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(19);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(23);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(29);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, DiscardAdvancesState) {
  Rng a(37), b(37);
  a.discard(10);
  for (int i = 0; i < 10; ++i) (void)b();
  EXPECT_EQ(a(), b());
}

TEST(Splitmix64, KnownSequenceIsReproducible) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// --- bytes -------------------------------------------------------------------

TEST(Bytes, PutGetLeRoundtrip) {
  for (std::size_t width = 1; width <= 8; ++width) {
    Bytes buf;
    const std::uint64_t value = 0x1122334455667788ULL &
                                ((width == 8) ? ~0ULL : ((1ULL << (8 * width)) - 1));
    put_le(buf, value, width);
    EXPECT_EQ(buf.size(), width);
    EXPECT_EQ(get_le(buf, 0, width), value);
  }
}

TEST(Bytes, PutLeAtBoundsChecked) {
  Bytes buf(4);
  EXPECT_NO_THROW(put_le_at(buf, 0, 0xAABBCCDD, 4));
  EXPECT_EQ(get_le(buf, 0, 4), 0xAABBCCDDu);
  EXPECT_THROW(put_le_at(buf, 1, 0, 4), std::out_of_range);
  EXPECT_THROW(put_le_at(buf, 0, 0, 9), std::invalid_argument);
}

TEST(Bytes, GetLeBoundsChecked) {
  Bytes buf(3);
  EXPECT_THROW(get_le(buf, 0, 4), std::out_of_range);
  EXPECT_THROW(get_le(buf, 3, 1), std::out_of_range);
  EXPECT_THROW(get_le(buf, 0, 0), std::invalid_argument);
}

TEST(Bytes, LittleEndianByteOrder) {
  Bytes buf;
  put_le(buf, 0x0102, 2);
  EXPECT_EQ(std::to_integer<int>(buf[0]), 0x02);
  EXPECT_EQ(std::to_integer<int>(buf[1]), 0x01);
}

TEST(Bytes, BulkF64MatchesScalarCodecInBothOrders) {
  // Signalling-NaN and subnormal payloads must pass through bit for bit.
  const std::vector<std::uint64_t> words = {0x3ff0000000000000ULL, 0x7ff0000000000001ULL,
                                            0x8000000000000001ULL, 0x0123456789abcdefULL};
  std::vector<double> values;
  for (const std::uint64_t w : words) values.push_back(std::bit_cast<double>(w));
  for (const std::endian order : {std::endian::little, std::endian::big}) {
    Bytes raw(values.size() * 8 + 3, std::byte{0xee});  // trailing bytes stay untouched
    store_f64s(values, raw, order);
    for (std::size_t i = 0; i < words.size(); ++i) {
      std::uint64_t stored = get_le(raw, 8 * i, 8);
      if (order == std::endian::big) {
        std::uint64_t swapped = 0;
        for (int b = 0; b < 8; ++b) swapped = (swapped << 8) | ((stored >> (8 * b)) & 0xff);
        stored = swapped;
      }
      EXPECT_EQ(stored, words[i]);
    }
    EXPECT_EQ(raw.back(), std::byte{0xee});
    std::vector<double> back(values.size());
    load_f64s(raw, back, order);
    for (std::size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), words[i]);
    }
  }
}

TEST(Bytes, BulkF64BoundsChecked) {
  Bytes raw(15);
  std::vector<double> two(2);
  EXPECT_THROW(load_f64s(raw, two, std::endian::big), std::out_of_range);
  EXPECT_THROW(store_f64s(two, raw, std::endian::little), std::out_of_range);
  EXPECT_NO_THROW(load_f64s(raw, std::span(two).first(1), std::endian::little));
}

class FlipBits : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FlipBits, FlipsExactlyRequestedBits) {
  const auto [offset, count] = GetParam();
  Bytes buf(8, std::byte{0});
  const std::size_t changed = flip_bits(buf, offset, count);
  EXPECT_EQ(changed, count_diff_bytes(Bytes(8, std::byte{0}), buf));
  std::size_t set = 0;
  for (std::size_t bit = 0; bit < 64; ++bit) {
    if (test_bit(buf, bit)) {
      ++set;
      EXPECT_GE(bit, offset);
      EXPECT_LT(bit, offset + count);
    }
  }
  EXPECT_EQ(set, std::min(count, 64 - offset));
}

INSTANTIATE_TEST_SUITE_P(Positions, FlipBits,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{0, 1},
                                           std::pair<std::size_t, std::size_t>{0, 2},
                                           std::pair<std::size_t, std::size_t>{7, 2},
                                           std::pair<std::size_t, std::size_t>{15, 4},
                                           std::pair<std::size_t, std::size_t>{62, 2},
                                           std::pair<std::size_t, std::size_t>{63, 8},
                                           std::pair<std::size_t, std::size_t>{31, 33}));

TEST(Bytes, FlipBitsIsInvolution) {
  Bytes buf = to_bytes("hello world");
  const Bytes original = buf;
  flip_bits(buf, 13, 5);
  EXPECT_NE(buf, original);
  flip_bits(buf, 13, 5);
  EXPECT_EQ(buf, original);
}

TEST(Bytes, ExtractDepositRoundtrip) {
  Bytes buf(16, std::byte{0});
  deposit_bits(buf, 13, 23, 0x5a5a5a);
  EXPECT_EQ(extract_bits(buf, 13, 23), 0x5a5a5aULL & ((1ULL << 23) - 1));
  // Neighbouring bits untouched.
  EXPECT_FALSE(test_bit(buf, 12));
  EXPECT_FALSE(test_bit(buf, 36));
}

TEST(Bytes, ExtractBitsRejectsWideReads) {
  Bytes buf(16, std::byte{0});
  EXPECT_THROW(extract_bits(buf, 0, 65), std::invalid_argument);
}

TEST(Bytes, CountDiffBytes) {
  const Bytes a = to_bytes("abcdef");
  Bytes b = a;
  EXPECT_EQ(count_diff_bytes(a, b), 0u);
  b[1] = std::byte{'x'};
  b[4] = std::byte{'y'};
  EXPECT_EQ(count_diff_bytes(a, b), 2u);
  b.push_back(std::byte{'z'});
  EXPECT_EQ(count_diff_bytes(a, b), 3u);  // length difference counts
}

TEST(Bytes, HexdumpShowsOffsetsAndAscii) {
  const Bytes data = to_bytes("ABC");
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("41 42 43"), std::string::npos);
  EXPECT_NE(dump.find("|ABC|"), std::string::npos);
}

TEST(Bytes, HexdumpTruncates) {
  const Bytes data(100, std::byte{0});
  const std::string dump = hexdump(data, 16);
  EXPECT_NE(dump.find("more bytes"), std::string::npos);
}

TEST(Bytes, StringConversionsRoundtrip) {
  const std::string s = "FFIS \x01\x7f";
  EXPECT_EQ(to_string(to_bytes(s)), s);
}

// --- strfmt ------------------------------------------------------------------

TEST(Strfmt, BasicPlaceholders) {
  EXPECT_EQ(fmt("a={} b={}", 1, "x"), "a=1 b=x");
  EXPECT_EQ(fmt("{}", true), "true");
  EXPECT_EQ(fmt("no placeholders"), "no placeholders");
}

TEST(Strfmt, FloatPrecision) {
  EXPECT_EQ(fmt("{:.2f}", 3.14159), "3.14");
  EXPECT_EQ(fmt("{:.1f}%", 99.95), "100.0%");
}

TEST(Strfmt, ExtraPlaceholdersRenderLiterally) {
  EXPECT_EQ(fmt("a={} b={}", 1), "a=1 b={}");
}

TEST(Strfmt, NegativeAndLargeNumbers) {
  EXPECT_EQ(fmt("{}", -42), "-42");
  EXPECT_EQ(fmt("{}", 18446744073709551615ULL), "18446744073709551615");
}

// --- env ---------------------------------------------------------------------

TEST(Env, U64FallbackAndParse) {
  ::unsetenv("FFIS_TEST_ENV");
  EXPECT_EQ(env_u64("FFIS_TEST_ENV", 42), 42u);
  ::setenv("FFIS_TEST_ENV", "", 1);
  EXPECT_EQ(env_u64("FFIS_TEST_ENV", 42), 42u);
  ::setenv("FFIS_TEST_ENV", "123", 1);
  EXPECT_EQ(env_u64("FFIS_TEST_ENV", 42), 123u);
  ::setenv("FFIS_TEST_ENV", "18446744073709551615", 1);
  EXPECT_EQ(env_u64("FFIS_TEST_ENV", 42), UINT64_MAX);
  ::unsetenv("FFIS_TEST_ENV");
}

TEST(Env, U64MalformedThrowsNamingVariableAndValue) {
  for (const char* bad : {"not-a-number", "12x", "-1", " 7", "+7", "18446744073709551616"}) {
    ::setenv("FFIS_TEST_ENV", bad, 1);
    try {
      (void)env_u64("FFIS_TEST_ENV", 42);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("FFIS_TEST_ENV"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  ::unsetenv("FFIS_TEST_ENV");
}

TEST(Env, StringEmptyTreatedAsUnset) {
  ::setenv("FFIS_TEST_ENV_S", "", 1);
  EXPECT_FALSE(env_string("FFIS_TEST_ENV_S").has_value());
  ::setenv("FFIS_TEST_ENV_S", "v", 1);
  EXPECT_EQ(env_string("FFIS_TEST_ENV_S").value(), "v");
  ::unsetenv("FFIS_TEST_ENV_S");
}

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForWithChunking) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 10);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- chunk arithmetic --------------------------------------------------------

TEST(Chunking, IndexBeginIntraCount) {
  EXPECT_EQ(chunk_index(0, 16), 0u);
  EXPECT_EQ(chunk_index(15, 16), 0u);
  EXPECT_EQ(chunk_index(16, 16), 1u);
  EXPECT_EQ(chunk_begin(3, 16), 48u);
  EXPECT_EQ(intra_chunk(0, 16), 0u);
  EXPECT_EQ(intra_chunk(17, 16), 1u);
  EXPECT_EQ(chunk_count(0, 16), 0u);
  EXPECT_EQ(chunk_count(1, 16), 1u);
  EXPECT_EQ(chunk_count(16, 16), 1u);
  EXPECT_EQ(chunk_count(17, 16), 2u);
}

TEST(Chunking, SliceDecompositionCoversRangeExactly) {
  // [5, 41) over 16-byte chunks: [5,16) in chunk 0, [0,16) in 1, [0,9) in 2.
  std::vector<ChunkSlice> slices;
  for_each_chunk_slice(5, 36, 16, [&](const ChunkSlice& s) { slices.push_back(s); });
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].index, 0u);
  EXPECT_EQ(slices[0].begin, 5u);
  EXPECT_EQ(slices[0].length, 11u);
  EXPECT_EQ(slices[0].buf_offset, 0u);
  EXPECT_EQ(slices[1].index, 1u);
  EXPECT_EQ(slices[1].begin, 0u);
  EXPECT_EQ(slices[1].length, 16u);
  EXPECT_EQ(slices[1].buf_offset, 11u);
  EXPECT_EQ(slices[2].index, 2u);
  EXPECT_EQ(slices[2].begin, 0u);
  EXPECT_EQ(slices[2].length, 9u);
  EXPECT_EQ(slices[2].buf_offset, 27u);
}

TEST(Chunking, SliceWithinOneChunkAndAtBoundaries) {
  std::vector<ChunkSlice> slices;
  for_each_chunk_slice(32, 16, 16, [&](const ChunkSlice& s) { slices.push_back(s); });
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].index, 2u);
  EXPECT_EQ(slices[0].begin, 0u);
  EXPECT_EQ(slices[0].length, 16u);

  slices.clear();
  for_each_chunk_slice(100, 0, 16, [&](const ChunkSlice& s) { slices.push_back(s); });
  EXPECT_TRUE(slices.empty());
}

TEST(Chunking, SlicesSumToLengthForAwkwardGeometry) {
  // Property over a grid of offsets/lengths with a prime chunk size.
  for (std::uint64_t offset : {0ull, 1ull, 6ull, 7ull, 13ull, 700ull}) {
    for (std::size_t length : {0u, 1u, 6u, 7u, 8u, 50u, 701u}) {
      std::size_t total = 0;
      std::size_t expect_buf = 0;
      for_each_chunk_slice(offset, length, 7, [&](const ChunkSlice& s) {
        EXPECT_EQ(s.buf_offset, expect_buf);
        EXPECT_LE(s.begin + s.length, 7u);
        EXPECT_GT(s.length, 0u);
        total += s.length;
        expect_buf += s.length;
      });
      EXPECT_EQ(total, length);
    }
  }
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool;
  std::vector<long long> partial(10000);
  parallel_for(pool, partial.size(),
               [&](std::size_t i) { partial[i] = static_cast<long long>(i) * i; },
               64);
  long long parallel_sum = std::accumulate(partial.begin(), partial.end(), 0LL);
  long long serial_sum = 0;
  for (std::size_t i = 0; i < partial.size(); ++i) serial_sum += static_cast<long long>(i) * i;
  EXPECT_EQ(parallel_sum, serial_sum);
}

}  // namespace
