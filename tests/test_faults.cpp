// Unit tests for ffis::faults — fault models, signatures, generator and the
// FaultingFs interception layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/faults/fault_model.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/faults/write_observer.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/strfmt.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using faults::BitFlipSpec;
using faults::FaultModel;
using faults::FaultSignature;
using faults::ShornSpec;
using faults::ShornTail;
using vfs::OpenMode;
using vfs::Primitive;

util::Bytes pattern_buffer(std::size_t n) {
  util::Bytes buf(n);
  for (std::size_t i = 0; i < n; ++i) buf[i] = static_cast<std::byte>(i & 0xff);
  return buf;
}

std::size_t count_bit_diffs(util::ByteSpan a, util::ByteSpan b) {
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    auto x = std::to_integer<unsigned>(a[i]) ^ std::to_integer<unsigned>(b[i]);
    while (x != 0) {
      diffs += x & 1u;
      x >>= 1;
    }
  }
  return diffs;
}

// --- BIT_FLIP -------------------------------------------------------------------

class BitFlipWidth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BitFlipWidth, FlipsConsecutiveBits) {
  const std::uint32_t width = GetParam();
  const util::Bytes original = pattern_buffer(256);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(seed);
    const auto mut = faults::apply_bit_flip(BitFlipSpec{width}, rng, original);
    ASSERT_FALSE(mut.dropped);
    ASSERT_TRUE(mut.flipped_bit.has_value());
    ASSERT_EQ(mut.data.size(), original.size());
    // Bits flipped: exactly `width` consecutive positions from flipped_bit,
    // clamped at the buffer end.
    const std::size_t expected =
        std::min<std::size_t>(width, original.size() * 8 - *mut.flipped_bit);
    EXPECT_EQ(count_bit_diffs(original, mut.data), expected);
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_NE(util::test_bit(original, *mut.flipped_bit + i),
                util::test_bit(mut.data, *mut.flipped_bit + i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitFlipWidth, ::testing::Values(1u, 2u, 4u, 8u));

TEST(BitFlip, PaperDefaultIsTwoBits) {
  EXPECT_EQ(BitFlipSpec{}.width, 2u);
}

TEST(BitFlip, EmptyBufferUnchanged) {
  util::Rng rng(1);
  const auto mut = faults::apply_bit_flip(BitFlipSpec{}, rng, {});
  EXPECT_TRUE(mut.data.empty());
  EXPECT_FALSE(mut.flipped_bit.has_value());
}

TEST(BitFlip, PositionsCoverWholeBuffer) {
  const util::Bytes original = pattern_buffer(64);
  util::Rng rng(7);
  std::size_t min_bit = ~0ULL, max_bit = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto mut = faults::apply_bit_flip(BitFlipSpec{1}, rng, original);
    min_bit = std::min(min_bit, *mut.flipped_bit);
    max_bit = std::max(max_bit, *mut.flipped_bit);
  }
  EXPECT_LT(min_bit, 16u);       // hits the start region
  EXPECT_GT(max_bit, 64u * 8 - 16);  // hits the end region
}

// --- SHORN_WRITE ----------------------------------------------------------------

class ShornFraction : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShornFraction, PreservesSizeAndShearsAtSectorBoundary) {
  const std::uint32_t eighths = GetParam();
  ShornSpec spec;
  spec.completed_eighths = eighths;
  const util::Bytes original = pattern_buffer(4096);
  util::Rng rng(3);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  ASSERT_EQ(mut.data.size(), original.size());

  const std::size_t keep = 4096 * eighths / 8 / 512 * 512;
  if (eighths == 8) {
    EXPECT_FALSE(mut.shorn_from.has_value());
    EXPECT_EQ(mut.data, original);
    return;
  }
  ASSERT_TRUE(mut.shorn_from.has_value());
  EXPECT_EQ(*mut.shorn_from, keep);
  // Prefix intact.
  EXPECT_TRUE(std::equal(original.begin(), original.begin() + keep, mut.data.begin()));
}

INSTANTIATE_TEST_SUITE_P(Eighths, ShornFraction, ::testing::Values(1u, 3u, 4u, 7u, 8u));

TEST(ShornWrite, PaperSpecLosesLastEighth) {
  // 7/8 completed = the write loses its last 1/8th (paper IV-B).
  ShornSpec spec;
  const util::Bytes original = pattern_buffer(4096);
  util::Rng rng(5);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  EXPECT_EQ(*mut.shorn_from, 4096u - 512u);
}

TEST(ShornWrite, AdjacentTailCopiesPrecedingRegion) {
  ShornSpec spec;  // 7/8, adjacent-data
  const util::Bytes original = pattern_buffer(4096);
  util::Rng rng(5);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  // The lost 512-byte tail is a copy of the 512 bytes preceding it.
  const std::size_t from = *mut.shorn_from;
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(mut.data[from + i], original[from - 512 + i]);
  }
}

TEST(ShornWrite, GarbageTailDiffersAndIsDeterministic) {
  ShornSpec spec;
  spec.tail = ShornTail::Garbage;
  const util::Bytes original = pattern_buffer(4096);
  util::Rng rng_a(9), rng_b(9);
  const auto a = faults::apply_shorn_write(spec, rng_a, original);
  const auto b = faults::apply_shorn_write(spec, rng_b, original);
  EXPECT_EQ(a.data, b.data);
  EXPECT_NE(a.data, original);
}

TEST(ShornWrite, StaleTailForwardsOnlyPrefix) {
  ShornSpec spec;
  spec.tail = ShornTail::Stale;
  const util::Bytes original = pattern_buffer(4096);
  util::Rng rng(11);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  ASSERT_TRUE(mut.forward_only.has_value());
  EXPECT_EQ(*mut.forward_only, 4096u - 512u);
}

TEST(ShornWrite, MultiBlockBuffersShearEveryBlock) {
  ShornSpec spec;  // 7/8 per 4 KB block
  // Non-periodic content so a copied tail is guaranteed to differ.
  util::Bytes original(3 * 4096);
  util::Rng content_rng(99);
  for (auto& b : original) b = static_cast<std::byte>(content_rng() & 0xff);
  util::Rng rng(13);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  // First shorn byte is in block 0.
  EXPECT_EQ(*mut.shorn_from, 4096u - 512u);
  // Each block's kept prefix is intact and each tail differs somewhere.
  for (std::size_t block = 0; block < 3; ++block) {
    const std::size_t base = block * 4096;
    EXPECT_TRUE(std::equal(original.begin() + base, original.begin() + base + 3584,
                           mut.data.begin() + base));
    EXPECT_FALSE(std::equal(original.begin() + base + 3584,
                            original.begin() + base + 4096,
                            mut.data.begin() + base + 3584));
  }
}

TEST(ShornWrite, ShortFinalBlockShearsByOwnLength) {
  ShornSpec spec;  // 7/8 of 1024 = 896 -> sector-aligned 512
  const util::Bytes original = pattern_buffer(1024);
  util::Rng rng(17);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  ASSERT_TRUE(mut.shorn_from.has_value());
  EXPECT_EQ(*mut.shorn_from, 512u);
}

TEST(ShornWrite, TinyBufferLosesEverything) {
  ShornSpec spec;  // 7/8 of 66 bytes -> sector-aligned 0: whole write undefined
  const util::Bytes original = pattern_buffer(66);
  util::Rng rng(19);
  const auto mut = faults::apply_shorn_write(spec, rng, original);
  ASSERT_TRUE(mut.shorn_from.has_value());
  EXPECT_EQ(*mut.shorn_from, 0u);
}

TEST(ShornWrite, InvalidFractionRejected) {
  ShornSpec spec;
  spec.completed_eighths = 0;
  util::Rng rng(1);
  EXPECT_THROW((void)faults::apply_shorn_write(spec, rng, pattern_buffer(8)),
               std::invalid_argument);
  spec.completed_eighths = 9;
  EXPECT_THROW((void)faults::apply_shorn_write(spec, rng, pattern_buffer(8)),
               std::invalid_argument);
}

// --- DROPPED_WRITE ------------------------------------------------------------------

TEST(DroppedWrite, MarksDrop) {
  const auto mut = faults::apply_dropped_write();
  EXPECT_TRUE(mut.dropped);
  EXPECT_TRUE(mut.data.empty());
}

// --- FaultSignature ---------------------------------------------------------------

TEST(FaultSignature, ToStringIncludesModelPrimitiveFeatures) {
  FaultSignature sig;
  sig.model = FaultModel::ShornWrite;
  EXPECT_EQ(sig.to_string(),
            "SHORN_WRITE@pwrite{completed=7/8,tail=adjacent-data,sector=512,block=4096}");
}

/// (input, its exact canonical rendering).
class SignatureRoundtrip
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(SignatureRoundtrip, ParseThenRenderIsStable) {
  const auto& [input, rendering] = GetParam();
  const auto sig = faults::parse_fault_signature(input);
  EXPECT_EQ(sig.to_string(), rendering);
  const auto again = faults::parse_fault_signature(sig.to_string());
  EXPECT_EQ(again.to_string(), sig.to_string());
}

INSTANTIATE_TEST_SUITE_P(
    Examples, SignatureRoundtrip,
    ::testing::Values(
        std::pair{"BF", "BIT_FLIP@pwrite{width=2}"},
        std::pair{"SW",
                  "SHORN_WRITE@pwrite{completed=7/8,tail=adjacent-data,sector=512,block=4096}"},
        std::pair{"DW", "DROPPED_WRITE@pwrite"},
        std::pair{"BIT_FLIP", "BIT_FLIP@pwrite{width=2}"},
        std::pair{"BIT_FLIP@pwrite{width=4}", "BIT_FLIP@pwrite{width=4}"},
        std::pair{"SHORN_WRITE@pwrite{completed=3,tail=garbage}",
                  "SHORN_WRITE@pwrite{completed=3/8,tail=garbage,sector=512,block=4096}"},
        std::pair{"DROPPED_WRITE@mknod", "DROPPED_WRITE@mknod"},
        std::pair{"BIT_FLIP@chmod{width=1}", "BIT_FLIP@chmod{width=1}"}));

INSTANTIATE_TEST_SUITE_P(
    MediaExamples, SignatureRoundtrip,
    ::testing::Values(
        std::pair{"TS", "TORN_SECTOR@pwrite{sector=512,scrub=on}"},
        std::pair{"LSE", "LATENT_SECTOR_ERROR@pwrite{sector=512,scrub=on}"},
        std::pair{"MW", "MISDIRECTED_WRITE@pwrite{sector=512,scrub=on}"},
        std::pair{"BR", "BIT_ROT@pwrite{sector=512,scrub=on,width=1}"},
        std::pair{"IE", "IO_ERROR@pwrite"},
        std::pair{"TORN_SECTOR@pwrite{sector=4096,scrub=off}",
                  "TORN_SECTOR@pwrite{sector=4096,scrub=off}"},
        std::pair{"LATENT_SECTOR_ERROR@pwrite{sector=4096}",
                  "LATENT_SECTOR_ERROR@pwrite{sector=4096,scrub=on}"},
        std::pair{"MISDIRECTED_WRITE@pwrite{scrub=off}",
                  "MISDIRECTED_WRITE@pwrite{sector=512,scrub=off}"},
        std::pair{"BIT_ROT@pwrite{sector=512,scrub=on,width=3}",
                  "BIT_ROT@pwrite{sector=512,scrub=on,width=3}"}));

TEST(FaultSignature, EveryModelRoundTripsThroughItsCanonicalName) {
  // Property over the whole taxonomy: for all 8 models, each of the three
  // spellings (canonical name, short form, third spelling) parses to the
  // model, the canonical name renders the pinned default signature, and
  // that rendering is a fixed point of parse-then-render.
  struct Row {
    FaultModel model;
    const char* spellings[3];
    const char* rendering;
  };
  const Row rows[] = {
      {FaultModel::BitFlip, {"BIT_FLIP", "BF", "bitflip"}, "BIT_FLIP@pwrite{width=2}"},
      {FaultModel::ShornWrite,
       {"SHORN_WRITE", "SW", "shorn"},
       "SHORN_WRITE@pwrite{completed=7/8,tail=adjacent-data,sector=512,block=4096}"},
      {FaultModel::DroppedWrite, {"DROPPED_WRITE", "DW", "dropped"}, "DROPPED_WRITE@pwrite"},
      {FaultModel::IoError, {"IO_ERROR", "IE", "EIO"}, "IO_ERROR@pwrite"},
      {FaultModel::TornSector,
       {"TORN_SECTOR", "TS", "torn"},
       "TORN_SECTOR@pwrite{sector=512,scrub=on}"},
      {FaultModel::LatentSectorError,
       {"LATENT_SECTOR_ERROR", "LSE", "lse"},
       "LATENT_SECTOR_ERROR@pwrite{sector=512,scrub=on}"},
      {FaultModel::MisdirectedWrite,
       {"MISDIRECTED_WRITE", "MW", "misdirected"},
       "MISDIRECTED_WRITE@pwrite{sector=512,scrub=on}"},
      {FaultModel::BitRot,
       {"BIT_ROT", "BR", "bitrot"},
       "BIT_ROT@pwrite{sector=512,scrub=on,width=1}"},
  };
  for (const Row& row : rows) {
    const std::string name(faults::fault_model_name(row.model));
    EXPECT_EQ(name, row.spellings[0]);
    for (const char* spelling : row.spellings) {
      EXPECT_EQ(faults::parse_fault_model(spelling), row.model) << spelling;
      EXPECT_EQ(faults::parse_fault_signature(spelling).to_string(), row.rendering) << spelling;
    }
    const auto sig = faults::parse_fault_signature(name);
    EXPECT_EQ(sig.model, row.model) << name;
    EXPECT_EQ(sig.primitive, Primitive::Pwrite) << name;  // default host
    const auto again = faults::parse_fault_signature(sig.to_string());
    EXPECT_EQ(again.to_string(), sig.to_string()) << name;
    EXPECT_EQ(again.model, row.model) << name;
  }
}

TEST(FaultSignature, MediaShortFormsDefaultToCheckedDevice) {
  for (const char* text : {"TS", "LSE", "MW", "BR"}) {
    const auto sig = faults::parse_fault_signature(text);
    EXPECT_EQ(sig.media.sector_bytes, 512u) << text;
    EXPECT_TRUE(sig.media.scrub_on_read) << text;
  }
  EXPECT_EQ(faults::parse_fault_signature("BR").media.width, 1u);
}

TEST(FaultSignature, ShortFormsDefaultToPaperParameters) {
  const auto bf = faults::parse_fault_signature("BF");
  EXPECT_EQ(bf.model, FaultModel::BitFlip);
  EXPECT_EQ(bf.primitive, Primitive::Pwrite);
  EXPECT_EQ(bf.bit_flip.width, 2u);
  const auto sw = faults::parse_fault_signature("SW");
  EXPECT_EQ(sw.shorn.completed_eighths, 7u);
  EXPECT_EQ(sw.shorn.sector_bytes, 512u);
  EXPECT_EQ(sw.shorn.block_bytes, 4096u);
}

TEST(FaultSignature, BadInputsThrow) {
  EXPECT_THROW(faults::parse_fault_signature("NOPE"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_signature("BF@pwrite{width=2"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_signature("BF@pwrite{bogus=1}"), std::invalid_argument);
}

// Rejection diagnostics must name the offending token — a campaign config
// with a typo'd cell signature should say exactly what it choked on.
void expect_parse_error_mentions(const std::string& text,
                                 std::initializer_list<const char*> tokens) {
  try {
    (void)faults::parse_fault_signature(text);
    FAIL() << "expected rejection of: " << text;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const char* token : tokens) {
      EXPECT_NE(what.find(token), std::string::npos)
          << "'" << what << "' does not name '" << token << "' (input: " << text << ")";
    }
  }
}

TEST(FaultSignature, RejectionsNameTheOffendingToken) {
  expect_parse_error_mentions("TORN_SECTO", {"TORN_SECTO"});          // unknown model
  expect_parse_error_mentions("BIT_ROTTEN@pwrite", {"BIT_ROTTEN"});   // unknown model
  expect_parse_error_mentions("BR@pwrite{sector=1024}", {"sector", "1024"});
  expect_parse_error_mentions("BR@pwrite{sector=abc}", {"sector", "abc"});
  expect_parse_error_mentions("BR@pwrite{scrub=maybe}", {"scrub", "maybe"});
  expect_parse_error_mentions("BR@pwrite{width=abc}", {"width", "abc"});
  expect_parse_error_mentions("BR@pwrite{width=}", {"width"});
  expect_parse_error_mentions("BR@pwrite{completed=3}", {"completed"});  // syscall-only key
  expect_parse_error_mentions("BF@pwrite{scrub=on}", {"scrub"});         // media-only key
  expect_parse_error_mentions("TS@mknod", {"TORN_SECTOR", "mknod"});     // wrong host
  expect_parse_error_mentions("LSE@chmod", {"LATENT_SECTOR_ERROR", "chmod"});
  expect_parse_error_mentions("BR@pwrite{width}", {"width"});  // missing '='
  // Shorn-write geometry that would divide by zero, loop forever or report
  // more bytes than a read returned.
  expect_parse_error_mentions("SW@pwrite{sector=0}", {"sector", "0"});
  expect_parse_error_mentions("SW@pread{sector=0}", {"sector", "0"});
  expect_parse_error_mentions("SW@pwrite{block=0}", {"block", "0"});
  expect_parse_error_mentions("SW@pwrite{completed=0}", {"completed", "0"});
  expect_parse_error_mentions("SW@pwrite{completed=9}", {"completed", "9"});
  expect_parse_error_mentions("SW@pread{completed=9/8}", {"completed", "9/8"});
  // Keys of the model's layer that the model itself never reads.
  expect_parse_error_mentions("DW@pwrite{width=3}", {"width"});
  expect_parse_error_mentions("BF@pwrite{tail=garbage}", {"tail"});
  expect_parse_error_mentions("TS@pwrite{width=4}", {"width"});
  expect_parse_error_mentions("IE@pwrite{sector=512}", {"sector"});
  // Primitives FaultingFs does not intercept, and a primitive that is no
  // primitive at all.
  expect_parse_error_mentions("BF@open", {"BIT_FLIP", "open"});
  expect_parse_error_mentions("DW@stat", {"DROPPED_WRITE", "stat"});
  expect_parse_error_mentions("BF@bogus", {"bogus"});
}

TEST(FaultingFs, ArmRejectsMediaModels) {
  // Media models arm the run's BlockDevice, never the syscall decorator; a
  // mis-wired injector must fail loudly instead of silently never firing.
  for (const char* text : {"TS", "LSE", "MW", "BR"}) {
    vfs::MemFs backing;
    faults::FaultingFs fi(backing);
    try {
      fi.arm(faults::parse_fault_signature(text), 0, 1);
      FAIL() << "expected logic_error for " << text;
    } catch (const std::logic_error& e) {
      const std::string full(faults::fault_model_name(
          faults::parse_fault_signature(text).model));
      EXPECT_NE(std::string(e.what()).find(full), std::string::npos) << e.what();
    }
    // configure() (profiling mode) stays legal: media runs still count
    // pwrites through the decorator while the device hosts the fault.
    faults::FaultingFs counter(backing);
    EXPECT_NO_THROW(counter.configure(faults::parse_fault_signature(text)));
  }
}

TEST(FaultGenerator, RunSeedsAreDistinctAndStable) {
  faults::CampaignConfig cfg;
  cfg.seed = 5;
  faults::FaultGenerator gen(cfg);
  faults::FaultGenerator gen2(cfg);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(gen.run_seed(i), gen2.run_seed(i));
    seeds.insert(gen.run_seed(i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

// --- FaultingFs ----------------------------------------------------------------------

TEST(FaultingFs, UnarmedCountsTargetPrimitiveOnly) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.configure(faults::parse_fault_signature("BF"));
  vfs::write_file(fi, "/a", pattern_buffer(10));
  vfs::write_file(fi, "/b", pattern_buffer(10));
  (void)vfs::read_file(fi, "/a");
  EXPECT_EQ(fi.executions(), 2u);  // pwrite only; reads/opens not counted
  EXPECT_FALSE(fi.fired());
}

TEST(FaultingFs, FiresAtExactInstance) {
  for (std::uint64_t target = 0; target < 4; ++target) {
    vfs::MemFs backing;
    faults::FaultingFs fi(backing);
    fi.arm(faults::parse_fault_signature("DW"), target, 1);
    for (int i = 0; i < 4; ++i) {
      vfs::write_file(fi, "/f" + std::to_string(i), pattern_buffer(64));
    }
    EXPECT_TRUE(fi.fired());
    // Exactly the target write was dropped: its file is empty.
    for (std::uint64_t i = 0; i < 4; ++i) {
      const auto size = backing.stat("/f" + std::to_string(i)).size;
      EXPECT_EQ(size, i == target ? 0u : 64u) << "write " << i;
    }
    EXPECT_EQ(fi.record().instance, target);
    EXPECT_TRUE(fi.record().dropped);
  }
}

TEST(FaultingFs, DroppedWriteReportsFullSize) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DW"), 0, 1);
  vfs::File f(fi, "/f", OpenMode::Write);
  EXPECT_EQ(f.pwrite(pattern_buffer(128), 0), 128u);  // silent success
  EXPECT_EQ(backing.stat("/f").size, 0u);
}

TEST(FaultingFs, BitFlipCorruptsExactlyTwoBits) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("BF"), 0, 42);
  const util::Bytes original = pattern_buffer(512);
  vfs::write_file(fi, "/f", original);
  const util::Bytes written = vfs::read_file(backing, "/f");
  EXPECT_EQ(count_bit_diffs(original, written), 2u);
  EXPECT_EQ(fi.record().corrupted_bytes, util::count_diff_bytes(original, written));
}

TEST(FaultingFs, FiresOnlyOnce) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DW"), 0, 1);
  vfs::write_file(fi, "/a", pattern_buffer(8));
  vfs::write_file(fi, "/b", pattern_buffer(8));
  EXPECT_EQ(backing.stat("/a").size, 0u);
  EXPECT_EQ(backing.stat("/b").size, 8u);
}

TEST(FaultingFs, DisarmStopsInjectionButKeepsCounting) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DW"), 1, 1);
  vfs::write_file(fi, "/a", pattern_buffer(8));
  fi.disarm();
  vfs::write_file(fi, "/b", pattern_buffer(8));
  EXPECT_FALSE(fi.fired());
  EXPECT_EQ(fi.executions(), 2u);
  EXPECT_EQ(backing.stat("/b").size, 8u);
}

TEST(FaultingFs, GateSuppressesCountingAndInjection) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DW"), 0, 1);
  fi.set_enabled(false);
  vfs::write_file(fi, "/a", pattern_buffer(8));
  EXPECT_EQ(fi.executions(), 0u);
  EXPECT_FALSE(fi.fired());
  fi.set_enabled(true);
  vfs::write_file(fi, "/b", pattern_buffer(8));
  EXPECT_TRUE(fi.fired());
  EXPECT_EQ(backing.stat("/a").size, 8u);
  EXPECT_EQ(backing.stat("/b").size, 0u);
}

TEST(FaultingFs, MknodBitFlipCorruptsMode) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("BIT_FLIP@mknod"), 0, 3);
  fi.mknod("/n", 0644);
  const auto mode = backing.stat("/n").mode;
  EXPECT_NE(mode, 0644u);
  EXPECT_EQ(fi.executions(), 1u);
  EXPECT_TRUE(fi.fired());
}

TEST(FaultingFs, MknodDroppedSkipsCreation) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DROPPED_WRITE@mknod"), 0, 3);
  fi.mknod("/n", 0644);
  EXPECT_FALSE(backing.exists("/n"));
  EXPECT_TRUE(fi.record().dropped);
}

TEST(FaultingFs, ChmodShornKeepsOnlyLowModeBits) {
  vfs::MemFs backing;
  backing.mknod("/n", 0600);
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("SHORN_WRITE@chmod"), 0, 3);
  fi.chmod("/n", 0755);
  EXPECT_EQ(backing.stat("/n").mode, 0755u & 0xff);
}

TEST(FaultingFs, RecordCapturesOffsetAndSize) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("BF"), 1, 9);
  vfs::File f(fi, "/f", OpenMode::Write);
  f.pwrite(pattern_buffer(100), 0);
  f.pwrite(pattern_buffer(50), 100);
  const auto record = fi.record();
  EXPECT_EQ(record.instance, 1u);
  EXPECT_EQ(record.offset, 100u);
  EXPECT_EQ(record.original_size, 50u);
}

TEST(FaultingFs, PreadBitFlipCorruptsReturnedData) {
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(256));
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("BIT_FLIP@pread{width=2}"), 0, 5);
  const util::Bytes got = vfs::read_file(fi, "/f");
  EXPECT_TRUE(fi.fired());
  EXPECT_EQ(count_bit_diffs(pattern_buffer(256), got), 2u);
  // The on-device data is untouched (read faults are transient).
  EXPECT_EQ(vfs::read_file(backing, "/f"), pattern_buffer(256));
}

TEST(FaultingFs, PreadBitFlipRecordsTheBytesItChanged) {
  // corrupted_bytes counts the bytes the flip changed: a run that starts
  // late in a byte, or one wider than what is left of the read, is clamped
  // at the read's end rather than counted past it.
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(10));
  for (const std::uint32_t width : {1u, 2u, 7u, 8u, 9u, 17u, 80u, 100000u, 4294967295u}) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      faults::FaultingFs fi(backing);
      fi.arm(faults::parse_fault_signature("BIT_FLIP@pread{width=" + std::to_string(width) + "}"),
             0, seed);
      const util::Bytes got = vfs::read_file(fi, "/f");
      ASSERT_TRUE(fi.fired());
      EXPECT_EQ(fi.record().corrupted_bytes, util::count_diff_bytes(pattern_buffer(10), got))
          << "width=" << width << " seed=" << seed;
    }
  }
}

TEST(FaultingFs, PreadDroppedReturnsNothing) {
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(64));
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("DROPPED_WRITE@pread"), 0, 5);
  vfs::File f(fi, "/f", OpenMode::Read);
  util::Bytes buf(64);
  EXPECT_EQ(f.pread(buf, 0), 0u);
  EXPECT_TRUE(fi.record().dropped);
}

TEST(FaultingFs, PreadShornTruncatesToSectors) {
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(4096));
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("SHORN_WRITE@pread{completed=7}"), 0, 5);
  vfs::File f(fi, "/f", OpenMode::Read);
  util::Bytes buf(4096);
  EXPECT_EQ(f.pread(buf, 0), 4096u - 512u);
  EXPECT_EQ(*fi.record().shorn_from, 4096u - 512u);
}

TEST(FaultingFs, IoErrorThrowsOnWrite) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("IO_ERROR@pwrite"), 0, 1);
  EXPECT_THROW(vfs::write_file(fi, "/f", pattern_buffer(64)), vfs::VfsError);
  EXPECT_TRUE(fi.fired());
}

TEST(FaultingFs, IoErrorThrowsOnRead) {
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(64));
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("EIO@pread"), 0, 1);
  EXPECT_THROW((void)vfs::read_file(fi, "/f"), vfs::VfsError);
  // On-device data untouched.
  EXPECT_EQ(vfs::read_file(backing, "/f"), pattern_buffer(64));
}

TEST(FaultingFs, IoErrorSignatureRoundtrip) {
  const auto sig = faults::parse_fault_signature("IO_ERROR@mknod");
  EXPECT_EQ(sig.model, FaultModel::IoError);
  EXPECT_EQ(sig.to_string(), "IO_ERROR@mknod");
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(sig, 0, 1);
  EXPECT_THROW(fi.mknod("/n", 0644), vfs::VfsError);
  EXPECT_FALSE(backing.exists("/n"));
}

TEST(FaultingFs, SameSeedSameCorruption) {
  auto run_once = [](std::uint64_t seed) {
    vfs::MemFs backing;
    faults::FaultingFs fi(backing);
    fi.arm(faults::parse_fault_signature("BF"), 0, seed);
    vfs::write_file(fi, "/f", pattern_buffer(256));
    return vfs::read_file(backing, "/f");
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

// --- features_drawn ------------------------------------------------------------

/// Fires `sig` on the first execution of its primitive over a 4 KiB file
/// and a node, and returns the fired record.  Media models arm a device of
/// the signature's geometry, mounted after the file was written.
faults::InjectionRecord fire_once(const FaultSignature& sig) {
  vfs::MemFs backing;
  vfs::write_file(backing, "/f", pattern_buffer(4096));
  backing.mknod("/m", 0600);
  std::shared_ptr<vfs::BlockDevice> device;
  faults::FaultingFs fi(backing);
  if (faults::is_media_model(sig.model)) {
    device = std::make_shared<vfs::BlockDevice>(faults::media_device_options(sig));
    backing.set_media(device);
    device->arm(faults::media_arm_spec(sig, 0, 7));
  } else {
    fi.arm(sig, 0, 7);
  }
  try {
    util::Bytes buf(1024);
    switch (sig.primitive) {
      case Primitive::Pwrite:
        (void)vfs::File(fi, "/f", OpenMode::ReadWrite).pwrite(pattern_buffer(1024), 0);
        break;
      case Primitive::Pread:
        (void)vfs::File(fi, "/f", OpenMode::Read).pread(buf, 0);
        break;
      case Primitive::Mknod:
        fi.mknod("/n", 0644);
        break;
      case Primitive::Chmod:
        fi.chmod("/m", 0755);
        break;
      default:
        ADD_FAILURE() << "no driver for " << sig.to_string();
    }
  } catch (const vfs::VfsError&) {
    // IO_ERROR reports its fault; the record is still filled in.
  }
  EXPECT_TRUE(device ? device->fired() : fi.fired()) << sig.to_string();
  return device ? faults::media_injection_record(sig, *device) : fi.record();
}

bool fires_drawing_features(const std::string& signature) {
  return fire_once(faults::parse_fault_signature(signature)).features_drawn;
}

TEST(FaultingFs, FeaturesDrawnTableCoversEveryModel) {
  struct Case {
    const char* signature;
    bool drawn;
  };
  const Case cases[] = {
      {"BIT_FLIP@pwrite", true},
      {"BIT_FLIP@pread", true},
      {"BIT_FLIP@mknod", true},
      {"BIT_FLIP@chmod", true},
      {"SHORN_WRITE@pwrite", false},
      {"SHORN_WRITE@pwrite{tail=adjacent-data}", false},
      {"SHORN_WRITE@pwrite{tail=stale}", false},
      {"SHORN_WRITE@pwrite{tail=garbage}", true},
      {"SHORN_WRITE@pread", false},
      {"SHORN_WRITE@mknod", false},
      {"SHORN_WRITE@chmod", false},
      {"DROPPED_WRITE@pwrite", false},
      {"DROPPED_WRITE@pread", false},
      {"DROPPED_WRITE@mknod", false},
      {"DROPPED_WRITE@chmod", false},
      {"IO_ERROR@pwrite", false},
      {"IO_ERROR@pread", false},
      {"IO_ERROR@mknod", false},
      {"IO_ERROR@chmod", false},
      {"TORN_SECTOR@pwrite", true},
      {"LATENT_SECTOR_ERROR@pwrite", true},
      {"MISDIRECTED_WRITE@pwrite", true},
      {"BIT_ROT@pwrite", true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(fires_drawing_features(c.signature), c.drawn) << c.signature;
  }
}

TEST(FaultingFs, UnfiredFaultDrewNoFeatures) {
  vfs::MemFs backing;
  faults::FaultingFs fi(backing);
  fi.arm(faults::parse_fault_signature("BF"), 5, 7);
  vfs::write_file(fi, "/f", pattern_buffer(64));
  EXPECT_FALSE(fi.fired());
  EXPECT_FALSE(fi.record().features_drawn);
}

// --- FaultSignatureFuzz -------------------------------------------------------
//
// Signatures are untrusted input: they arrive in config files and in the
// plan text a coordinator sends its workers.  Every input must either throw
// std::invalid_argument or parse to a signature whose rendering is a fixed
// point of parse-then-render and that fires once on a small MemFs.

/// Returns whether `text` parsed.
bool expect_rejected_or_fires(const std::string& text) {
  FaultSignature sig;
  try {
    sig = faults::parse_fault_signature(text);
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << text << "' threw a non-invalid_argument: " << e.what();
    return false;
  }
  const std::string rendering = sig.to_string();
  try {
    const FaultSignature again = faults::parse_fault_signature(rendering);
    EXPECT_EQ(again.to_string(), rendering) << text;
    EXPECT_EQ(again.model, sig.model) << text;
    EXPECT_EQ(again.primitive, sig.primitive) << text;
    (void)fire_once(sig);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << text << "' parsed as '" << rendering << "' then threw: " << e.what();
  }
  return true;
}

/// Valid signatures the mutations start from: every model's default
/// rendering on each host primitive, plus non-default features.
std::vector<std::string> fuzz_corpus() {
  std::vector<std::string> corpus;
  for (const char* model : {"BF", "SW", "DW", "IE", "TS", "LSE", "MW", "BR"}) {
    for (const char* host : {"pwrite", "pread", "mknod", "chmod"}) {
      try {
        corpus.push_back(
            faults::parse_fault_signature(std::string(model) + "@" + host).to_string());
      } catch (const std::invalid_argument&) {
        // Media models host on pwrite only.
      }
    }
  }
  for (const char* text : {"BIT_FLIP@pwrite{width=4}",
                           "SHORN_WRITE@pread{completed=3/8,tail=stale,sector=4096,block=8192}",
                           "SHORN_WRITE@pwrite{completed=1,tail=garbage,sector=1,block=1}",
                           "BIT_ROT@pwrite{sector=4096,scrub=off,width=8}",
                           "TORN_SECTOR@pwrite{sector=4096,scrub=off}"}) {
    corpus.push_back(faults::parse_fault_signature(text).to_string());
  }
  return corpus;
}

constexpr const char* kFuzzKeys[] = {"width", "completed", "tail", "sector",
                                     "block", "scrub",     "bogus"};
constexpr const char* kFuzzValues[] = {
    "0",    "1",          "7",          "8",   "9",  "511",  "512",   "4095",
    "4096", "4294967295", "4294967296", "",    "junk", "-1", "7/8", "9/8",
    "0/8",  "on",         "off",        "garbage", "stale", "adjacent-data"};

TEST(FaultSignatureFuzz, EdgeValuesAtEveryFeature) {
  std::size_t parsed = 0;
  for (const char* model : {"BF", "SW", "DW", "IE", "TS", "LSE", "MW", "BR"}) {
    for (const char* host : {"pwrite", "pread", "mknod", "chmod"}) {
      for (const char* key : kFuzzKeys) {
        for (const char* value : kFuzzValues) {
          parsed += expect_rejected_or_fires(util::fmt("{}@{}", model, host) + "{" + key + "=" +
                                             value + "}");
        }
      }
    }
  }
  EXPECT_GT(parsed, 0u);  // the edge values include valid ones for every key
}

TEST(FaultSignatureFuzz, MutatedSignaturesParseOrThrow) {
  // Byte flips, truncations, edge values in place of a feature's value and
  // spliced key=value items applied to valid signatures; each input's seed
  // is traced.
  const std::vector<std::string> corpus = fuzz_corpus();
  constexpr std::uint64_t kInputs = 20000;
  std::uint64_t parsed = 0;
  for (std::uint64_t seed = 1; seed <= kInputs; ++seed) {
    util::Rng rng(seed);
    std::string text = corpus[rng.uniform(corpus.size())];
    const std::uint64_t edits = 1 + rng.uniform(2);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform(text.size() + 1);
      const char* value = kFuzzValues[rng.uniform(std::size(kFuzzValues))];
      switch (rng.uniform(5)) {
        case 0:  // byte flip
          if (pos < text.size()) text[pos] = static_cast<char>(rng() & 0xff);
          break;
        case 1:  // truncation
          text.resize(pos);
          break;
        case 2: {  // an existing feature's value replaced by an edge value
          const std::size_t eq = text.find('=', pos);
          if (eq == std::string::npos) break;
          const std::size_t end = std::min(text.find_first_of(",}", eq), text.size());
          text.replace(eq + 1, end - eq - 1, value);
          break;
        }
        case 3: {  // a spliced item before the closing brace
          const std::string item =
              std::string(kFuzzKeys[rng.uniform(std::size(kFuzzKeys))]) + "=" + value;
          if (text.size() >= 2 && text.back() == '}') {
            text.insert(text.size() - 1, (text[text.size() - 2] == '{' ? "" : ",") + item);
          } else {
            text += "{" + item + "}";
          }
          break;
        }
        default:  // a structural character at a random position
          text.insert(pos, 1, "@{}=,/"[rng.uniform(6)]);
          break;
      }
    }
    SCOPED_TRACE(util::fmt("seed {} input '{}'", seed, text));
    parsed += expect_rejected_or_fires(text);
  }
  // Both outcomes occur, so the inputs probe the parser and the firing.
  EXPECT_GT(parsed, kInputs / 20);
  EXPECT_LT(parsed, kInputs - kInputs / 20);
}

// --- WriteObserver -----------------------------------------------------------

std::uint64_t unobserved_count(const faults::WriteSites& sites) {
  return static_cast<std::uint64_t>(std::count_if(
      sites.sites.begin(), sites.sites.end(), [](const auto& s) { return !s.observed(); }));
}

/// A WriteObserver over an unarmed BIT_FLIP@pwrite FaultingFs on a MemFs:
/// every pwrite through `fs` is an instance, in call order.
struct ObservedFs {
  vfs::MemFs backing;
  faults::FaultingFs instrument{backing};
  faults::WriteObserver fs{instrument};

  ObservedFs() { instrument.configure(faults::parse_fault_signature("BF")); }

  void write(vfs::FileHandle fh, std::uint64_t offset, std::size_t length) {
    const util::Bytes data(length, std::byte{0x5a});
    ASSERT_EQ(fs.pwrite(fh, data, offset), length);
  }
  void read(vfs::FileHandle fh, std::uint64_t offset, std::size_t length) {
    util::Bytes buf(length);
    (void)fs.pread(fh, buf, offset);
  }
  [[nodiscard]] bool observed(std::uint64_t instance) const {
    EXPECT_LT(instance, fs.sites().sites.size());
    return instance >= fs.sites().sites.size() || fs.sites().sites[instance].observed();
  }
};

TEST(WriteObserver, RecordsEachInstanceSite) {
  ObservedFs o;
  const auto fh = o.fs.open("//data/", vfs::OpenMode::Write);
  o.write(fh, 0, 16);
  o.write(fh, 16, 8);
  o.write(fh, 8, 0);  // empty: nothing to synthesize, so it counts as observed
  const faults::WriteSites& sites = o.fs.sites();
  ASSERT_EQ(sites.sites.size(), 3u);
  EXPECT_TRUE(o.observed(2));
  EXPECT_EQ(sites.paths.at(sites.sites[1].file), "/data");  // normalized
  EXPECT_EQ(sites.sites[1].offset, 16u);
  EXPECT_EQ(sites.sites[1].length, 8u);
  EXPECT_EQ(unobserved_count(sites), 2u);
  EXPECT_EQ(o.instrument.executions(), 3u);
}

TEST(WriteObserver, OverlappingReadThroughTheSameHandleObserves) {
  ObservedFs o;
  const auto fh = o.fs.open("/f", vfs::OpenMode::ReadWrite);
  o.write(fh, 0, 16);
  o.write(fh, 16, 16);
  o.read(fh, 20, 4);
  EXPECT_FALSE(o.observed(0));
  EXPECT_TRUE(o.observed(1));
}

TEST(WriteObserver, OverlappingReadThroughAReopenedHandleObserves) {
  ObservedFs o;
  auto fh = o.fs.open("/f", vfs::OpenMode::Write);
  o.write(fh, 0, 16);
  o.fs.close(fh);
  fh = o.fs.open("/f", vfs::OpenMode::Read);
  o.read(fh, 15, 1);  // the write's last byte
  EXPECT_TRUE(o.observed(0));
}

TEST(WriteObserver, NonOverlappingReadDoesNotObserve) {
  ObservedFs o;
  const auto f = o.fs.open("/f", vfs::OpenMode::ReadWrite);
  const auto g = o.fs.open("/g", vfs::OpenMode::ReadWrite);
  o.write(f, 8, 8);
  o.write(g, 0, 32);
  o.read(f, 0, 8);    // ends where the write starts
  o.read(f, 16, 16);  // starts where it ends (past EOF)
  o.read(g, 8, 8);    // the same range of another file
  EXPECT_FALSE(o.observed(0));
  EXPECT_TRUE(o.observed(1));
}

TEST(WriteObserver, ReadBeforeTheInstanceDoesNotObserveIt) {
  ObservedFs o;
  const auto fh = o.fs.open("/f", vfs::OpenMode::ReadWrite);
  o.write(fh, 0, 16);
  o.read(fh, 0, 16);
  o.write(fh, 0, 16);  // rewrites the range after it was read
  EXPECT_TRUE(o.observed(0));
  EXPECT_FALSE(o.observed(1));
}

TEST(WriteObserver, LaterOverlappingWriteObserves) {
  ObservedFs o;
  const auto fh = o.fs.open("/f", vfs::OpenMode::ReadWrite);
  o.write(fh, 0, 16);
  o.write(fh, 32, 16);
  o.write(fh, 8, 16);  // overlaps instance 0 only
  EXPECT_TRUE(o.observed(0));
  EXPECT_FALSE(o.observed(1));
  EXPECT_FALSE(o.observed(2));
  // An uncounted write (instrumentation gated off) observes just the same.
  o.instrument.set_enabled(false);
  o.write(fh, 47, 1);
  EXPECT_TRUE(o.observed(1));
  EXPECT_EQ(o.fs.sites().sites.size(), 3u);
}

TEST(WriteObserver, TruncateAndFtruncateObserveTheRangeTheyCut) {
  ObservedFs o;
  const auto fh = o.fs.open("/f", vfs::OpenMode::ReadWrite);
  o.write(fh, 0, 16);
  o.write(fh, 16, 16);
  o.fs.truncate("/f", 64);  // growing cuts nothing
  EXPECT_FALSE(o.observed(0));
  EXPECT_FALSE(o.observed(1));
  o.fs.truncate("/f", 20);
  EXPECT_FALSE(o.observed(0));
  EXPECT_TRUE(o.observed(1));
  o.fs.ftruncate(fh, 8);
  EXPECT_TRUE(o.observed(0));
}

TEST(WriteObserver, TruncatingOpenObserves) {
  ObservedFs o;
  auto fh = o.fs.open("/f", vfs::OpenMode::Write);
  o.write(fh, 0, 16);
  o.fs.close(fh);
  fh = o.fs.open("/f", vfs::OpenMode::ReadWrite);  // no truncation
  EXPECT_FALSE(o.observed(0));
  o.fs.close(fh);
  (void)o.fs.open("/f", vfs::OpenMode::Write);
  EXPECT_TRUE(o.observed(0));
}

TEST(WriteObserver, UnlinkObservesAndOrphansOpenHandles) {
  ObservedFs o;
  const auto fh = o.fs.open("/f", vfs::OpenMode::Write);
  o.write(fh, 0, 16);
  o.fs.unlink("/f");
  EXPECT_TRUE(o.observed(0));
  // A write through the still-open handle lands in no path of the tree.
  o.write(fh, 32, 16);
  EXPECT_TRUE(o.observed(1));
  // A new file at the same path is a new site.
  const auto again = o.fs.open("/f", vfs::OpenMode::Write);
  o.write(again, 0, 16);
  EXPECT_FALSE(o.observed(2));
}

TEST(WriteObserver, RenameObservesSourceAndTarget) {
  ObservedFs o;
  const auto a = o.fs.open("/a", vfs::OpenMode::Write);
  const auto b = o.fs.open("/b", vfs::OpenMode::Write);
  const auto c = o.fs.open("/c", vfs::OpenMode::Write);
  o.write(a, 0, 16);
  o.write(b, 0, 16);
  o.write(c, 0, 16);
  o.fs.rename("/a", "/moved");  // source
  EXPECT_TRUE(o.observed(0));
  o.fs.rename("/c", "/b");  // target replaced, source moved
  EXPECT_TRUE(o.observed(1));
  EXPECT_TRUE(o.observed(2));
  // Handles follow their file: a's writes now land in /moved, while the
  // handle on the replaced /b writes into no path.
  o.write(a, 32, 16);
  o.write(b, 32, 16);
  const faults::WriteSites& sites = o.fs.sites();
  EXPECT_FALSE(o.observed(3));
  EXPECT_EQ(sites.paths.at(sites.sites[3].file), "/moved");
  EXPECT_TRUE(o.observed(4));
}

TEST(WriteObserver, DirectoryRenameMovesEveryFileBelow) {
  ObservedFs o;
  o.fs.mkdir("/dir");
  const auto fh = o.fs.open("/dir/x", vfs::OpenMode::Write);
  const auto other = o.fs.open("/dirty", vfs::OpenMode::Write);
  o.write(fh, 0, 16);
  o.write(other, 0, 16);
  o.fs.rename("/dir", "/dir2");
  EXPECT_TRUE(o.observed(0));
  EXPECT_FALSE(o.observed(1));  // a sibling sharing the name prefix
  o.write(fh, 16, 16);
  const faults::WriteSites& sites = o.fs.sites();
  EXPECT_EQ(sites.paths.at(sites.sites[2].file), "/dir2/x");
}

TEST(WriteObserver, RecordsTheStageOpenAtTheFirstObservation) {
  ObservedFs o;
  const auto fh = o.fs.open("/data", vfs::OpenMode::Write);
  o.write(fh, 0, 8);
  o.write(fh, 8, 8);
  o.write(fh, 16, 8);
  o.write(fh, 24, 8);
  o.read(fh, 0, 4);  // no stage open
  o.fs.set_stage(2);
  o.read(fh, 8, 4);
  o.fs.set_stage(3);
  o.read(fh, 8, 16);  // only instance 2 is new
  o.fs.set_stage(0);
  const auto& sites = o.fs.sites().sites;
  EXPECT_EQ(sites[0].observed_in, 0);
  EXPECT_EQ(sites[1].observed_in, 2);
  EXPECT_EQ(sites[2].observed_in, 3);
  EXPECT_EQ(sites[3].observed_in, faults::WriteSite::kUnobserved);
  EXPECT_FALSE(sites[3].observed());
}

TEST(WriteObserver, SynthesizableSignatures) {
  for (const char* text :
       {"BF", "BIT_FLIP@pwrite{width=4}", "SHORN_WRITE@pwrite{tail=garbage}", "SW",
        "SHORN_WRITE@pwrite{tail=adjacent-data,completed=8}"}) {
    EXPECT_TRUE(faults::is_synthesizable(faults::parse_fault_signature(text))) << text;
  }
  for (const char* text : {"SHORN_WRITE@pwrite{tail=stale}", "DW", "IO_ERROR@pwrite",
                           "BIT_FLIP@pread", "BIT_FLIP@mknod", "TORN_SECTOR@pwrite", "LSE",
                           "MW", "BIT_ROT@pwrite"}) {
    EXPECT_FALSE(faults::is_synthesizable(faults::parse_fault_signature(text))) << text;
  }
}

using StageCounts = std::map<int, std::uint64_t>;
constexpr int kNone = faults::WriteSite::kUnobserved;

/// The instances of a BIT_FLIP@pwrite profile of `app` at `stage` by the
/// stage that first observes them (kNone: nothing does), with the app seed
/// a seed-42 plan cell uses.
StageCounts observing_stages(const core::Application& app, int stage) {
  const auto profile = core::IoProfiler::profile(app, faults::parse_fault_signature("BF"),
                                                 42 ^ 0x5eedULL, stage);
  EXPECT_EQ(profile.sites.sites.size(), profile.primitive_count);
  StageCounts out;
  for (const auto& site : profile.sites.sites) ++out[site.observed_in];
  return out;
}

TEST(WriteObserver, PinsTheBenchmarkConfigurations) {
  montage::MontageConfig dense;  // bench/suite's dense 6x3 mosaic
  dense.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  dense.scene.tile_y0 = {0, 24, 48};
  const montage::MontageApp montage(dense);
  // mAdd reads every corrected tile back, in stage 4 (so every stage-3 run
  // resumes late); stage 4 writes the area map, the uncorrected mosaic, the
  // preview and the statistics after its re-read, and re-reads the rest
  // within stage 4 itself (those runs execute).
  EXPECT_EQ(observing_stages(montage, 3), (StageCounts{{4, 144}}));
  EXPECT_EQ(observing_stages(montage, 4), (StageCounts{{kNone, 36}, {4, 17}}));
  EXPECT_EQ(observing_stages(qmc::QmcApp(), 2), (StageCounts{{kNone, 25}}));
  nyx::NyxConfig nyx80;
  nyx80.field.n = 80;
  nyx80.timesteps = 2;
  EXPECT_EQ(observing_stages(nyx::NyxApp(nyx80), 2), (StageCounts{{kNone, 4}}));
  nyx::NyxConfig nyx96;
  nyx96.field.n = 96;
  nyx96.timesteps = 3;
  EXPECT_EQ(observing_stages(nyx::NyxApp(nyx96), 3), (StageCounts{{kNone, 5}}));
  // Signatures synthesis cannot use keep no table.
  const auto dropped =
      core::IoProfiler::profile(qmc::QmcApp(), faults::parse_fault_signature("DW"), 1, 2);
  EXPECT_TRUE(dropped.sites.sites.empty());
  EXPECT_TRUE(dropped.stage_entry_stats.empty());
}

}  // namespace
