#include "ffis/faults/fault_signature.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>

#include "ffis/util/strfmt.hpp"

namespace ffis::faults {

namespace {

using Value = const std::string&;

[[noreturn]] void bad_value(std::string_view key, Value value, std::string_view needs) {
  throw std::invalid_argument(
      util::fmt("fault signature: feature '{}' {}, got '{}'", key, needs, value));
}

/// Strict unsigned parse of a feature value in lo..hi; the error names the
/// offending key and token.
std::uint32_t parse_u32(std::string_view key, Value value, std::uint32_t lo = 0,
                        std::uint32_t hi = 0xFFFFFFFFu) {
  const auto parsed = util::parse_u64(value);
  if (!parsed) bad_value(key, value, "needs an unsigned integer");
  if (*parsed < lo || *parsed > hi) bad_value(key, value, util::fmt("must be in {}..{}", lo, hi));
  return static_cast<std::uint32_t>(*parsed);
}

/// Accepts "7" or the paper's "7/8" rendering.
std::uint32_t parse_completed(Value value) {
  const auto slash = value.find('/');
  const std::uint32_t eighths = parse_u32("completed", value.substr(0, slash));
  if ((slash != std::string::npos && value.substr(slash) != "/8") || eighths == 0 ||
      eighths > 8) {
    bad_value("completed", value, "must be N or N/8 with N in 1..8");
  }
  return eighths;
}

ShornTail parse_tail(Value value) {
  for (const ShornTail t : {ShornTail::AdjacentData, ShornTail::Garbage, ShornTail::Stale}) {
    if (value == shorn_tail_name(t)) return t;
  }
  bad_value("tail", value, "must be adjacent-data, garbage or stale");
}

std::uint32_t parse_media_sector(Value value) {
  const std::uint32_t sector = parse_u32("sector", value, 512, 4096);
  if (sector != 512 && sector != 4096) bad_value("sector", value, "must be 512 or 4096");
  return sector;
}

bool parse_scrub(Value value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  bad_value("scrub", value, "must be on/off");
}

/// One `key=value` feature: the FaultSignature field it sets, its value
/// parser (which checks the range) and its rendering.
struct Feature {
  std::string_view key;
  void (*parse)(FaultSignature& sig, Value value);
  std::string (*render)(const FaultSignature& sig);
};

constexpr Feature kFlipWidth{
    "width", [](FaultSignature& s, Value v) { s.bit_flip.width = parse_u32("width", v); },
    [](const FaultSignature& s) { return std::to_string(s.bit_flip.width); }};
constexpr Feature kCompleted{
    "completed", [](FaultSignature& s, Value v) { s.shorn.completed_eighths = parse_completed(v); },
    [](const FaultSignature& s) { return util::fmt("{}/8", s.shorn.completed_eighths); }};
constexpr Feature kTail{
    "tail", [](FaultSignature& s, Value v) { s.shorn.tail = parse_tail(v); },
    [](const FaultSignature& s) { return std::string(shorn_tail_name(s.shorn.tail)); }};
// A shorn write divides by its sector and steps by its block: neither may
// be 0.
constexpr Feature kShornSector{
    "sector", [](FaultSignature& s, Value v) { s.shorn.sector_bytes = parse_u32("sector", v, 1); },
    [](const FaultSignature& s) { return std::to_string(s.shorn.sector_bytes); }};
constexpr Feature kBlock{
    "block", [](FaultSignature& s, Value v) { s.shorn.block_bytes = parse_u32("block", v, 1); },
    [](const FaultSignature& s) { return std::to_string(s.shorn.block_bytes); }};
constexpr Feature kMediaSector{
    "sector", [](FaultSignature& s, Value v) { s.media.sector_bytes = parse_media_sector(v); },
    [](const FaultSignature& s) { return std::to_string(s.media.sector_bytes); }};
constexpr Feature kScrub{
    "scrub", [](FaultSignature& s, Value v) { s.media.scrub_on_read = parse_scrub(v); },
    [](const FaultSignature& s) { return std::string(s.media.scrub_on_read ? "on" : "off"); }};
constexpr Feature kRotWidth{
    "width", [](FaultSignature& s, Value v) { s.media.width = parse_u32("width", v); },
    [](const FaultSignature& s) { return std::to_string(s.media.width); }};

// Each model's feature keys, in render order (README's "parameters"
// column).  A key outside its model's list is rejected.  One key may name
// different fields: `sector` is a shorn write's granularity but a media
// model's sector grid; `width` counts flipped (BIT_FLIP) or decayed
// (BIT_ROT) bits.
constexpr const Feature* kBitFlipKeys[] = {&kFlipWidth};
constexpr const Feature* kShornKeys[] = {&kCompleted, &kTail, &kShornSector, &kBlock};
constexpr const Feature* kMediaKeys[] = {&kMediaSector, &kScrub};
constexpr const Feature* kBitRotKeys[] = {&kMediaSector, &kScrub, &kRotWidth};

/// One row of the model table.
struct ModelRow {
  FaultModel model;
  std::string_view name;        ///< canonical; what signatures render
  std::string_view short_name;  ///< e.g. "BF"
  std::string_view alias;       ///< e.g. "bitflip"
  /// The BlockDevice fault hosting a media-level model; empty for the
  /// syscall-level models FaultingFs hosts.
  std::optional<vfs::MediaFault> media;
  std::span<const Feature* const> features;
};

constexpr ModelRow kModels[] = {
    {FaultModel::BitFlip, "BIT_FLIP", "BF", "bitflip", std::nullopt, kBitFlipKeys},
    {FaultModel::ShornWrite, "SHORN_WRITE", "SW", "shorn", std::nullopt, kShornKeys},
    {FaultModel::DroppedWrite, "DROPPED_WRITE", "DW", "dropped", std::nullopt, {}},
    {FaultModel::IoError, "IO_ERROR", "IE", "EIO", std::nullopt, {}},
    {FaultModel::TornSector, "TORN_SECTOR", "TS", "torn", vfs::MediaFault::TornSector,
     kMediaKeys},
    {FaultModel::LatentSectorError, "LATENT_SECTOR_ERROR", "LSE", "lse",
     vfs::MediaFault::LatentSectorError, kMediaKeys},
    {FaultModel::MisdirectedWrite, "MISDIRECTED_WRITE", "MW", "misdirected",
     vfs::MediaFault::MisdirectedWrite, kMediaKeys},
    {FaultModel::BitRot, "BIT_ROT", "BR", "bitrot", vfs::MediaFault::BitRot, kBitRotKeys},
};

constexpr bool rows_follow_the_enum() {
  for (std::size_t i = 0; i < std::size(kModels); ++i) {
    if (kModels[i].model != static_cast<FaultModel>(i)) return false;
  }
  return std::size(kModels) == static_cast<std::size_t>(FaultModel::kCount);
}
static_assert(rows_follow_the_enum(), "one kModels row per FaultModel, in enum order");

const ModelRow& row_of(FaultModel m) noexcept { return kModels[static_cast<std::size_t>(m)]; }

}  // namespace

std::string_view fault_model_name(FaultModel m) noexcept { return row_of(m).name; }

FaultModel parse_fault_model(std::string_view name) {
  for (const ModelRow& row : kModels) {
    if (name == row.name || name == row.short_name || name == row.alias) return row.model;
  }
  throw std::invalid_argument("unknown fault model: " + std::string(name));
}

bool is_media_model(FaultModel m) noexcept { return row_of(m).media.has_value(); }

vfs::MediaFault media_fault_kind(FaultModel m) {
  if (const auto& media = row_of(m).media) return *media;
  throw std::invalid_argument(std::string(fault_model_name(m)) +
                              " is not a media-level fault model");
}

std::string FaultSignature::to_string() const {
  // Built by concatenation: util::fmt has no escape for literal braces.
  std::string out(fault_model_name(model));
  out += '@';
  out += vfs::primitive_name(primitive);
  const auto features = row_of(model).features;
  for (std::size_t i = 0; i < features.size(); ++i) {
    out += i == 0 ? '{' : ',';
    out += features[i]->key;
    out += '=';
    out += features[i]->render(*this);
  }
  if (!features.empty()) out += '}';
  return out;
}

FaultSignature parse_fault_signature(const std::string& text) {
  // MODEL[@primitive[{key=value,...}]]
  FaultSignature sig;
  const auto at = text.find('@');
  sig.model = parse_fault_model(text.substr(0, at));
  std::string primitive = at == std::string::npos ? "" : text.substr(at + 1);
  std::string items;
  if (const auto brace = primitive.find('{'); brace != std::string::npos) {
    if (primitive.back() != '}') throw std::invalid_argument("unterminated feature list: " + text);
    items = primitive.substr(brace + 1, primitive.size() - brace - 2);
    primitive.resize(brace);
  }
  if (!primitive.empty()) {
    try {
      sig.primitive = vfs::parse_primitive(primitive);
    } catch (const vfs::VfsError& e) {
      throw std::invalid_argument(e.what());
    }
  }

  const auto features = row_of(sig.model).features;
  for (std::size_t pos = 0; pos < items.size();) {
    const std::size_t end = std::min(items.find(',', pos), items.size());
    const std::string item = items.substr(pos, end - pos);
    pos = end + 1;
    const auto eq = item.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("bad feature item: " + item);
    const std::string key = item.substr(0, eq);
    const auto feature = std::find_if(features.begin(), features.end(),
                                      [&](const Feature* f) { return f->key == key; });
    if (feature == features.end()) {
      throw std::invalid_argument(
          util::fmt("unknown feature key: {} for {}", key, fault_model_name(sig.model)));
    }
    (*feature)->parse(sig, item.substr(eq + 1));
  }

  // FaultingFs intercepts these four primitives; the block device sits
  // beneath the data write path only.
  using vfs::Primitive;
  const bool media = is_media_model(sig.model);
  const Primitive p = sig.primitive;
  if (p != Primitive::Pwrite &&
      (media || (p != Primitive::Pread && p != Primitive::Mknod && p != Primitive::Chmod))) {
    throw std::invalid_argument(util::fmt(
        "fault signature: {}-level model {} must host on {}, got '{}'",
        media ? "media" : "syscall", fault_model_name(sig.model),
        media ? "pwrite" : "pwrite, pread, mknod or chmod", vfs::primitive_name(p)));
  }
  return sig;
}

}  // namespace ffis::faults
