#include "ffis/faults/fault_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace ffis::faults {

std::string_view shorn_tail_name(ShornTail t) noexcept {
  constexpr std::string_view kNames[] = {"adjacent-data", "garbage", "stale"};
  return kNames[static_cast<std::size_t>(t)];
}

WriteMutation apply_bit_flip(const BitFlipSpec& spec, util::Rng& rng, util::ByteSpan buf) {
  WriteMutation out;
  out.data.assign(buf.begin(), buf.end());
  if (buf.empty() || spec.width == 0) return out;
  const std::size_t total_bits = buf.size() * 8;
  const std::size_t bit = rng.uniform(total_bits);
  util::flip_bits(out.data, bit, spec.width);
  out.flipped_bit = bit;
  return out;
}

WriteMutation apply_shorn_write(const ShornSpec& spec, util::Rng& rng, util::ByteSpan buf) {
  if (spec.completed_eighths == 0 || spec.completed_eighths > 8) {
    throw std::invalid_argument("ShornSpec.completed_eighths must be in 1..8");
  }
  WriteMutation out;
  out.data.assign(buf.begin(), buf.end());
  if (buf.empty() || spec.completed_eighths == 8) return out;

  // Sector-align the shorn boundary inside each block, as a real device
  // completes whole 512 B sectors before failing.
  const auto shorn_point_of = [&](std::size_t block_len) -> std::size_t {
    std::size_t keep = block_len * spec.completed_eighths / 8;
    keep -= keep % spec.sector_bytes;
    return keep;
  };

  bool any_shorn = false;
  for (std::size_t base = 0; base < buf.size(); base += spec.block_bytes) {
    const std::size_t block_len = std::min<std::size_t>(spec.block_bytes, buf.size() - base);
    const std::size_t keep = shorn_point_of(block_len);
    if (keep >= block_len) continue;  // short final block may complete fully
    const std::size_t lost = block_len - keep;
    const std::size_t from = base + keep;
    if (!any_shorn) {
      out.shorn_from = from;
      any_shorn = true;
    }
    util::MutableByteSpan tail(out.data.data() + from, lost);
    switch (spec.tail) {
      case ShornTail::AdjacentData: {
        // Bytes past the shrunk buffer land on adjacent memory: model it as
        // the region immediately preceding the shorn point (wrapping within
        // the data written so far when the prefix is shorter than the tail).
        if (from == 0) {
          // Nothing precedes the tail; fall back to zeros.
          std::fill(tail.begin(), tail.end(), std::byte{0});
          break;
        }
        for (std::size_t i = 0; i < lost; ++i) {
          const std::size_t src = (from >= lost) ? (from - lost + i) : (i % from);
          tail[i] = out.data[src];
        }
        break;
      }
      case ShornTail::Garbage: {
        for (auto& b : tail) b = static_cast<std::byte>(rng() & 0xff);
        break;
      }
      case ShornTail::Stale: {
        // Forward only the kept prefix; the device retains its previous tail
        // bytes.  Only meaningful for the first shorn block — everything from
        // the first shorn byte onward is withheld.
        out.forward_only = out.forward_only ? std::min(*out.forward_only, from) : from;
        break;
      }
    }
  }
  return out;
}

WriteMutation apply_dropped_write() noexcept {
  WriteMutation out;
  out.dropped = true;
  return out;
}

}  // namespace ffis::faults
