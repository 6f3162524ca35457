#include "ffis/faults/fault_generator.hpp"

#include "ffis/util/rng.hpp"

namespace ffis::faults {

FaultGenerator::FaultGenerator(CampaignConfig config)
    : config_(std::move(config)), signature_(parse_fault_signature(config_.fault)) {}

std::uint64_t run_seed(std::uint64_t campaign_seed, std::uint64_t run_index) noexcept {
  // Derive decorrelated per-run seeds from the campaign seed.
  std::uint64_t s = campaign_seed ^ (run_index * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
  return util::splitmix64(s);
}

}  // namespace ffis::faults
