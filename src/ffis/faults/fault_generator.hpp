#pragma once
// Fault generator: the first stage of the FFIS workflow (paper Figure 4).
// Reads a user configuration and produces the fault signature handed to the
// I/O profiler and fault injector.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ffis/faults/fault_signature.hpp"

namespace ffis::faults {

/// User configuration for one fault-injection campaign.  Parsed from simple
/// "key = value" text (exp::parse_campaign_config), so campaigns are
/// scriptable without recompiling — the "uniform interface" requirement R2.
struct CampaignConfig {
  std::string application = "nyx";   ///< nyx | qmc | montage
  std::string fault = "BIT_FLIP";    ///< fault signature text (see parse_fault_signature)
  std::uint64_t runs = 1000;         ///< paper default: 1000 per cell
  std::uint64_t seed = 0xff15;       ///< campaign base seed
  int stage = -1;                    ///< Montage stage (1..4), -1 = whole run
  std::map<std::string, std::string> extra;  ///< application-specific knobs
};

/// Seed of run `run_index` of a campaign seeded by `campaign_seed`: an
/// independent stream per injection run.
[[nodiscard]] std::uint64_t run_seed(std::uint64_t campaign_seed,
                                     std::uint64_t run_index) noexcept;

class FaultGenerator {
 public:
  explicit FaultGenerator(CampaignConfig config);

  /// The signature every run of this campaign uses.
  [[nodiscard]] const FaultSignature& signature() const noexcept { return signature_; }
  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }

  /// faults::run_seed over the campaign seed.
  [[nodiscard]] std::uint64_t run_seed(std::uint64_t run_index) const noexcept {
    return faults::run_seed(config_.seed, run_index);
  }

 private:
  CampaignConfig config_;
  FaultSignature signature_;
};

}  // namespace ffis::faults
