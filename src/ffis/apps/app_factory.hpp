#pragma once
// Application factory: builds a characterized application from a campaign
// configuration ("application = nyx|qmc|montage" plus app-specific knobs in
// the config's extra section).  This is what gives FFIS its uniform,
// recompile-free interface over different applications (requirement R2).

#include <memory>

#include "ffis/core/application.hpp"
#include "ffis/faults/fault_generator.hpp"

namespace ffis::apps {

/// Recognized extra keys:
///   nyx:      grid (n, default 64), halos, average_value_detector (0/1)
///   qmc:      dmc_steps, vmc_steps, walkers
///   montage:  tile_size
/// Throws std::invalid_argument for unknown applications, or for an extra
/// that is not a plain decimal number (naming the key and the value).
[[nodiscard]] std::unique_ptr<core::Application> make_application(
    const faults::CampaignConfig& config);

}  // namespace ffis::apps
