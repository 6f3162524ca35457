#include "ffis/apps/app_factory.hpp"

#include <stdexcept>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::apps {

namespace {

std::uint64_t extra_int(const faults::CampaignConfig& config, const std::string& key,
                        std::uint64_t fallback) {
  const auto it = config.extra.find(key);
  if (it == config.extra.end()) return fallback;
  const auto parsed = util::parse_u64(it->second);
  if (!parsed) {
    throw std::invalid_argument(config.application + " " + key +
                                " must be a non-negative integer, got '" + it->second + "'");
  }
  return *parsed;
}

}  // namespace

std::unique_ptr<core::Application> make_application(const faults::CampaignConfig& config) {
  const std::string& name = config.application;
  if (name == "nyx") {
    nyx::NyxConfig app_config;
    app_config.field.n = static_cast<std::size_t>(extra_int(config, "grid", 64));
    app_config.field.halo_count = static_cast<std::size_t>(extra_int(config, "halos", 30));
    app_config.use_average_value_detector =
        extra_int(config, "average_value_detector", 0) != 0;
    app_config.timesteps = static_cast<int>(extra_int(config, "timesteps", 1));
    return std::make_unique<nyx::NyxApp>(app_config);
  }
  if (name == "qmc" || name == "qmcpack") {
    qmc::QmcAppConfig app_config;
    app_config.dmc.steps = extra_int(config, "dmc_steps", app_config.dmc.steps);
    app_config.vmc.steps = extra_int(config, "vmc_steps", app_config.vmc.steps);
    const auto walkers = extra_int(config, "walkers", app_config.dmc.target_walkers);
    app_config.dmc.target_walkers = walkers;
    app_config.vmc.walkers = walkers;
    return std::make_unique<qmc::QmcApp>(app_config);
  }
  if (name == "montage") {
    montage::MontageConfig app_config;
    app_config.scene.tile_size =
        static_cast<std::size_t>(extra_int(config, "tile_size", app_config.scene.tile_size));
    return std::make_unique<montage::MontageApp>(app_config);
  }
  throw std::invalid_argument("unknown application: " + name +
                              " (expected nyx | qmc | montage)");
}

}  // namespace ffis::apps
