// Nyx demo: cosmology plotfile, halo finder, a targeted Exponent-Bias
// metadata fault, and the paper's average-value-based detection/correction.
//
// Reproduces the §V-A narrative: a faulty Exponent Bias scales the whole
// baryon-density field by a power of two, the halo masses scale with it
// (silent corruption!), and the HDF5 doctor detects the power-of-two mean
// and rescales the bias back.

#include <cstdio>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/vfs/mem_fs.hpp"

using namespace ffis;

int main() {
  nyx::NyxConfig config;
  config.field.n = 32;  // small grid for a snappy demo
  nyx::NyxApp app(config);

  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto golden = app.analyze(fs);
  std::printf("golden run: %zu halos, mean density %.9f\n",
              static_cast<std::size_t>(golden.metric("halo_count")),
              golden.metric("mean_density"));

  // Plan the metadata layout (structural, no data needed) and corrupt the
  // Exponent Bias by -5: every decoded value scales by 2^5 = 32.
  const h5::WriteInfo layout = nyx::plan_plotfile_layout(config.field.n, config.h5_options);
  const std::string bias_field =
      "objectHeader[baryon_density].dataType.floatProperty.exponentBias";
  analysis::add_field_delta(fs, config.plotfile_path, layout.field_map, bias_field, -5);

  const auto faulty = app.analyze(fs);
  std::printf("after fault: %zu halos, mean density %.3f (scaled x%.0f!)\n",
              static_cast<std::size_t>(faulty.metric("halo_count")),
              faulty.metric("mean_density"),
              faulty.metric("mean_density") / golden.metric("mean_density"));
  const core::Outcome outcome = core::classify_outcome(app, golden, faulty);
  std::printf("classification: %s\n", std::string(core::outcome_name(outcome)).c_str());

  // The doctor spots the power-of-two mean and repairs the bias.
  analysis::Hdf5Doctor doctor(layout, nyx::kDensityDatasetName);
  const auto diagnosis = doctor.diagnose(fs, config.plotfile_path);
  std::printf("doctor: %s — %s\n",
              std::string(analysis::faulty_field_name(diagnosis.field)).c_str(),
              diagnosis.description.c_str());
  doctor.correct(fs, config.plotfile_path, diagnosis);

  const auto repaired = app.analyze(fs);
  std::printf("after correction: %zu halos, mean density %.9f — %s\n",
              static_cast<std::size_t>(repaired.metric("halo_count")),
              repaired.metric("mean_density"),
              repaired.comparison_blob == golden.comparison_blob
                  ? "identical to golden output"
                  : "still corrupted");
  return 0;
}
