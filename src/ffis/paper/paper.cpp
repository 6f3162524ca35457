#include "ffis/paper/paper.hpp"

#include <algorithm>

#include "ffis/util/env.hpp"

namespace ffis::paper {

namespace {

template <auto Compute, auto Print>
void compute_and_print(const Options& options, std::FILE* out) {
  Print(Compute(options), out);
}

/// Sample sizes default to a few hundred runs per cell so every artifact
/// finishes in seconds; FFIS_RUNS=1000 reproduces the paper's sample size
/// (1-2 % error bars at 95 % confidence).
constexpr Options kSmallerCampaign{.runs = 120};

const Artifact kArtifacts[] = {
    {"table1_fault_models", "Table I: fault models supported by FFIS",
     "paper Table I (affected FUSE primitives + model features)", {},
     compute_and_print<table1_fault_models, print_table1_fault_models>},
    {"table2_applications", "Table II: description of tested HPC applications",
     "paper Table II (domain, package size, method)", {},
     compute_and_print<table2_applications, print_table2_applications>},
    {"table3_metadata", "Table III: output classification of faulty HDF5 metadata",
     "paper Table III (SDC 0.2%, Benign 85.7%, Crash 14.1% of 2432 cases)", {},
     compute_and_print<table3_metadata, print_table3_metadata>},
    {"table4_sdc_fields", "Table IV: Nyx post-analysis under SDC-causing metadata fields",
     "paper Table IV (per-field halo mass/location/number/average)", {},
     compute_and_print<table4_sdc_fields, print_table4_sdc_fields>},
    {"fig5_visualization", "Figure 5: SDC visualizations (Exponent Bias scales, ARD shifts)",
     "paper Fig. 5 (a) original (b) exponent bias (c) ARD", {},
     compute_and_print<fig5_visualization, print_fig5_visualization>},
    {"fig6_halo_cells", "Figure 6: halo cell candidates under a faulty Mantissa Size",
     "paper Fig. 6 (original vs faulty halo candidate boxes)", {},
     compute_and_print<fig6_halo_cells, print_fig6_halo_cells>},
    {"fig7_characterization",
     "Figure 7: characterization of I/O faults (Nyx, QMCPACK, Montage)",
     "paper Fig. 7 (outcome fractions per application x fault model)", {},
     compute_and_print<fig7_characterization, print_fig7_characterization>},
    {"fig8_mass_distribution", "Figure 8: halo-mass distribution, original vs DROPPED_WRITE",
     "paper Fig. 8 (mass histogram of original vs SDC curves)", {},
     compute_and_print<fig8_mass_distribution, print_fig8_mass_distribution>},
    {"fig9_faulty_image", "Figure 9: typical faulty mosaic under DROPPED_WRITE",
     "paper Fig. 9 (black stripe of missing data; min outside window)", {},
     compute_and_print<fig9_faulty_image, print_fig9_faulty_image>},
    {"ablation_bitflip_width", "Ablation: BIT_FLIP width sweep on Nyx",
     "paper footnote 3 (4-bit flips keep the Nyx SDC rate minimal)", {},
     compute_and_print<ablation_bitflip_width, print_ablation_bitflip_width>},
    {"ablation_shorn_fraction", "Ablation: SHORN_WRITE completed fraction and tail model",
     "paper Table I (3/8 vs 7/8 of a 4KB block, 512B sectors)", kSmallerCampaign,
     compute_and_print<ablation_shorn_fraction, print_ablation_shorn_fraction>},
    {"ablation_read_faults",
     "Ablation: read-path faults (pread) vs write-path faults (pwrite)",
     "paper abstract (faults in data returned from the file system)", kSmallerCampaign,
     compute_and_print<ablation_read_faults, print_ablation_read_faults>},
    {"ablation_doctor", "Ablation: HDF5 metadata doctor (detect + auto-correct)",
     "paper V-A (detection via average value / field redundancy; correction)", {},
     compute_and_print<ablation_doctor, print_ablation_doctor>},
    {"ablation_post_analysis",
     "Ablation: halo finder vs power spectrum under metadata SDC fields",
     "paper I/V-A (per-analysis error masking; Nyx's two post-analyses)", {},
     compute_and_print<ablation_post_analysis, print_ablation_post_analysis>},
};

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(std::string_view name) {
  const auto it = std::find_if(std::begin(kArtifacts), std::end(kArtifacts),
                               [&](const Artifact& a) { return a.name == name; });
  return it == std::end(kArtifacts) ? nullptr : &*it;
}

Options options_from_env(Options defaults) {
  defaults.runs = util::env_u64("FFIS_RUNS", defaults.runs);
  defaults.seed = util::env_u64("FFIS_SEED", defaults.seed);
  defaults.grid = static_cast<std::size_t>(util::env_u64("FFIS_NYX_GRID", defaults.grid));
  return defaults;
}

void print_header(std::FILE* out, std::string_view title, std::string_view reference) {
  std::fprintf(out, "================================================================\n");
  std::fprintf(out, "%.*s\n", static_cast<int>(title.size()), title.data());
  std::fprintf(out, "reproduces: %.*s\n", static_cast<int>(reference.size()),
               reference.data());
  std::fprintf(out, "================================================================\n");
}

void reproduce(const Artifact& artifact, const Options& options, std::FILE* out) {
  print_header(out, artifact.title, artifact.reference);
  artifact.run(options, out);
}

}  // namespace ffis::paper
