#pragma once
// The paper's artifacts — Tables I–IV, Figures 5–9 and five ablations — as
// library functions.  Each artifact is one function of Options that returns
// its result, plus one printer that renders the result as text; `ffis paper
// <artifact>` dispatches on the registry at the bottom of this header, and
// tests/test_paper.cpp pins the results at small seeded sizes.
//
// Campaign artifacts (Fig. 7 and three ablations) return the engine's
// exp::ExperimentReport and print by replaying it through a
// ConsoleTableSink.  The other artifacts drive the mini-apps, the field
// injector and the HDF5 doctor directly.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/analysis/metadata_sweep.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::paper {

/// The three knobs an artifact draws from; each artifact ignores the ones
/// it does not use.  `ffis paper` fills them from FFIS_RUNS, FFIS_SEED and
/// FFIS_NYX_GRID over the artifact's defaults.
struct Options {
  std::uint64_t runs = 200;  ///< injection runs per campaign cell
  std::uint64_t seed = 42;   ///< campaign and metadata-sweep seed
  std::size_t grid = 48;     ///< Nyx grid edge of the metadata artifacts
};

/// One fault-free application run (app seed 1), counted at the file-system
/// surface.
struct IoTraffic {
  std::uint64_t dataset_bytes = 0;  ///< bytes stored once the run ends
  std::uint64_t files = 0;
  std::uint64_t preads = 0;
  std::uint64_t pwrites = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

// --- Table I: fault models, demonstrated on live buffers ----------------------

struct WriteDemo {
  std::string signature;  ///< canonical signature text
  faults::InjectionRecord record;
  std::size_t written = 0;    ///< bytes the pwrite carried
  std::size_t on_device = 0;  ///< bytes the device holds afterwards
};

struct ModeDemo {
  std::string signature;  ///< as written in the table
  vfs::Primitive primitive = vfs::Primitive::Mknod;
  std::optional<std::uint32_t> mode;  ///< resulting mode; none if never created
};

struct FaultModels {
  std::vector<WriteDemo> writes;
  std::vector<ModeDemo> modes;
};

[[nodiscard]] FaultModels table1_fault_models(const Options& options);
void print_table1_fault_models(const FaultModels& result, std::FILE* out);

// --- Table II: the tested applications ----------------------------------------

struct ApplicationRow {
  std::string name;
  std::string domain;
  std::string method;
  IoTraffic traffic;
};

[[nodiscard]] std::vector<ApplicationRow> table2_applications(const Options& options);
void print_table2_applications(const std::vector<ApplicationRow>& result, std::FILE* out);

// --- Table III: byte-wise faults in the plotfile's HDF5 metadata ----------------

struct MetadataTable {
  h5::WriteInfo layout;  ///< locates every metadata byte
  analysis::MetadataSweepResult sweep;
};

[[nodiscard]] MetadataTable table3_metadata(const Options& options);
void print_table3_metadata(const MetadataTable& result, std::FILE* out);

// --- Table IV: Nyx post-analysis per SDC-capable metadata field -----------------

struct SdcFieldRow {
  std::string label;
  std::string paper;      ///< the paper's observation for this field
  bool crashed = false;   ///< the corrupted value was rejected on read
  std::string mass;       ///< unchanged / scaled xF / changed
  std::string locations;  ///< unchanged / shifted (dx,dy,dz) / changed
  std::size_t halos_golden = 0;
  std::size_t halos_faulty = 0;
  double mean = 0.0;  ///< average input value of the faulty field
};

struct SdcFields {
  std::size_t golden_halos = 0;
  double golden_mean = 0.0;
  std::vector<SdcFieldRow> rows;
};

[[nodiscard]] SdcFields table4_sdc_fields(const Options& options);
void print_table4_sdc_fields(const SdcFields& result, std::FILE* out);

// --- Figure 5: Exponent Bias scales the data, ARD shifts it ---------------------

struct FieldSlice {
  std::string label;
  std::vector<std::vector<double>> rows;  ///< every (n/8)-th cell in y, then x
};

struct SdcVisualization {
  double scale_factor = 0.0;  ///< faulty-bias mean over golden mean
  std::size_t shifted_matching = 0;  ///< ARD cells equal to the shifted golden
  std::size_t shifted_total = 0;
  std::int64_t shift_cells = 0;
  double ard_mean = 0.0;
  std::size_t slice_z = 0;
  std::vector<FieldSlice> slices;  ///< original, bias-faulty, ARD-faulty
};

[[nodiscard]] SdcVisualization fig5_visualization(const Options& options);
void print_fig5_visualization(const SdcVisualization& result, std::FILE* out);

// --- Figure 6: halo candidates under a faulty Mantissa Size ---------------------

struct CandidateMap {
  std::string label;
  std::vector<std::string> rows;  ///< '#' above the threshold, '.' below
  std::size_t candidates = 0;
};

struct HaloCells {
  std::size_t golden_halos = 0;
  double golden_threshold = 0.0;
  std::uint64_t golden_candidates = 0;
  std::size_t faulty_halos = 0;
  double faulty_threshold = 0.0;
  std::uint64_t faulty_candidates = 0;
  std::size_t cx = 0, cy = 0, cz = 0;  ///< the most massive golden halo
  std::vector<CandidateMap> maps;      ///< original, faulty
};

/// Throws std::runtime_error when the golden field holds no halo (grids
/// below ~32).
[[nodiscard]] HaloCells fig6_halo_cells(const Options& options);
void print_fig6_halo_cells(const HaloCells& result, std::FILE* out);

// --- Figure 7: the headline characterization -------------------------------------

struct Characterization {
  exp::ExperimentReport grid;           ///< {NYX, QMC, MT1..MT4} x {BF, SW, DW}
  exp::ExperimentReport protected_nyx;  ///< Nyx with the average-value detector
};

[[nodiscard]] Characterization fig7_characterization(const Options& options);
void print_fig7_characterization(const Characterization& result, std::FILE* out);

// --- Figure 8: halo-mass distribution under DROPPED_WRITE ------------------------

struct MassDistribution {
  std::size_t golden_halos = 0;
  std::size_t faulty_halos = 0;  ///< summed over the SDC runs
  std::uint64_t sdc_runs = 0;
  std::vector<double> edges;  ///< bin edges, one more than bins
  std::vector<std::uint64_t> golden_bins;
  std::vector<std::uint64_t> faulty_bins;
};

/// Runs the default Nyx grid; throws std::runtime_error if no SDC run turns up.
[[nodiscard]] MassDistribution fig8_mass_distribution(const Options& options);
void print_fig8_mass_distribution(const MassDistribution& result, std::FILE* out);

// --- Figure 9: a faulty Montage mosaic -------------------------------------------

struct FaultyImage {
  std::string golden_report;
  util::Bytes golden_image;  ///< PGM
  std::uint64_t instance = 0;  ///< the dropped stage-4 pwrite
  std::string faulty_report;
  util::Bytes faulty_image;  ///< PGM
};

/// Throws std::runtime_error if no detected run turns up.
[[nodiscard]] FaultyImage fig9_faulty_image(const Options& options);
/// Also writes fig9_original.pgm and fig9_faulty.pgm to the working
/// directory; throws std::runtime_error naming the path if either fails.
void print_fig9_faulty_image(const FaultyImage& result, std::FILE* out);

// --- Ablations -----------------------------------------------------------------

/// BIT_FLIP widths 1/2/4/8 on Nyx (paper footnote 3).
[[nodiscard]] exp::ExperimentReport ablation_bitflip_width(const Options& options);
void print_ablation_bitflip_width(const exp::ExperimentReport& result, std::FILE* out);

/// SHORN_WRITE completed fraction x tail model on all three applications.
[[nodiscard]] exp::ExperimentReport ablation_shorn_fraction(const Options& options);
void print_ablation_shorn_fraction(const exp::ExperimentReport& result, std::FILE* out);

struct ReadFaults {
  exp::ExperimentReport report;  ///< pwrite vs pread cells, Montage stage 3
  IoTraffic traffic;             ///< the fault-free denominators
};

[[nodiscard]] ReadFaults ablation_read_faults(const Options& options);
void print_ablation_read_faults(const ReadFaults& result, std::FILE* out);

struct DoctorRow {
  std::string label;
  analysis::FaultyField diagnosis = analysis::FaultyField::None;  ///< after repair
  std::string without_doctor;
  std::string with_doctor;
};

[[nodiscard]] std::vector<DoctorRow> ablation_doctor(const Options& options);
void print_ablation_doctor(const std::vector<DoctorRow>& result, std::FILE* out);

struct PostAnalysisRow {
  std::string label;
  std::optional<std::string> crash;  ///< the read or analysis threw this
  bool halos_identical = false;      ///< halo catalog text unchanged
  std::size_t halos = 0;
  double spectrum_deviation = 0.0;  ///< max relative per-shell deviation
};

struct PostAnalysis {
  std::size_t golden_halos = 0;
  std::size_t shells = 0;
  std::vector<PostAnalysisRow> rows;
};

/// Runs a fixed 32^3 grid (a power of two, for the FFT).
[[nodiscard]] PostAnalysis ablation_post_analysis(const Options& options);
void print_ablation_post_analysis(const PostAnalysis& result, std::FILE* out);

// --- Registry ------------------------------------------------------------------

struct Artifact {
  std::string_view name;       ///< `ffis paper <name>`
  std::string_view title;      ///< first banner line
  std::string_view reference;  ///< what of the paper it reproduces
  Options defaults;            ///< before the environment overrides them
  void (*run)(const Options& options, std::FILE* out);  ///< compute, then print
};

/// Every artifact, in paper order.
[[nodiscard]] std::span<const Artifact> artifacts();
[[nodiscard]] const Artifact* find_artifact(std::string_view name);

/// `defaults` with FFIS_RUNS, FFIS_SEED and FFIS_NYX_GRID applied where set.
/// Throws std::invalid_argument on a malformed value.
[[nodiscard]] Options options_from_env(Options defaults);

void print_header(std::FILE* out, std::string_view title, std::string_view reference);

/// Prints the artifact's banner, then computes and prints it.
void reproduce(const Artifact& artifact, const Options& options, std::FILE* out);

}  // namespace ffis::paper
