// Figures 5–9.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/paper/support.hpp"

namespace ffis::paper {

// --- Figure 5 -------------------------------------------------------------------

namespace {

/// Every (n/8)-th cell of the z slice: readable, and still shows structure.
FieldSlice subsample(std::string label, const nyx::DensityField& field, std::size_t z) {
  FieldSlice slice{std::move(label), {}};
  const std::size_t step = field.n() / 8;
  for (std::size_t y = 0; y < field.n(); y += step) {
    auto& row = slice.rows.emplace_back();
    for (std::size_t x = 0; x < field.n(); x += step) row.push_back(field.at(x, y, z));
  }
  return slice;
}

}  // namespace

SdcVisualization fig5_visualization(const Options& options) {
  using Op = FieldFault::Op;
  const NyxGolden golden(options.grid);
  const auto original = golden.field();
  SdcVisualization result;

  // (b) Exponent Bias fault: bias -= 12 -> every value x 2^12 = 4096.
  const auto bias_field = golden.read(*golden.restore({Op::Add, kExponentBias, -12}));
  result.scale_factor = bias_field.mean() / original.mean();

  // (c) ARD fault: address -= one grid row -> data shifted by n cells.
  result.shift_cells = static_cast<std::int64_t>(options.grid);
  const auto ard_field =
      golden.read(*golden.restore({Op::Add, kAddressOfRawData, -8 * result.shift_cells}));
  const auto shift = static_cast<std::size_t>(result.shift_cells);
  for (std::size_t i = shift; i < original.size(); ++i) {
    ++result.shifted_total;
    if (ard_field.data()[i] == original.data()[i - shift]) ++result.shifted_matching;
  }
  result.ard_mean = ard_field.mean();

  result.slice_z = options.grid / 2;
  result.slices.push_back(subsample("(a) original", original, result.slice_z));
  result.slices.push_back(
      subsample("(b) exponent-bias faulty (scaled)", bias_field, result.slice_z));
  result.slices.push_back(subsample("(c) ARD faulty (shifted)", ard_field, result.slice_z));
  return result;
}

void print_fig5_visualization(const SdcVisualization& result, std::FILE* out) {
  std::fprintf(out, "\nexponent-bias fault: measured scale factor %.1f (expected 4096)\n",
               result.scale_factor);
  std::fprintf(out,
               "ARD fault: %.2f%% of cells are the golden data shifted by %lld cells; "
               "mean %.6f (unchanged to ~1)\n",
               100.0 * static_cast<double>(result.shifted_matching) /
                   static_cast<double>(result.shifted_total),
               static_cast<long long>(result.shift_cells), result.ard_mean);
  for (const auto& slice : result.slices) {
    std::fprintf(out, "\n-- %s (z=%zu slice, subsampled) --\n", slice.label.c_str(),
                 result.slice_z);
    for (const auto& row : slice.rows) {
      for (std::size_t x = 0; x < row.size(); ++x) {
        std::fprintf(out, "%10.3e%s", row[x], x + 1 < row.size() ? "," : "\n");
      }
    }
  }
}

// --- Figure 6 -------------------------------------------------------------------

namespace {

CandidateMap candidate_map(std::string label, const nyx::DensityField& field,
                           double threshold, std::size_t cx, std::size_t cy,
                           std::size_t cz) {
  constexpr std::size_t r = 6;
  CandidateMap map{std::move(label), {}, 0};
  for (std::size_t y = cy - std::min(cy, r); y <= std::min(field.n() - 1, cy + r); ++y) {
    auto& row = map.rows.emplace_back();
    for (std::size_t x = cx - std::min(cx, r); x <= std::min(field.n() - 1, cx + r); ++x) {
      const bool hot = field.at(x, y, cz) > threshold;
      row += hot ? '#' : '.';
      if (hot) ++map.candidates;
    }
  }
  return map;
}

}  // namespace

HaloCells fig6_halo_cells(const Options& options) {
  const NyxGolden golden(options.grid);
  const auto original = golden.field();
  const auto golden_catalog = nyx::find_halos(original, golden.config.halo);
  if (golden_catalog.halos.empty()) {
    throw std::runtime_error("no halos in the golden run; increase the grid");
  }
  const auto& halo = golden_catalog.halos.front();

  // Faulty Mantissa Size (bit flip), as in the paper's example.
  const auto faulty =
      golden.read(*golden.restore({FieldFault::Op::FlipBit, kMantissaSize, 2}));
  const auto faulty_catalog = nyx::find_halos(faulty, golden.config.halo);

  HaloCells result;
  result.golden_halos = golden_catalog.halos.size();
  result.golden_threshold = golden_catalog.threshold;
  result.golden_candidates = golden_catalog.candidate_cells;
  result.faulty_halos = faulty_catalog.halos.size();
  result.faulty_threshold = faulty_catalog.threshold;
  result.faulty_candidates = faulty_catalog.candidate_cells;
  result.cx = static_cast<std::size_t>(std::lround(halo.cx));
  result.cy = static_cast<std::size_t>(std::lround(halo.cy));
  result.cz = static_cast<std::size_t>(std::lround(halo.cz));
  result.maps.push_back(candidate_map("(a) original", original, golden_catalog.threshold,
                                      result.cx, result.cy, result.cz));
  result.maps.push_back(candidate_map("(b) faulty mantissa size", faulty,
                                      faulty_catalog.threshold, result.cx, result.cy,
                                      result.cz));
  return result;
}

void print_fig6_halo_cells(const HaloCells& result, std::FILE* out) {
  std::fprintf(out,
               "\ngolden: %zu halos (threshold %.3f); faulty mantissa size: %zu halos "
               "(threshold %.3f)\n",
               result.golden_halos, result.golden_threshold, result.faulty_halos,
               result.faulty_threshold);
  std::fprintf(out, "golden candidate cells: %llu; faulty: %llu\n",
               static_cast<unsigned long long>(result.golden_candidates),
               static_cast<unsigned long long>(result.faulty_candidates));
  for (const auto& map : result.maps) {
    std::fprintf(out,
                 "\n-- %s: candidate cells ('#' > threshold) near halo at (%zu,%zu,%zu) --\n",
                 map.label.c_str(), result.cx, result.cy, result.cz);
    for (const auto& row : map.rows) std::fprintf(out, "%s\n", row.c_str());
    std::fprintf(out, "candidate cells in this window: %zu\n", map.candidates);
  }
}

// --- Figure 7 -------------------------------------------------------------------

Characterization fig7_characterization(const Options& options) {
  // One plan for the whole grid: 18 cells share a thread pool, and the
  // golden cache runs each application's golden execution once.
  const nyx::NyxApp nyx_app;
  const qmc::QmcApp qmc_app;
  const montage::MontageApp montage_app;
  auto builder = campaign(options);
  for (const char* fault : {"BF", "SW", "DW"}) {
    builder.cell(nyx_app, fault, -1, std::string("NYX-") + fault);
    builder.cell(qmc_app, fault, -1, std::string("QMC-") + fault);
    for (int stage = 1; stage <= 4; ++stage) {
      builder.cell(montage_app, fault, stage, "MT" + std::to_string(stage) + "-" + fault);
    }
  }

  // Paper note under Figure 7: "all SDC cases with Nyx will be changed to
  // detected cases after using the average-value-based method".
  nyx::NyxConfig protected_config;
  protected_config.use_average_value_detector = true;
  const nyx::NyxApp protected_nyx(protected_config);
  auto protected_builder = campaign(options);
  for (const char* fault : {"BF", "SW", "DW"}) {
    protected_builder.cell(protected_nyx, fault, -1, std::string("NYX*-") + fault);
  }
  return {run_campaign(builder.build()), run_campaign(protected_builder.build())};
}

void print_fig7_characterization(const Characterization& result, std::FILE* out) {
  std::fprintf(out, "runs per cell: %llu (FFIS_RUNS=1000 for the paper's sample size)\n\n",
               runs_per_cell(result.grid));
  print_campaign(result.grid, out);
  std::fprintf(out, "\nNyx with the average-value-based detector enabled:\n");
  print_campaign(result.protected_nyx, out);
  std::fprintf(out,
               "\npaper reference points: NYX-BF 91.1%% benign / 0.8%% SDC; NYX-SW all "
               "benign; NYX-DW 100%% SDC;\n  QMC-BF ~60%% SDC; QMC-SW 54%% SDC, none "
               "detected; QMC-DW 8%% SDC / 43%% detected / 12%% crash;\n  MT-BF SDC "
               "12.8/8/9/6.8%%; MT-SW SDC 56.6/40/52.5/48.5%%; MT-DW SDC "
               "83.5/37.3/98.3/50.4%%\n");
}

// --- Figure 8 -------------------------------------------------------------------

namespace {

std::vector<std::uint64_t> mass_histogram(const std::vector<double>& masses,
                                          const std::vector<double>& edges) {
  std::vector<std::uint64_t> bins(edges.size() - 1, 0);
  for (const double m : masses) {
    for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
      if (m >= edges[b] && m < edges[b + 1]) {
        ++bins[b];
        break;
      }
    }
  }
  return bins;
}

std::vector<double> masses_from_report(const std::string& report) {
  // Catalog rows: "<id> <cx> <cy> <cz> <cells> <mass>".
  std::vector<double> masses;
  std::size_t pos = 0;
  while (pos < report.size()) {
    auto end = report.find('\n', pos);
    if (end == std::string::npos) end = report.size();
    const std::string line = report.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#' || line[0] == 't') continue;
    double id, cx, cy, cz, cells, mass;
    if (std::sscanf(line.c_str(), "%lf %lf %lf %lf %lf %lf", &id, &cx, &cy, &cz, &cells,
                    &mass) == 6) {
      masses.push_back(mass);
    }
  }
  return masses;
}

}  // namespace

MassDistribution fig8_mass_distribution(const Options&) {
  const nyx::NyxApp app;
  core::FaultInjector injector(app, faults::parse_fault_signature("DW"), /*app_seed=*/1);
  injector.prepare();
  const auto golden_masses = masses_from_report(injector.golden().report);

  // Accumulate SDC-run masses over several injections (the paper plots one
  // representative SDC run; averaging over runs smooths the counts).
  MassDistribution result;
  std::vector<double> faulty_masses;
  for (std::uint64_t seed = 0; seed < 20 && result.sdc_runs < 8; ++seed) {
    const auto run = injector.execute(seed);
    if (run.outcome == core::Outcome::Sdc && run.analysis) {
      const auto masses = masses_from_report(run.analysis->report);
      faulty_masses.insert(faulty_masses.end(), masses.begin(), masses.end());
      ++result.sdc_runs;
    }
  }
  if (result.sdc_runs == 0) {
    throw std::runtime_error("no SDC runs found (unexpected for Nyx DROPPED_WRITE)");
  }

  double max_mass = 0;
  for (const double m : golden_masses) max_mass = std::max(max_mass, m);
  for (int b = 0; b <= 10; ++b) result.edges.push_back(max_mass * 1.05 * b / 10.0);
  result.golden_halos = golden_masses.size();
  result.faulty_halos = faulty_masses.size();
  result.golden_bins = mass_histogram(golden_masses, result.edges);
  result.faulty_bins = mass_histogram(faulty_masses, result.edges);
  return result;
}

void print_fig8_mass_distribution(const MassDistribution& result, std::FILE* out) {
  std::fprintf(out, "\n%zu golden halos; %zu halos over %llu SDC runs (normalized below)\n\n",
               result.golden_halos, result.faulty_halos,
               static_cast<unsigned long long>(result.sdc_runs));
  std::fprintf(out, "%-24s %10s %12s\n", "mass bin", "original", "SDC (avg/run)");
  for (std::size_t b = 0; b < result.golden_bins.size(); ++b) {
    std::fprintf(out, "[%8.1f, %8.1f)  %10llu %12.2f\n", result.edges[b],
                 result.edges[b + 1], static_cast<unsigned long long>(result.golden_bins[b]),
                 static_cast<double>(result.faulty_bins[b]) /
                     static_cast<double>(result.sdc_runs));
  }
  std::fprintf(out, "\nnote: the SDC curve deviates most at large masses — halos with more\n"
                    "cells are more susceptible to DROPPED_WRITE (paper's observation).\n");
}

// --- Figure 9 -------------------------------------------------------------------

FaultyImage fig9_faulty_image(const Options&) {
  const montage::MontageApp app;
  // Inject into stage 4 (mAdd), where a dropped mosaic chunk directly zeroes
  // final pixels, as in the paper's example image.
  core::FaultInjector injector(app, faults::parse_fault_signature("DW"), /*app_seed=*/1,
                               /*instrumented_stage=*/4);
  injector.prepare();
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto run = injector.execute(seed);
    if (run.outcome == core::Outcome::Detected && run.analysis) {
      return {injector.golden().report, injector.golden().comparison_blob,
              run.record.instance, run.analysis->report, run.analysis->comparison_blob};
    }
  }
  throw std::runtime_error("no detected case found in 64 injections (unexpected)");
}

namespace {

void write_image(const util::Bytes& bytes, const char* path) {
  std::ofstream file(path, std::ios::binary);
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  file.close();
  if (!file) throw std::runtime_error(std::string("cannot write image file: ") + path);
}

}  // namespace

void print_fig9_faulty_image(const FaultyImage& result, std::FILE* out) {
  std::fprintf(out, "\ngolden statistics:\n%s", result.golden_report.c_str());
  write_image(result.golden_image, "fig9_original.pgm");
  std::fprintf(out, "wrote fig9_original.pgm\n");
  std::fprintf(out, "\ndropped stage-4 pwrite #%llu -> detected\nfaulty statistics:\n%s",
               static_cast<unsigned long long>(result.instance),
               result.faulty_report.c_str());
  write_image(result.faulty_image, "fig9_faulty.pgm");
  std::fprintf(out, "wrote fig9_faulty.pgm — the zeroed stripe is the paper's black line\n");
  std::fprintf(out, "min moved out of [82.82, 82.83] -> the fault is detectable\n");
}

}  // namespace ffis::paper
