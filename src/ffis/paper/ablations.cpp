// Ablations: bit-flip width, shorn fraction, read-path faults, the HDF5
// doctor, and the two Nyx post-analyses.

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/power_spectrum.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/paper/support.hpp"

namespace ffis::paper {

// --- BIT_FLIP width (paper footnote 3) -------------------------------------------

exp::ExperimentReport ablation_bitflip_width(const Options& options) {
  // Four cells, one golden Nyx execution.
  const nyx::NyxApp app;
  auto builder = campaign(options);
  for (const int width : {1, 2, 4, 8}) {
    builder.cell(app, "BIT_FLIP@pwrite{width=" + std::to_string(width) + "}", -1,
                 "BF-w" + std::to_string(width));
  }
  return run_campaign(builder.build());
}

void print_ablation_bitflip_width(const exp::ExperimentReport& result, std::FILE* out) {
  std::fprintf(out, "runs per cell: %llu\n\n", runs_per_cell(result));
  print_campaign(result, out);
  std::fprintf(out, "\nexpected: the SDC rate remains minimal at every width (the paper "
                    "tested 2 and 4).\n");
}

// --- SHORN_WRITE completed fraction and tail model (paper Table I) -------------------

exp::ExperimentReport ablation_shorn_fraction(const Options& options) {
  // 18 cells sharing one thread pool and one golden run per application.
  const nyx::NyxApp nyx_app;
  const qmc::QmcApp qmc_app;
  const montage::MontageApp montage_app;
  auto builder = campaign(options);
  for (const int eighths : {3, 7}) {
    for (const char* tail : {"adjacent-data", "garbage", "stale"}) {
      const std::string fault = "SHORN_WRITE@pwrite{completed=" +
                                std::to_string(eighths) + ",tail=" + tail + "}";
      const std::string suffix =
          std::to_string(eighths) + "/8-" + std::string(tail).substr(0, 3);
      builder.cell(nyx_app, fault, -1, "NYX-" + suffix);
      builder.cell(qmc_app, fault, -1, "QMC-" + suffix);
      builder.cell(montage_app, fault, /*stage=*/1, "MT1-" + suffix);
    }
  }
  return run_campaign(builder.build());
}

void print_ablation_shorn_fraction(const exp::ExperimentReport& result, std::FILE* out) {
  std::fprintf(out, "runs per cell: %llu\n\n", runs_per_cell(result));
  print_campaign(result, out);
  std::fprintf(out, "\nexpected: losing 5/8 instead of 1/8 raises corruption rates; the\n"
                    "adjacent-data tail (same-order-of-magnitude replacement, paper V-B)\n"
                    "is the mildest, garbage the harshest.\n");
}

// --- Read-path faults (paper abstract) ---------------------------------------------
//
// FFIS can also plant faults "into the data returned from the underlying
// file system": BIT_FLIP / SHORN / DROPPED on pread during Montage's
// pipeline, whose stages re-read every intermediate file.  Read faults are
// transient (the on-device data stays intact), so only the consuming stage
// sees the corruption.

ReadFaults ablation_read_faults(const Options& options) {
  // One golden Montage execution, six profiling passes (pread and pwrite
  // profile differently), every run interleaved on the shared pool.
  const montage::MontageApp app;
  auto builder = campaign(options);
  for (const std::string fault :
       {"BIT_FLIP@pwrite{width=2}", "BIT_FLIP@pread{width=2}", "SHORN_WRITE@pwrite",
        "SHORN_WRITE@pread", "DROPPED_WRITE@pwrite", "DROPPED_WRITE@pread"}) {
    const bool read = fault.find("pread") != std::string::npos;
    builder.cell(app, fault, /*stage=*/3, fault.substr(0, 2) + (read ? "-read" : "-write"));
  }
  return {run_campaign(builder.build()), fault_free_traffic(app)};
}

void print_ablation_read_faults(const ReadFaults& result, std::FILE* out) {
  constexpr double kMiB = 1024.0 * 1024.0;
  std::fprintf(out, "runs per cell: %llu; application: Montage, stage 3 (mBgExec)\n\n",
               runs_per_cell(result.report));
  print_campaign(result.report, out, /*show_primitive_count=*/true);

  // Read-path cells sample from the pread population, write-path cells from
  // pwrite, so both denominators belong next to the table.
  const IoTraffic& t = result.traffic;
  std::fprintf(out,
               "\nfault-free traffic: %llu preads (%.2f MB read) vs %llu pwrites "
               "(%.2f MB written)\n",
               static_cast<unsigned long long>(t.preads),
               static_cast<double>(t.bytes_read) / kMiB,
               static_cast<unsigned long long>(t.pwrites),
               static_cast<double>(t.bytes_written) / kMiB);
  std::fprintf(out, "\nnote: a dropped READ truncates what the consuming stage sees (its\n"
                    "tolerant readers skip the tile), while a dropped WRITE persists the\n"
                    "loss for every later consumer — write faults dominate, matching the\n"
                    "paper's focus on the write path.\n");
}

// --- HDF5 doctor (paper §V-A) ---------------------------------------------------------

std::vector<DoctorRow> ablation_doctor(const Options& options) {
  // For each field: inject, classify without repair, diagnose and correct,
  // and check that the post-analysis output is restored bit-for-bit.
  using Op = FieldFault::Op;
  const NyxGolden golden(options.grid);
  const analysis::Hdf5Doctor doctor(golden.layout, nyx::kDensityDatasetName);

  const std::pair<const char*, FieldFault> cases[] = {
      {"Exponent Bias (-12)", {Op::Add, kExponentBias, -12}},
      {"Exponent Bias (+7)", {Op::Add, kExponentBias, 7}},
      {"Exponent Location (bit flip)", {Op::FlipBit, kExponentLocation, 0}},
      {"Mantissa Location (=2)", {Op::Set, kMantissaLocation, 2}},
      {"Mantissa Size (bit flip)", {Op::FlipBit, kMantissaSize, 2}},
      {"Exponent Size (bit flip)", {Op::FlipBit, kExponentSize, 1}},
      {"Mantissa Normalization (bit 5)", {Op::FlipBit, kClassBitField, 5}},
      {"Address of Raw Data (-4096)", {Op::Add, kAddressOfRawData, -4096}},
  };

  std::vector<DoctorRow> rows;
  for (const auto& [label, fault] : cases) {
    const auto fs = golden.restore(fault);
    DoctorRow row;
    row.label = label;
    try {
      row.without_doctor = core::outcome_name(
          core::classify_outcome(golden.app, golden.analysis(), golden.app.analyze(*fs)));
    } catch (const std::exception&) {
      row.without_doctor = core::outcome_name(core::Outcome::Crash);
    }

    row.diagnosis = doctor.diagnose_and_correct(*fs, golden.config.plotfile_path).field;
    try {
      const auto fixed = golden.app.analyze(*fs);
      row.with_doctor = (fixed.comparison_blob == golden.analysis().comparison_blob)
                            ? "restored (bit-exact)"
                            : "still corrupted";
    } catch (const std::exception&) {
      row.with_doctor = "still crashing";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_ablation_doctor(const std::vector<DoctorRow>& result, std::FILE* out) {
  std::fprintf(out, "\n%-32s %-24s %-22s %s\n", "injected field", "doctor diagnosis",
               "without doctor", "with doctor");
  for (const auto& row : result) {
    std::fprintf(out, "%-32s %-24s %-22s %s\n", row.label.c_str(),
                 std::string(analysis::faulty_field_name(row.diagnosis)).c_str(),
                 row.without_doctor.c_str(), row.with_doctor.c_str());
  }
  std::fprintf(out, "\n(diagnosis column shows the doctor's verdict AFTER repair — 'none' "
                    "means the file was healthy again)\n");
}

// --- Halo finder vs power spectrum (paper §I / §V-A) ------------------------------------
//
// The over-density spectrum is invariant under a pure rescale (Exponent
// Bias) but reacts to shape changes: the two post-analyses mask different
// SDC, which is the "inherent error masking capability" the paper names.

PostAnalysis ablation_post_analysis(const Options&) {
  using Op = FieldFault::Op;
  constexpr std::size_t kGrid = 32;  // a power of two, for the FFT
  const NyxGolden golden(kGrid);
  const auto golden_field = golden.field();
  const auto golden_halos = nyx::find_halos(golden_field, golden.config.halo);
  const auto golden_spectrum = nyx::compute_power_spectrum(golden_field);

  const std::pair<const char*, FieldFault> cases[] = {
      {"Exponent Bias (-12)", {Op::Add, kExponentBias, -12}},
      {"Mantissa Size (bit flip)", {Op::FlipBit, kMantissaSize, 2}},
      {"Mantissa Normalization (bit 5)", {Op::FlipBit, kClassBitField, 5}},
      {"ARD (-1 grid row)", {Op::Add, kAddressOfRawData, -8 * std::int64_t{kGrid}}},
  };

  PostAnalysis result;
  result.golden_halos = golden_halos.halos.size();
  result.shells = golden_spectrum.k.size();
  for (const auto& [label, fault] : cases) {
    const auto fs = golden.restore(fault);
    PostAnalysisRow row;
    row.label = label;
    try {
      const auto field = golden.read(*fs);
      const auto halos = nyx::find_halos(field, golden.config.halo);
      row.halos_identical = halos.to_text() == golden_halos.to_text();
      row.halos = halos.halos.size();
      row.spectrum_deviation =
          nyx::compute_power_spectrum(field).max_relative_deviation(golden_spectrum);
    } catch (const std::exception& e) {
      row.crash = e.what();
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

void print_ablation_post_analysis(const PostAnalysis& result, std::FILE* out) {
  std::fprintf(out, "\ngolden: %zu halos; spectrum over %zu shells\n\n", result.golden_halos,
               result.shells);
  std::fprintf(out, "%-32s %-28s %s\n", "injected field", "halo finder", "power spectrum");
  for (const auto& row : result.rows) {
    std::string halo_verdict, spectrum_verdict;
    if (row.crash) {
      halo_verdict = spectrum_verdict = "crash: " + *row.crash;
    } else {
      char buf[64];
      if (row.halos_identical) {
        halo_verdict = "output identical";
      } else {
        std::snprintf(buf, sizeof buf, "%zu halos (was %zu)", row.halos, result.golden_halos);
        halo_verdict = buf;
      }
      std::snprintf(buf, sizeof buf, "max shell deviation %.2e", row.spectrum_deviation);
      spectrum_verdict = buf;
    }
    std::fprintf(out, "%-32s %-28s %s\n", row.label.c_str(), halo_verdict.c_str(),
                 spectrum_verdict.c_str());
  }
  std::fprintf(out, "\nkey contrast: the Exponent-Bias fault rescales every value, so the\n"
                    "over-density spectrum is bit-identical (deviation ~0) while halo\n"
                    "masses silently scale — the spectrum analysis masks exactly the SDC\n"
                    "the halo analysis suffers, and vice versa for shape-changing fields.\n");
}

}  // namespace ffis::paper
