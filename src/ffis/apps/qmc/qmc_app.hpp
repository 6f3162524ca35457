#pragma once
// Mini-QMCPACK as an FFIS-characterized application.
//
// run_stages(): a small input-echo XML, then VMC (He.s000.scalar.dat) and
//            DMC (He.s001.scalar.dat) — all through the instrumented VFS.  The
//            Monte Carlo trace is deterministic for a given seed and cached,
//            since the paper perturbs only the I/O path; the cache holds
//            each series rendered once, so a run only reissues its pwrites.
// analyze(): QMCA over the s001 series (parse failure -> Crash); the
//            comparison blob is the raw s001 file bytes, per the paper's
//            benign rule.
// classify() (paper rule, after consulting the QMCPACK developers): final
//            energy within [-2.91, -2.90] Ha -> SDC, otherwise Detected.
//            QMCA's binary-garbage flag (NUL bytes from a dropped write's
//            hole) is likewise Detected.

#include <memory>

#include "ffis/apps/qmc/dmc.hpp"
#include "ffis/apps/qmc/qmca.hpp"
#include "ffis/apps/qmc/scalar_io.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/seed_cache.hpp"

namespace ffis::qmc {

struct QmcAppConfig {
  TrialWavefunction psi{};
  VmcConfig vmc{};
  DmcConfig dmc{};
  ScalarIoOptions io{};
  QmcaOptions qmca{};
  std::string prefix = "/He";   ///< output files <prefix>.s00{0,1}.scalar.dat
  double sdc_window_low = -2.91;
  double sdc_window_high = -2.90;
};

class QmcApp final : public core::Application {
 public:
  explicit QmcApp(QmcAppConfig config = {});

  [[nodiscard]] std::string name() const override { return "qmcpack"; }
  /// Stage 0 = the input-echo XML (uninstrumented ingest), stage 1 = the
  /// VMC series (s000), stage 2 = the DMC series (s001).
  [[nodiscard]] int stage_count() const override { return 2; }
  void run_stages(const core::RunContext& ctx, int first, int last) const override;
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override;
  /// The golden s001 bytes with their per-line index (ScalarIndex), or
  /// null when the golden series cannot anchor a splice.
  [[nodiscard]] std::shared_ptr<const core::GoldenArtifacts> golden_artifacts(
      vfs::FileSystem& golden_fs, const core::AnalysisResult& golden) const override;
  /// The analysis depends only on the s001 DMC series: when the extent diff
  /// proves that file untouched (the fault landed in s000, the input echo,
  /// or a stray file), the golden analysis *is* this run's analysis — zero
  /// reads.  A touched s001 is read once in full (it is the comparison
  /// blob), and QMCA re-parses only the lines holding bytes that differ from
  /// the golden series (splice_scalar_text); a size or metadata change, or
  /// a changed header line, re-runs the full parse over those bytes.
  [[nodiscard]] core::AnalysisResult analyze_dirty(
      vfs::FileSystem& fs, const vfs::FsDiff& diff, const core::AnalysisResult& golden,
      const core::GoldenArtifacts* artifacts) const override;
  [[nodiscard]] core::Outcome classify(const core::AnalysisResult& golden,
                                       const core::AnalysisResult& faulty) const override;

  // --- Persistent checkpoints ----------------------------------------------
  /// Wavefunction, VMC/DMC series parameters, I/O flush size, QMCA window,
  /// output prefix and the SDC energy window.
  [[nodiscard]] std::string state_fingerprint() const override;
  /// The Monte Carlo trace for `app_seed` (bit-exact doubles), so a warm
  /// process skips the VMC + DMC simulation.
  [[nodiscard]] util::Bytes serialize_state(std::uint64_t app_seed) const override {
    return cached_trace_.serialize(app_seed);
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    return cached_trace_.restore(app_seed, state);
  }

  [[nodiscard]] const QmcAppConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::string vmc_path() const { return config_.prefix + ".s000.scalar.dat"; }
  [[nodiscard]] std::string dmc_path() const { return config_.prefix + ".s001.scalar.dat"; }

  /// The cached deterministic simulation trace for a seed, with each series
  /// rendered once so every run reissues the same pwrite chunks.
  struct Trace {
    std::vector<ScalarRow> vmc_rows;
    std::vector<ScalarRow> dmc_rows;
    double dmc_mean_energy = 0.0;
    ScalarText vmc_text;
    ScalarText dmc_text;
  };
  [[nodiscard]] std::shared_ptr<const Trace> trace(std::uint64_t seed) const {
    return cached_trace_.get(seed);
  }

 private:
  QmcAppConfig config_;
  core::SeedCache<Trace> cached_trace_;
};

}  // namespace ffis::qmc
