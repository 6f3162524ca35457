#pragma once
// Mini-Montage as an FFIS-characterized application.
//
// run_stages(): stage 0 writes the raw tiles (uninstrumented ingest); stages
//        1-4 are the four instrumented pipeline steps, each bracketed with
//        enter_stage/leave_stage so that a campaign configured for stage k
//        (MT1..MT4 in Figure 7) plants its fault only in that stage's writes.
// analyze(): read the preview image bytes (comparison blob) and the "min"
//        statistic of the final step.
// classify() (paper rule): min within [82.82, 82.83] -> SDC, else Detected;
//        missing/corrupted files crash earlier and are recorded as Crash.

#include <memory>
#include <vector>

#include "ffis/apps/montage/scene.hpp"
#include "ffis/apps/montage/stages.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/seed_cache.hpp"

namespace ffis::montage {

struct MontageConfig {
  SceneConfig scene{};
  PipelinePaths paths{};
  StageOptions stages{};
  double sdc_window_low = 82.82;
  double sdc_window_high = 82.83;
};

class MontageApp final : public core::Application {
 public:
  explicit MontageApp(MontageConfig config = {});

  [[nodiscard]] std::string name() const override { return "montage"; }
  [[nodiscard]] int stage_count() const override { return 4; }
  void run_stages(const core::RunContext& ctx, int first, int last) const override;
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override;
  /// Short-circuits untouched end-of-pipeline artifacts: the analysis reads
  /// only the preview image and the statistics file, so when the extent diff
  /// proves both untouched (the fault corrupted an intermediate tile that
  /// never propagated, or a stray file) the golden analysis is returned with
  /// zero reads.  Either artifact touched → full analysis.
  [[nodiscard]] core::AnalysisResult analyze_dirty(
      vfs::FileSystem& fs, const vfs::FsDiff& diff, const core::AnalysisResult& golden,
      const core::GoldenArtifacts* artifacts) const override;
  [[nodiscard]] core::Outcome classify(const core::AnalysisResult& golden,
                                       const core::AnalysisResult& faulty) const override;

  // --- Persistent checkpoints ----------------------------------------------
  /// Scene geometry and synthesis parameters, pipeline paths, stage options
  /// and the SDC window.
  [[nodiscard]] std::string state_fingerprint() const override;
  /// The rendered raw tiles for `app_seed` (the expensive half of the
  /// inputs; the Scene itself is rebuilt cheaply from the config).
  [[nodiscard]] util::Bytes serialize_state(std::uint64_t app_seed) const override {
    return cached_inputs_.serialize(app_seed);
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    return cached_inputs_.restore(app_seed, state);
  }

  [[nodiscard]] const MontageConfig& config() const noexcept { return config_; }

  /// Cached deterministic scene + raw tiles for a seed.
  struct Inputs {
    Scene scene;
    std::vector<Image> raw_tiles;
  };
  [[nodiscard]] std::shared_ptr<const Inputs> inputs(std::uint64_t seed) const {
    return cached_inputs_.get(seed);
  }

 private:
  MontageConfig config_;
  core::SeedCache<Inputs> cached_inputs_;
};

}  // namespace ffis::montage
