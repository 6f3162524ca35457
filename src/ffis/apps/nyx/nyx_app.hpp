#pragma once
// Mini-Nyx as an FFIS-characterized application.
//
// run_stages(): generate the baryon-density field (stage 0; cached — the
//            simulation is deterministic and the paper only perturbs the I/O
//            path) and write the HDF5 plotfile through the instrumented file
//            system (stage 1; later stages rewrite one slab each).
// analyze(): read the plotfile back (HDF5 exceptions -> Crash) and run the
//            halo finder; the comparison blob is the halo catalog text.
// classify() (paper rule): output differs and no halo found -> Detected;
//            otherwise -> SDC.  With the paper's proposed average-value
//            method enabled, any |mean - 1| beyond tolerance is Detected
//            first (this is the improvement evaluated in Figure 7's note).

#include <memory>

#include "ffis/apps/nyx/density_field.hpp"
#include "ffis/apps/nyx/halo_finder.hpp"
#include "ffis/core/application.hpp"
#include "ffis/core/seed_cache.hpp"
#include "ffis/h5/writer.hpp"

namespace ffis::nyx {

struct NyxConfig {
  FieldConfig field{};
  HaloFinderConfig halo{};
  h5::WriteOptions h5_options{};
  std::string plotfile_path = "/plt00000.h5";

  /// Simulated dumps.  1 (default) is the classic single-dump workload.
  /// With T >= 2 the app becomes a T-stage workload: stage 1 writes the full
  /// plotfile; each stage t in [2, T] advances one z-slab of the field and
  /// rewrites only that slab *in place* (ReadWrite open + chunked pwrites
  /// into the dataset's raw-data region) — the restart-dump pattern whose
  /// checkpointed injection runs write into a forked multi-MB payload, which
  /// is exactly what MemFs's extent-based COW keeps O(bytes written).
  int timesteps = 1;
  /// Per-dump slab over-density growth (stage t scales its slab by
  /// 1 + slab_growth * (t - 1)).
  double slab_growth = 0.05;

  /// Enables the paper's average-value-based SDC detector in classify().
  bool use_average_value_detector = false;
  double average_value_tolerance = 1e-3;
};

class NyxApp final : public core::Application {
 public:
  explicit NyxApp(NyxConfig config = {});

  [[nodiscard]] std::string name() const override { return "nyx"; }
  /// One stage per dump (NyxConfig::timesteps).  Stage 0 only warms the
  /// in-memory field, so the prefix of stage 1 writes nothing; the prefix of
  /// a later stage holds the full plotfile plus every earlier slab update.
  [[nodiscard]] int stage_count() const override { return config_.timesteps; }
  void run_stages(const core::RunContext& ctx, int first, int last) const override;
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override;
  /// Caches the decoded golden plotfile dataset (values + float format), the
  /// planned layout addresses, and the golden bytes outside the raw data (the
  /// HDF5 header and anything after the data), so analyze_dirty can splice
  /// instead of re-reading; and a HaloIndex of the golden values (block
  /// running sums, components, the threshold band), so the spliced field's
  /// catalog costs O(patches + a few blocks).  The index keeps the element
  /// order of the mean's and the masses' sums: a block's sum is skipped or
  /// carried only where rounding provably leaves it unchanged or commutes
  /// with the shift, so the catalog stays bit-identical.
  [[nodiscard]] std::shared_ptr<const core::GoldenArtifacts> golden_artifacts(
      vfs::FileSystem& golden_fs, const core::AnalysisResult& golden) const override;
  /// Diff-driven analysis: plotfile untouched → the golden analysis verbatim
  /// (zero reads).  Same size, same metadata → one pread per dirty range
  /// (widened to whole elements); the part of a range outside the raw data
  /// must equal the cached golden bytes (extents are coarser than the header,
  /// so a rewritten first slab shares its dirty extent with it), and the
  /// decoded elements go as patches to the golden HaloIndex — no copy of the
  /// field, and no pass over it unless the threshold falls below the index's
  /// band without falling below every golden value, or more patched cells
  /// fail it than the spanning path can prove (HaloIndex::find_halos).  A
  /// differing byte outside the raw data, a size change, or a metadata/path
  /// change → full
  /// analyze(), so corrupted-metadata crashes and ARD shifts behave
  /// identically.
  [[nodiscard]] core::AnalysisResult analyze_dirty(
      vfs::FileSystem& fs, const vfs::FsDiff& diff, const core::AnalysisResult& golden,
      const core::GoldenArtifacts* artifacts) const override;
  [[nodiscard]] core::Outcome classify(const core::AnalysisResult& golden,
                                       const core::AnalysisResult& faulty) const override;

  // --- Persistent checkpoints ----------------------------------------------
  /// Every knob that shapes the plotfile bytes or the analysis: field
  /// generation parameters, halo-finder thresholds, the h5 layout options
  /// (via h5::options_fingerprint), path, timesteps/slab growth, and the
  /// average-value detector settings.
  [[nodiscard]] std::string state_fingerprint() const override;
  /// The density field for `app_seed` (values encoded via the h5 float
  /// codec, bit-exact for IEEE doubles), so a warm process skips field
  /// generation entirely.
  [[nodiscard]] util::Bytes serialize_state(std::uint64_t app_seed) const override {
    return cached_field_.serialize(app_seed);
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    return cached_field_.restore(app_seed, state);
  }

  [[nodiscard]] const NyxConfig& config() const noexcept { return config_; }

  /// The field for the given seed, generated on first use (core::SeedCache:
  /// one seed at a time, callers hold theirs through the returned pointer).
  [[nodiscard]] std::shared_ptr<const DensityField> field(std::uint64_t seed) const {
    return cached_field_.get(seed);
  }

 private:
  /// Shared tail of analyze / analyze_dirty: catalog -> report, metrics, path.
  [[nodiscard]] core::AnalysisResult analysis_from_catalog(const HaloCatalog& catalog) const;
  void update_slab(const core::RunContext& ctx, const DensityField& f, int t) const;
  /// Cumulative growth factor applied to slab `z` by dumps 2..up_to.
  [[nodiscard]] double slab_factor(std::size_t z, int up_to) const noexcept;

  NyxConfig config_;
  /// Where the density dataset's raw data starts in the plotfile, for slab
  /// updates (0 with one dump).  It depends on the config, not the values.
  const std::uint64_t plot_data_address_;
  core::SeedCache<DensityField> cached_field_;
};

}  // namespace ffis::nyx
