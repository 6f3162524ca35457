#include "ffis/apps/montage/montage_app.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "ffis/util/strfmt.hpp"

namespace ffis::montage {

namespace {

Scene scene_for(const SceneConfig& config, std::uint64_t seed) {
  SceneConfig sc = config;
  sc.seed = seed;
  return Scene(sc);
}

std::string hexf_list(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ',';
    out += util::hexf(v);
  }
  return out;
}

}  // namespace

// The inputs persist as the raw tiles' bit-exact pixels.  The Scene rebuild
// is cheap (a few hundred RNG draws); the tiles — truth_at evaluated per
// pixel — are what the blob actually saves.
MontageApp::MontageApp(MontageConfig config)
    : config_(std::move(config)),
      cached_inputs_(
          "montage-state/1",
          [this](std::uint64_t seed) {
            Inputs in{scene_for(config_.scene, seed), {}};
            for (std::size_t k = 0; k < config_.scene.tile_count(); ++k) {
              in.raw_tiles.push_back(in.scene.make_raw_tile(k));
            }
            return in;
          },
          [](const Inputs& in, util::ByteWriter& w) {
            w.u64(in.raw_tiles.size());
            for (const Image& tile : in.raw_tiles) {
              w.u64(tile.width);
              w.u64(tile.height);
              w.f64(tile.x0);
              w.f64(tile.y0);
              for (const double px : tile.pixels) w.f64(px);
            }
          },
          [this](std::uint64_t seed, util::ByteReader& r) {
            Inputs in{scene_for(config_.scene, seed), {}};
            const std::size_t size = config_.scene.tile_size;
            if (r.u64() != config_.scene.tile_count()) throw std::invalid_argument("tile count");
            for (std::size_t k = 0; k < config_.scene.tile_count(); ++k) {
              const auto width = static_cast<std::size_t>(r.u64());
              const auto height = static_cast<std::size_t>(r.u64());
              const double x0 = r.f64();
              const double y0 = r.f64();
              // A raw tile is exactly tile_size x tile_size; checking each side
              // also keeps width * height from wrapping.
              if (width != size || height != size) throw std::invalid_argument("tile size");
              Image tile(width, height, x0, y0);
              for (double& px : tile.pixels) px = r.f64();
              in.raw_tiles.push_back(std::move(tile));
            }
            return in;
          }) {}

void MontageApp::run_stages(const core::RunContext& ctx, int first, int last) const {
  const auto in = inputs(ctx.app_seed);
  const auto& paths = config_.paths;

  if (first == 0) {
    // Ingest (stage 0: the paper does not instrument the raw-archive fetch).
    vfs::mkdirs(ctx.fs, paths.raw_dir);
    for (std::size_t k = 0; k < in->raw_tiles.size(); ++k) {
      write_fits(ctx.fs, paths.raw_tile(k), in->raw_tiles[k], config_.stages.fits_io);
    }
  }

  for (int stage = std::max(first, 1); stage <= last; ++stage) {
    ctx.enter_stage(stage);
    switch (stage) {
      case 1: stage1_project(ctx.fs, in->scene, paths, config_.stages); break;
      case 2: stage2_diff_and_fit(ctx.fs, in->scene, paths, config_.stages); break;
      case 3: stage3_background_correct(ctx.fs, in->scene, paths, config_.stages); break;
      case 4: stage4_coadd(ctx.fs, in->scene, paths, config_.stages); break;
      default: break;
    }
    ctx.leave_stage(stage);
  }
}

core::AnalysisResult MontageApp::analyze(vfs::FileSystem& fs) const {
  const auto& paths = config_.paths;
  core::AnalysisResult result;
  // The preview image is the comparison artifact (the paper diffs
  // m101_mosaic.jpg); absence of the file is a crash, surfaced as VfsError.
  result.comparison_blob = vfs::read_file(fs, paths.preview());

  const std::string stats = vfs::read_text_file(fs, paths.statistics());
  double min_value = std::nan(""), max_value = std::nan("");
  long long finite = 0;
  if (std::sscanf(stats.c_str(), "min=%lf\nmax=%lf\nfinite=%lld", &min_value, &max_value,
                  &finite) < 2) {
    throw FitsError("statistics file is unparsable");
  }
  result.report = stats;
  result.metrics["min"] = min_value;
  result.metrics["max"] = max_value;
  result.metrics["finite_pixels"] = static_cast<double>(finite);
  return result;
}

core::AnalysisResult MontageApp::analyze_dirty(vfs::FileSystem& fs, const vfs::FsDiff& diff,
                                               const core::AnalysisResult& golden,
                                               const core::GoldenArtifacts* /*artifacts*/) const {
  const auto& paths = config_.paths;
  if (!diff.touches(paths.preview()) && !diff.touches(paths.statistics())) {
    return golden.via(core::AnalysisPath::Spliced);
  }
  return analyze(fs);
}

core::Outcome MontageApp::classify(const core::AnalysisResult& /*golden*/,
                                   const core::AnalysisResult& faulty) const {
  const double min_value = faulty.metric("min");
  if (std::isfinite(min_value) && min_value >= config_.sdc_window_low &&
      min_value <= config_.sdc_window_high) {
    return core::Outcome::Sdc;
  }
  return core::Outcome::Detected;
}

std::string MontageApp::state_fingerprint() const {
  const SceneConfig& s = config_.scene;
  const StageOptions& st = config_.stages;
  const PipelinePaths& p = config_.paths;
  return "montage/1;tile=" + std::to_string(s.tile_size) + ";x0=" + hexf_list(s.tile_x0) +
         ";y0=" + hexf_list(s.tile_y0) + ";sky=" + util::hexf(s.sky) +
         ";spot=" + util::hexf(s.dark_spot_x) + "," + util::hexf(s.dark_spot_y) + "," +
         util::hexf(s.dark_spot_depth) + "," + util::hexf(s.dark_spot_sigma) +
         ";gal=" + util::hexf(s.galaxy_peak) + "," + util::hexf(s.galaxy_scale) + "," +
         util::hexf(s.galaxy_cx) + "," + util::hexf(s.galaxy_cy) + "," + util::hexf(s.spiral_contrast) +
         "," + util::hexf(s.spiral_pitch) + ";stars=" + std::to_string(s.star_count) + "," +
         util::hexf(s.star_peak_min) + "," + util::hexf(s.star_peak_max) + "," + util::hexf(s.star_sigma) +
         ";bg=" + util::hexf(s.bg_offset_max) + "," + util::hexf(s.bg_gradient_max) +
         ";dirs=" + util::fpstr(p.raw_dir) + util::fpstr(p.proj_dir) +
         util::fpstr(p.diff_dir) + util::fpstr(p.corr_dir) + util::fpstr(p.mosaic_dir) +
         ";overlap=" + std::to_string(st.min_overlap_pixels) +
         ";gate=" + util::hexf(st.fit_gradient_gate) +
         ";fits=" + std::to_string(st.fits_io.data_chunk_bytes) +
         ";sdc=" + util::hexf(config_.sdc_window_low) + "," + util::hexf(config_.sdc_window_high);
}

}  // namespace ffis::montage
