#include "ffis/apps/nyx/nyx_app.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include <algorithm>

#include <cstdio>
#include <string_view>

#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/h5/float_codec.hpp"
#include "ffis/h5/reader.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::nyx {

NyxApp::NyxApp(NyxConfig config) : config_(std::move(config)) {
  if (config_.timesteps < 1) {
    throw std::invalid_argument("nyx: timesteps must be >= 1, got " +
                                std::to_string(config_.timesteps));
  }
  // The average-value detector asserts mean == 1, an invariant of the
  // *initial* field; slab updates deliberately shift the on-disk mean by
  // ~slab_growth/n per dump, which would make the detector flag every run
  // (silently zeroing the SDC tally).  Reject the combination.
  if (config_.timesteps > 1 && config_.use_average_value_detector &&
      config_.slab_growth != 0.0) {
    throw std::invalid_argument(
        "nyx: the average-value detector assumes mean density 1, which "
        "timesteps >= 2 slab growth violates; disable one of them");
  }
}

std::shared_ptr<const DensityField> NyxApp::field(std::uint64_t seed) const {
  std::lock_guard lock(cache_mutex_);
  if (!cached_field_ || cached_seed_ != seed) {
    FieldConfig fc = config_.field;
    fc.seed = seed;
    cached_field_ = std::make_shared<const DensityField>(generate_density_field(fc));
    cached_seed_ = seed;
  }
  return cached_field_;
}

std::uint64_t NyxApp::plot_data_address() const {
  std::lock_guard lock(cache_mutex_);
  if (!layout_cached_) {
    // The raw-data address depends only on the metadata layout (dataset
    // name, dims, write options) — never on the values.
    cached_data_address_ =
        plan_plotfile_layout(config_.field.n, config_.h5_options).data_addresses.at(0);
    layout_cached_ = true;
  }
  return cached_data_address_;
}

double NyxApp::slab_factor(std::size_t z, int up_to) const noexcept {
  const std::size_t n = config_.field.n;
  double factor = 1.0;
  for (int t = 2; t <= up_to; ++t) {
    if (static_cast<std::size_t>(t - 2) % n == z) {
      factor *= 1.0 + config_.slab_growth * static_cast<double>(t - 1);
    }
  }
  return factor;
}

void NyxApp::update_slab(const core::RunContext& ctx, const DensityField& f, int t) const {
  const std::size_t n = f.n();
  const std::size_t z = static_cast<std::size_t>(t - 2) % n;
  const std::size_t plane = n * n;

  // Slab values are derived from the base field (not read back from the
  // file), so the update is deterministic regardless of injected faults.
  std::vector<double> slab(f.data().begin() + static_cast<std::ptrdiff_t>(z * plane),
                           f.data().begin() + static_cast<std::ptrdiff_t>((z + 1) * plane));
  const double factor = slab_factor(z, t);
  for (double& v : slab) v *= factor;

  util::Bytes scratch;
  const util::ByteSpan raw = h5::raw_view(slab, h5::FloatFormat{}, scratch);
  const std::uint64_t address =
      plot_data_address() + static_cast<std::uint64_t>(z * plane) * sizeof(double);

  // In-place rewrite of just this slab, sliced like the writer's raw-data
  // protocol so uniform instance selection has spread within the stage.
  vfs::File file(ctx.fs, config_.plotfile_path, vfs::OpenMode::ReadWrite);
  if (!vfs::pwrite_all(file, raw, address, config_.h5_options.data_chunk_bytes)) {
    throw h5::H5Exception("short write of slab update");
  }
  file.fsync();
}

void NyxApp::run_range(const core::RunContext& ctx, int first, int last) const {
  // Shared ownership keeps the field alive even if a concurrent cell with a
  // different seed evicts the cache entry mid-run.
  const std::shared_ptr<const DensityField> f = field(ctx.app_seed);
  if (first <= 1 && 1 <= last) {
    ctx.enter_stage(1);
    (void)write_plotfile(ctx.fs, config_.plotfile_path, *f, config_.h5_options);
    ctx.leave_stage(1);
  }
  for (int t = std::max(first, 2); t <= last; ++t) {
    ctx.enter_stage(t);
    update_slab(ctx, *f, t);
    ctx.leave_stage(t);
  }
}

void NyxApp::run(const core::RunContext& ctx) const {
  run_range(ctx, 1, config_.timesteps);
}

void NyxApp::run_prefix(const core::RunContext& ctx, int stage) const {
  if (stage < 1 || stage > config_.timesteps) {
    throw std::invalid_argument("nyx: no such stage " + std::to_string(stage));
  }
  // An empty prefix still warms the field cache so per-run forks don't race
  // to generate it (they would anyway serialize on cache_mutex_).
  (void)field(ctx.app_seed);
  run_range(ctx, 1, stage - 1);
}

void NyxApp::run_from(const core::RunContext& ctx, int stage) const {
  if (stage < 1 || stage > config_.timesteps) {
    throw std::invalid_argument("nyx: no such stage " + std::to_string(stage));
  }
  run_range(ctx, stage, config_.timesteps);
}

core::AnalysisResult NyxApp::analysis_from_catalog(const HaloCatalog& catalog) const {
  core::AnalysisResult result;
  result.report = catalog.to_text();
  result.comparison_blob = util::to_bytes(result.report);
  result.metrics["halo_count"] = static_cast<double>(catalog.halos.size());
  result.metrics["mean_density"] = catalog.mean_density;
  result.metrics["candidate_cells"] = static_cast<double>(catalog.candidate_cells);
  result.metrics["total_mass"] = catalog.total_mass();
  return result;
}

core::AnalysisResult NyxApp::analyze(vfs::FileSystem& fs) const {
  const DensityField f = read_plotfile(fs, config_.plotfile_path);
  return analysis_from_catalog(find_halos(f, config_.halo));
}

namespace {

/// Golden-run artifacts for diff-driven re-analysis: the decoded dataset
/// (values AND the float format the clean metadata implies) plus the planned
/// raw-data placement.  One instance per campaign cell, shared by all runs.
struct NyxGoldenArtifacts final : core::GoldenArtifacts {
  h5::Dataset dataset;          ///< golden values + format, as the reader saw them
  std::uint64_t data_begin = 0; ///< raw-data byte range within the plotfile
  std::uint64_t data_end = 0;
  std::uint64_t file_size = 0;  ///< planned (== golden) total file size
};

}  // namespace

std::shared_ptr<const core::GoldenArtifacts> NyxApp::golden_artifacts(
    vfs::FileSystem& golden_fs, const core::AnalysisResult& /*golden*/) const {
  auto artifacts = std::make_shared<NyxGoldenArtifacts>();
  artifacts->dataset =
      h5::read_dataset(golden_fs, config_.plotfile_path, kDensityDatasetName);
  const h5::WriteInfo info = plan_plotfile_layout(config_.field.n, config_.h5_options);
  const h5::DatasetRange range = h5::dataset_byte_ranges(info).at(0);
  artifacts->data_begin = range.begin;
  artifacts->data_end = range.end;
  artifacts->file_size = info.file_size;
  return artifacts;
}

core::AnalysisResult NyxApp::analyze_dirty(vfs::FileSystem& fs, const vfs::FsDiff& diff,
                                           const core::AnalysisResult& golden,
                                           const core::GoldenArtifacts* artifacts) const {
  const std::string& path = config_.plotfile_path;
  // The analysis depends only on the plotfile; a diff that never touches it
  // (a leaked .lock marker, a stray file) analyzes exactly like the golden.
  if (!diff.touches(path)) return golden;

  const auto* art = dynamic_cast<const NyxGoldenArtifacts*>(artifacts);
  const vfs::FileDiff* fd = diff.find(path);
  // Splicing is provably equivalent only for a pure in-place content change
  // whose dirty ranges sit entirely inside the dataset's raw data: metadata
  // corruption must go through the real parser (crashes, ARD shifts, format
  // re-interpretation), and size changes shift what reads return.
  if (art == nullptr || fd == nullptr || fd->metadata_changed ||
      fd->size != fd->base_size || fd->size != art->file_size) {
    return analyze(fs);
  }
  for (const vfs::ByteRange& r : fd->ranges) {
    if (r.offset < art->data_begin || r.end() > art->data_end) return analyze(fs);
  }

  // Reconstruct the faulty field: golden values everywhere, re-read and
  // re-decoded values over (only) the dirty ranges, widened to element
  // boundaries.  Element decode is positionally independent, so the splice
  // is bit-identical to a full read — find_halos then sees exactly the
  // field analyze() would have built, at O(dirty bytes) I/O.
  const std::size_t element = art->dataset.format.size_bytes;
  std::vector<double> values = art->dataset.data;
  vfs::File file(fs, path, vfs::OpenMode::Read);
  for (const vfs::ByteRange& r : fd->ranges) {
    const std::uint64_t first = (r.offset - art->data_begin) / element;
    const std::uint64_t last =
        (r.end() - art->data_begin + element - 1) / element;  // exclusive, ceil
    util::Bytes raw(static_cast<std::size_t>((last - first) * element));
    if (file.pread(raw, art->data_begin + first * element) != raw.size()) {
      return analyze(fs);  // short read despite matching sizes — be faithful
    }
    h5::decode_into(raw, art->dataset.format,
                    std::span(values).subspan(static_cast<std::size_t>(first),
                                              static_cast<std::size_t>(last - first)));
  }
  const DensityField reconstructed(config_.field.n, std::move(values));
  return analysis_from_catalog(find_halos(reconstructed, config_.halo));
}

core::Outcome NyxApp::classify(const core::AnalysisResult& /*golden*/,
                               const core::AnalysisResult& faulty) const {
  if (config_.use_average_value_detector) {
    // Mass conservation check: the mean of the original input data must be 1.
    const double mean = faulty.metric("mean_density");
    if (!std::isfinite(mean) || std::fabs(mean - 1.0) > config_.average_value_tolerance) {
      return core::Outcome::Detected;
    }
  }
  // Paper rule: outputs differ; no halo found -> Detected, else SDC.
  if (faulty.metric("halo_count") == 0.0) return core::Outcome::Detected;
  return core::Outcome::Sdc;
}

namespace {

constexpr std::string_view kStateTag = "nyx-state/1";

}  // namespace

std::string NyxApp::state_fingerprint() const {
  const FieldConfig& f = config_.field;
  const HaloFinderConfig& h = config_.halo;
  return "nyx/1;n=" + std::to_string(f.n) + ";halos=" + std::to_string(f.halo_count) +
         ";sig=" + util::hexf(f.sigma_min) + "," + util::hexf(f.sigma_max) +
         ";amp=" + util::hexf(f.amplitude_min) + "," + util::hexf(f.amplitude_max) +
         ";logn=" + util::hexf(f.lognormal_sigma) + ";thr=" + util::hexf(h.threshold_factor) +
         ";mincells=" + std::to_string(h.min_cells) + ";" +
         h5::options_fingerprint(config_.h5_options) + ";path=" + util::fpstr(config_.plotfile_path) +
         ";t=" + std::to_string(config_.timesteps) + ";growth=" + util::hexf(config_.slab_growth) +
         ";avg=" + (config_.use_average_value_detector ? "1" : "0") + "," +
         util::hexf(config_.average_value_tolerance);
}

util::Bytes NyxApp::serialize_state(std::uint64_t app_seed) const {
  const std::shared_ptr<const DensityField> f = field(app_seed);
  util::Bytes out;
  util::ByteWriter w(out);
  w.str(kStateTag);
  w.u64(app_seed);
  w.u64(f->n());
  util::Bytes scratch;
  w.blob(h5::raw_view(f->data(), h5::FloatFormat{}, scratch));
  return out;
}

bool NyxApp::restore_state(std::uint64_t app_seed, util::ByteSpan state) const {
  {
    // Two checkpoint entries of one (app, seed) carry identical blobs;
    // decoding the second would only overwrite an identical cache.
    std::lock_guard lock(cache_mutex_);
    if (cached_field_ && cached_seed_ == app_seed) return true;
  }
  try {
    util::ByteReader r(state);
    if (r.str() != kStateTag) return false;
    if (r.u64() != app_seed) return false;
    const std::uint64_t n = r.u64();
    if (n != config_.field.n) return false;
    const util::Bytes raw = r.blob();
    r.expect_end();
    std::vector<double> values = h5::decode_array(raw, n * n * n, h5::FloatFormat{});
    auto restored = std::make_shared<const DensityField>(static_cast<std::size_t>(n),
                                                         std::move(values));
    std::lock_guard lock(cache_mutex_);
    cached_field_ = std::move(restored);
    cached_seed_ = app_seed;
    return true;
  } catch (const std::exception&) {
    return false;  // truncated or foreign blob: recompute lazily instead
  }
}

}  // namespace ffis::nyx
