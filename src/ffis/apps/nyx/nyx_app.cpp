#include "ffis/apps/nyx/nyx_app.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/h5/float_codec.hpp"
#include "ffis/h5/reader.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::nyx {

// The field persists as its bit-exact binary64 values.
NyxApp::NyxApp(NyxConfig config)
    : config_(std::move(config)),
      plot_data_address_(config_.timesteps >= 2 ? plan_plotfile_layout(config_.field.n,
                                                                        config_.h5_options)
                                                      .data_addresses.at(0)
                                                : 0),
      cached_field_(
          "nyx-state/1",
          [this](std::uint64_t seed) {
            FieldConfig fc = config_.field;
            fc.seed = seed;
            return generate_density_field(fc);
          },
          [](const DensityField& f, util::ByteWriter& w) {
            w.u64(f.n());
            util::Bytes scratch;
            w.blob(h5::raw_view(f.data(), h5::FloatFormat{}, scratch));
          },
          [this](std::uint64_t, util::ByteReader& r) {
            const std::uint64_t n = r.u64();
            if (n != config_.field.n) throw std::invalid_argument("grid size");
            const util::Bytes raw = r.blob();
            return DensityField(static_cast<std::size_t>(n),
                                h5::decode_array(raw, n * n * n, h5::FloatFormat{}));
          }) {
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
      plot_data_address_ + static_cast<std::uint64_t>(z * plane) * sizeof(double);

  // In-place rewrite of just this slab, sliced like the writer's raw-data
  // protocol so uniform instance selection has spread within the stage.
  vfs::File file(ctx.fs, config_.plotfile_path, vfs::OpenMode::ReadWrite);
  if (!vfs::pwrite_all(file, raw, address, config_.h5_options.data_chunk_bytes)) {
    throw h5::H5Exception("short write of slab update");
  }
  file.fsync();
}

void NyxApp::run_stages(const core::RunContext& ctx, int first, int last) const {
  // Stage 0 is the field warm-up, done by every range: an empty prefix still
  // fills the cache so per-run forks don't race to generate it (they would
  // anyway serialize on the cache's lock).  Shared ownership keeps the field
  // alive even if a concurrent cell with a different seed evicts the cache
  // entry mid-run.
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

core::AnalysisResult NyxApp::analysis_from_catalog(const HaloCatalog& catalog) const {
  core::AnalysisResult result;
  result.path = catalog.path;
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
/// (values AND the float format the clean metadata implies), the planned
/// raw-data placement, and the golden bytes around the raw data.  One
/// instance per campaign cell, shared by all runs.
struct NyxGoldenArtifacts final : core::GoldenArtifacts {
  h5::Dataset dataset;          ///< golden values + format, as the reader saw them
  std::uint64_t data_begin = 0; ///< raw-data byte range within the plotfile
  std::uint64_t data_end = 0;
  std::uint64_t file_size = 0;  ///< planned (== golden) total file size
  util::Bytes head;             ///< golden bytes [0, data_begin)
  util::Bytes tail;             ///< golden bytes [data_end, file_size)
  std::optional<HaloIndex> halos;  ///< over dataset.data, for the spliced runs
};

/// True when the bytes of `window` (file offsets [begin, begin + size))
/// that lie outside [data_begin, data_end) equal the golden bytes there.
bool outside_data_matches(const NyxGoldenArtifacts& art, std::uint64_t begin,
                          util::ByteSpan window) {
  const std::uint64_t end = begin + window.size();
  if (begin < art.data_begin) {
    const std::uint64_t stop = std::min(end, art.data_begin);
    const util::ByteSpan got = window.first(static_cast<std::size_t>(stop - begin));
    if (!std::equal(got.begin(), got.end(),
                    art.head.begin() + static_cast<std::ptrdiff_t>(begin))) {
      return false;
    }
  }
  if (end > art.data_end) {
    const std::uint64_t from = std::max(begin, art.data_end);
    const util::ByteSpan got = window.subspan(static_cast<std::size_t>(from - begin));
    if (!std::equal(got.begin(), got.end(),
                    art.tail.begin() + static_cast<std::ptrdiff_t>(from - art.data_end))) {
      return false;
    }
  }
  return true;
}

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
  artifacts->head.resize(static_cast<std::size_t>(range.begin));
  artifacts->tail.resize(static_cast<std::size_t>(info.file_size - range.end));
  vfs::File file(golden_fs, config_.plotfile_path, vfs::OpenMode::Read);
  if (file.pread(artifacts->head, 0) != artifacts->head.size() ||
      file.pread(artifacts->tail, range.end) != artifacts->tail.size()) {
    throw h5::H5Exception("golden plotfile is shorter than its planned layout");
  }
  artifacts->halos.emplace(config_.field.n, artifacts->dataset.data, config_.halo);
  return artifacts;
}

core::AnalysisResult NyxApp::analyze_dirty(vfs::FileSystem& fs, const vfs::FsDiff& diff,
                                           const core::AnalysisResult& golden,
                                           const core::GoldenArtifacts* artifacts) const {
  const std::string& path = config_.plotfile_path;
  // The analysis depends only on the plotfile; a diff that never touches it
  // (a leaked .lock marker, a stray file) analyzes exactly like the golden.
  if (!diff.touches(path)) return golden.via(core::AnalysisPath::Spliced);

  const auto* art = dynamic_cast<const NyxGoldenArtifacts*>(artifacts);
  const vfs::FileDiff* fd = diff.find(path);
  // Splicing is provably equivalent only for a pure in-place content change
  // that leaves every byte outside the dataset's raw data as the golden run
  // wrote it: metadata corruption must go through the real parser (crashes,
  // ARD shifts, format re-interpretation), and size changes shift what reads
  // return.
  if (art == nullptr || fd == nullptr || fd->metadata_changed ||
      fd->size != fd->base_size || fd->size != art->file_size) {
    return analyze(fs);
  }

  // Re-read each dirty range once, widened to whole elements where it
  // overlaps the raw data.  Its bytes outside the raw data (a dirty extent
  // shared with the header, say) must equal the golden bytes; its elements
  // are decoded into this run's patch buffer.  Element decode is positionally
  // independent, so the golden field with these patches spliced over it is
  // bit-identical to a full read — at O(dirty bytes) I/O and no field copy —
  // and the golden HaloIndex finds its halos in time proportional to the
  // patches, bit-identical to find_halos on the full read.
  const std::size_t element = art->dataset.format.size_bytes;
  std::size_t bound = 0;  // elements the ranges can touch: `decoded` never reallocates
  for (const vfs::ByteRange& r : fd->ranges) {
    bound += static_cast<std::size_t>(r.length / element) + 2;
  }
  std::vector<double> decoded;
  decoded.reserve(bound);
  std::vector<FieldPatch> patches;
  std::size_t next_free = 0;  // a straddled element is decoded only once
  vfs::File file(fs, path, vfs::OpenMode::Read);
  util::Bytes raw;
  for (const vfs::ByteRange& r : fd->ranges) {
    std::uint64_t begin = r.offset, end = r.end();
    std::size_t first = 0, last = 0;  // elements [first, last) overlap the range
    if (r.overlaps(art->data_begin, art->data_end)) {
      first = static_cast<std::size_t>(
          (std::max(begin, art->data_begin) - art->data_begin) / element);
      last = static_cast<std::size_t>(
          (std::min(end, art->data_end) - art->data_begin + element - 1) / element);
      begin = std::min(begin, art->data_begin + first * element);
      end = std::max(end, art->data_begin + last * element);
    }
    raw.resize(static_cast<std::size_t>(end - begin));
    if (file.pread(raw, begin) != raw.size()) {
      return analyze(fs);  // short read despite matching sizes — be faithful
    }
    if (!outside_data_matches(*art, begin, raw)) return analyze(fs);

    first = std::max(first, next_free);
    if (first >= last) continue;
    const std::size_t count = last - first;
    const auto skip = static_cast<std::size_t>(art->data_begin + first * element - begin);
    decoded.resize(decoded.size() + count);
    const std::span<double> values = std::span(decoded).last(count);
    h5::decode_into(util::ByteSpan(raw).subspan(skip, count * element), art->dataset.format,
                    values);
    patches.push_back({first, values});
    next_free = last;
  }
  return analysis_from_catalog(art->halos->find_halos(art->dataset.data, patches));
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

std::string NyxApp::state_fingerprint() const {
  const FieldConfig& f = config_.field;
  const HaloFinderConfig& h = config_.halo;
  return "nyx/2;n=" + std::to_string(f.n) + ";halos=" + std::to_string(f.halo_count) +
         ";sig=" + util::hexf(f.sigma_min) + "," + util::hexf(f.sigma_max) +
         ";amp=" + util::hexf(f.amplitude_min) + "," + util::hexf(f.amplitude_max) +
         ";logn=" + util::hexf(f.lognormal_sigma) + ";thr=" + util::hexf(h.threshold_factor) +
         ";mincells=" + std::to_string(h.min_cells) + ";" +
         h5::options_fingerprint(config_.h5_options) + ";path=" + util::fpstr(config_.plotfile_path) +
         ";t=" + std::to_string(config_.timesteps) + ";growth=" + util::hexf(config_.slab_growth) +
         ";avg=" + (config_.use_average_value_detector ? "1" : "0") + "," +
         util::hexf(config_.average_value_tolerance);
}

}  // namespace ffis::nyx
