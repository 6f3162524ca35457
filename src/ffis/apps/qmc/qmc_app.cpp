#include "ffis/apps/qmc/qmc_app.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ffis/util/serialize.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::qmc {

QmcApp::QmcApp(QmcAppConfig config) : config_(std::move(config)) {}

std::shared_ptr<const QmcApp::Trace> QmcApp::trace(std::uint64_t seed) const {
  std::lock_guard lock(cache_mutex_);
  if (!cached_trace_ || cached_seed_ != seed) {
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL);
    auto t = std::make_shared<Trace>();
    VmcResult vmc = run_vmc(config_.psi, config_.vmc, rng);
    DmcResult dmc = run_dmc(config_.psi, std::move(vmc.walkers), config_.dmc, rng);
    t->vmc_rows = std::move(vmc.rows);
    t->dmc_rows = std::move(dmc.rows);
    t->dmc_mean_energy = dmc.mean_energy;
    render(*t);
    cached_trace_ = std::move(t);
    cached_seed_ = seed;
  }
  return cached_trace_;
}

void QmcApp::render(Trace& t) const {
  t.vmc_text = render_scalar_file(t.vmc_rows, config_.io);
  t.dmc_text = render_scalar_file(t.dmc_rows, config_.io);
}

void QmcApp::run_stages(const core::RunContext& ctx, int first, int last) const {
  const auto t = trace(ctx.app_seed);

  if (first == 0) {
    // Input echo, written first like QMCPACK's <project>.cont.xml.
    const std::string xml = util::fmt(
        "<?xml version=\"1.0\"?>\n<simulation>\n"
        "  <project id=\"He\" series=\"0\"/>\n"
        "  <qmc method=\"vmc\" walkers=\"{}\" steps=\"{}\"/>\n"
        "  <qmc method=\"dmc\" walkers=\"{}\" steps=\"{}\" timestep=\"{}\"/>\n"
        "</simulation>\n",
        config_.vmc.walkers, config_.vmc.steps, config_.dmc.target_walkers,
        config_.dmc.steps, config_.dmc.tau);
    vfs::write_text_file(ctx.fs, config_.prefix + ".cont.xml", xml);
  }

  if (first <= 1 && 1 <= last) {
    ctx.enter_stage(1);
    write_scalar_text(ctx.fs, vmc_path(), t->vmc_text);
    ctx.leave_stage(1);
  }
  if (first <= 2 && 2 <= last) {
    ctx.enter_stage(2);
    write_scalar_text(ctx.fs, dmc_path(), t->dmc_text);
    ctx.leave_stage(2);
  }
}

namespace {

std::string_view as_text(const util::Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// The paper compares He.s001.scalar.dat bit-wise and then post-analyzes it.
core::AnalysisResult analysis_from(util::Bytes s001, const QmcaResult& qmca) {
  core::AnalysisResult result;
  result.comparison_blob = std::move(s001);
  result.report = util::fmt("He series 001: E = {:.6f} +/- {:.6f} Ha ({} rows, {} skipped{})\n",
                            qmca.mean_energy, qmca.error_bar, qmca.rows_used,
                            qmca.rows_skipped,
                            qmca.nul_bytes_found ? ", binary garbage detected" : "");
  result.metrics["energy"] = qmca.mean_energy;
  result.metrics["error_bar"] = qmca.error_bar;
  result.metrics["rows_used"] = static_cast<double>(qmca.rows_used);
  result.metrics["rows_skipped"] = static_cast<double>(qmca.rows_skipped);
  result.metrics["nul_detected"] = qmca.nul_bytes_found ? 1.0 : 0.0;
  return result;
}

/// The golden s001 series, indexed for splicing.  One per campaign cell.
struct QmcGoldenArtifacts final : core::GoldenArtifacts {
  ScalarIndex series;
};

}  // namespace

core::AnalysisResult QmcApp::analyze(vfs::FileSystem& fs) const {
  util::Bytes s001 = vfs::read_file(fs, dmc_path());
  const QmcaResult qmca = analyze_scalar_text(as_text(s001), config_.qmca);
  return analysis_from(std::move(s001), qmca);
}

std::shared_ptr<const core::GoldenArtifacts> QmcApp::golden_artifacts(
    vfs::FileSystem& golden_fs, const core::AnalysisResult& /*golden*/) const {
  std::optional<ScalarIndex> series = index_scalar_text(vfs::read_text_file(golden_fs, dmc_path()));
  if (!series) return nullptr;
  auto artifacts = std::make_shared<QmcGoldenArtifacts>();
  artifacts->series = std::move(*series);
  return artifacts;
}

core::AnalysisResult QmcApp::analyze_dirty(vfs::FileSystem& fs, const vfs::FsDiff& diff,
                                           const core::AnalysisResult& golden,
                                           const core::GoldenArtifacts* artifacts) const {
  if (!diff.touches(dmc_path())) return golden;
  util::Bytes s001 = vfs::read_file(fs, dmc_path());
  const auto* art = dynamic_cast<const QmcGoldenArtifacts*>(artifacts);
  const vfs::FileDiff* fd = diff.find(dmc_path());
  std::optional<QmcaResult> qmca;
  if (art != nullptr && fd != nullptr && !fd->metadata_changed) {
    qmca = splice_scalar_text(art->series, as_text(s001), fd->ranges, config_.qmca);
  }
  if (!qmca) qmca = analyze_scalar_text(as_text(s001), config_.qmca);
  return analysis_from(std::move(s001), *qmca);
}

core::Outcome QmcApp::classify(const core::AnalysisResult& /*golden*/,
                               const core::AnalysisResult& faulty) const {
  // Binary garbage in the text series is corruption the tool chain reports.
  if (faulty.metric("nul_detected") != 0.0) return core::Outcome::Detected;
  const double energy = faulty.metric("energy");
  if (std::isfinite(energy) && energy >= config_.sdc_window_low &&
      energy <= config_.sdc_window_high) {
    return core::Outcome::Sdc;
  }
  return core::Outcome::Detected;
}

namespace {

constexpr std::string_view kStateTag = "qmc-state/1";

void write_rows(util::ByteWriter& w, const std::vector<ScalarRow>& rows) {
  w.u64(rows.size());
  for (const ScalarRow& row : rows) {
    w.u64(row.index);
    w.f64(row.local_energy);
    w.f64(row.variance);
    w.f64(row.weight);
  }
}

/// Validates the stored count against the configured series length BEFORE
/// reserving — an untrusted blob must fail cheaply, not via a huge reserve.
std::vector<ScalarRow> read_rows(util::ByteReader& r, std::uint64_t expected) {
  const std::uint64_t n = r.u64();
  if (n != expected) {
    throw std::invalid_argument("scalar series length mismatch");
  }
  std::vector<ScalarRow> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ScalarRow row;
    row.index = r.u64();
    row.local_energy = r.f64();
    row.variance = r.f64();
    row.weight = r.f64();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

std::string QmcApp::state_fingerprint() const {
  const QmcAppConfig& c = config_;
  return "qmc/1;psi=" + util::hexf(c.psi.z) + "," + util::hexf(c.psi.a) + "," + util::hexf(c.psi.b) +
         ";vmc=" + std::to_string(c.vmc.walkers) + "," + std::to_string(c.vmc.steps) +
         "," + std::to_string(c.vmc.warmup_steps) + "," + util::hexf(c.vmc.step_sigma) +
         ";dmc=" + std::to_string(c.dmc.target_walkers) + "," +
         std::to_string(c.dmc.steps) + "," + std::to_string(c.dmc.warmup_steps) + "," +
         util::hexf(c.dmc.tau) + "," + util::hexf(c.dmc.feedback) + "," +
         std::to_string(c.dmc.max_population_factor) +
         ";flush=" + std::to_string(c.io.flush_bytes) +
         ";equil=" + std::to_string(c.qmca.equilibration_rows) + ";prefix=" + util::fpstr(c.prefix) +
         ";sdc=" + util::hexf(c.sdc_window_low) + "," + util::hexf(c.sdc_window_high);
}

util::Bytes QmcApp::serialize_state(std::uint64_t app_seed) const {
  const std::shared_ptr<const Trace> t = trace(app_seed);
  util::Bytes out;
  util::ByteWriter w(out);
  w.str(kStateTag);
  w.u64(app_seed);
  write_rows(w, t->vmc_rows);
  write_rows(w, t->dmc_rows);
  w.f64(t->dmc_mean_energy);
  return out;
}

bool QmcApp::restore_state(std::uint64_t app_seed, util::ByteSpan state) const {
  {
    // Two checkpoint entries of one (app, seed) carry identical blobs;
    // decoding the second would only overwrite an identical cache.
    std::lock_guard lock(cache_mutex_);
    if (cached_trace_ && cached_seed_ == app_seed) return true;
  }
  try {
    util::ByteReader r(state);
    if (r.str() != kStateTag) return false;
    if (r.u64() != app_seed) return false;
    auto t = std::make_shared<Trace>();
    t->vmc_rows = read_rows(r, config_.vmc.steps);
    t->dmc_rows = read_rows(r, config_.dmc.steps);
    t->dmc_mean_energy = r.f64();
    r.expect_end();
    render(*t);
    std::lock_guard lock(cache_mutex_);
    cached_trace_ = std::move(t);
    cached_seed_ = app_seed;
    return true;
  } catch (const std::exception&) {
    return false;  // truncated or foreign blob: recompute lazily instead
  }
}

}  // namespace ffis::qmc
