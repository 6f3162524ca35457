#include "ffis/apps/qmc/qmc_app.hpp"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "ffis/util/strfmt.hpp"

namespace ffis::qmc {

namespace {

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
  if (n != expected) throw std::invalid_argument("scalar series length mismatch");
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

std::string_view as_text(const util::Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// The paper compares He.s001.scalar.dat bit-wise and then post-analyzes it.
core::AnalysisResult analysis_from(util::Bytes s001, const QmcaResult& qmca,
                                   core::AnalysisPath path) {
  core::AnalysisResult result;
  result.path = path;
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

/// Both series of a trace, rendered once at the configured flush size.
QmcApp::Trace render(std::vector<ScalarRow> vmc, std::vector<ScalarRow> dmc, double mean,
                     const ScalarIoOptions& io) {
  ScalarText vmc_text = render_scalar_file(vmc, io);
  ScalarText dmc_text = render_scalar_file(dmc, io);
  return {std::move(vmc), std::move(dmc), mean, std::move(vmc_text), std::move(dmc_text)};
}

}  // namespace

// The trace persists as its rows and the DMC mean; the text is re-rendered.
QmcApp::QmcApp(QmcAppConfig config)
    : config_(std::move(config)),
      cached_trace_(
          "qmc-state/1",
          [this](std::uint64_t seed) {
            util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL);
            VmcResult vmc = run_vmc(config_.psi, config_.vmc, rng);
            DmcResult dmc = run_dmc(config_.psi, std::move(vmc.walkers), config_.dmc, rng);
            return render(std::move(vmc.rows), std::move(dmc.rows), dmc.mean_energy, config_.io);
          },
          [](const Trace& t, util::ByteWriter& w) {
            write_rows(w, t.vmc_rows);
            write_rows(w, t.dmc_rows);
            w.f64(t.dmc_mean_energy);
          },
          [this](std::uint64_t, util::ByteReader& r) {
            std::vector<ScalarRow> vmc = read_rows(r, config_.vmc.steps);
            std::vector<ScalarRow> dmc = read_rows(r, config_.dmc.steps);
            return render(std::move(vmc), std::move(dmc), r.f64(), config_.io);
          }) {}

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

core::AnalysisResult QmcApp::analyze(vfs::FileSystem& fs) const {
  util::Bytes s001 = vfs::read_file(fs, dmc_path());
  const QmcaResult qmca = analyze_scalar_text(as_text(s001), config_.qmca);
  return analysis_from(std::move(s001), qmca, core::AnalysisPath::FullRead);
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
  if (!diff.touches(dmc_path())) return golden.via(core::AnalysisPath::Spliced);
  util::Bytes s001 = vfs::read_file(fs, dmc_path());
  const auto* art = dynamic_cast<const QmcGoldenArtifacts*>(artifacts);
  const vfs::FileDiff* fd = diff.find(dmc_path());
  std::optional<QmcaResult> qmca;
  if (art != nullptr && fd != nullptr && !fd->metadata_changed) {
    qmca = splice_scalar_text(art->series, as_text(s001), fd->ranges, config_.qmca);
  }
  const core::AnalysisPath path =
      qmca ? core::AnalysisPath::Spliced : core::AnalysisPath::FullRead;
  if (!qmca) qmca = analyze_scalar_text(as_text(s001), config_.qmca);
  return analysis_from(std::move(s001), *qmca, path);
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

}  // namespace ffis::qmc
