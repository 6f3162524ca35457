// Unit tests for the mini-QMCPACK application: wavefunction analytics (vs
// numerical derivatives), VMC/DMC physics, scalar I/O and QMCA parsing,
// the pinned pwrite streams of both scalar series, and the spliced QMCA
// against the full parse on corrupted series.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <span>

#include "ffis/apps/qmc/dmc.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/apps/qmc/qmca.hpp"
#include "ffis/apps/qmc/scalar_io.hpp"
#include "ffis/apps/qmc/vmc.hpp"
#include "ffis/apps/qmc/wavefunction.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "write_recording.hpp"

namespace {

using namespace ffis;
using qmc::TrialWavefunction;
using qmc::Vec3;
using qmc::Walker;

// --- wavefunction: analytic derivatives vs finite differences ------------------------

double numerical_laplacian_log_psi(const TrialWavefunction& psi, const Walker& w) {
  // Sum over both electrons of (nabla^2 f + |grad f|^2) where f = ln psi —
  // i.e. (nabla^2 psi)/psi, via central differences on f.
  const double h = 1e-5;
  const double f0 = psi.log_psi(w);
  double lap_f = 0.0;
  double grad_sq = 0.0;
  for (int electron = 0; electron < 2; ++electron) {
    for (int k = 0; k < 3; ++k) {
      Walker plus = w, minus = w;
      auto& rp = (electron == 0) ? plus.r1 : plus.r2;
      auto& rm = (electron == 0) ? minus.r1 : minus.r2;
      rp[k] += h;
      rm[k] -= h;
      const double fp = psi.log_psi(plus);
      const double fm = psi.log_psi(minus);
      lap_f += (fp - 2.0 * f0 + fm) / (h * h);
      const double df = (fp - fm) / (2.0 * h);
      grad_sq += df * df;
    }
  }
  return lap_f + grad_sq;
}

Walker test_walker(double scale = 1.0) {
  Walker w;
  w.r1 = {0.7 * scale, -0.4 * scale, 0.5 * scale};
  w.r2 = {-0.6 * scale, 0.8 * scale, -0.3 * scale};
  return w;
}

class WavefunctionDerivatives : public ::testing::TestWithParam<double> {};

TEST_P(WavefunctionDerivatives, LocalEnergyMatchesFiniteDifference) {
  const TrialWavefunction psi{};
  const Walker w = test_walker(GetParam());
  const double r1 = qmc::norm(w.r1);
  const double r2 = qmc::norm(w.r2);
  const double r12 = std::sqrt((w.r1[0] - w.r2[0]) * (w.r1[0] - w.r2[0]) +
                               (w.r1[1] - w.r2[1]) * (w.r1[1] - w.r2[1]) +
                               (w.r1[2] - w.r2[2]) * (w.r1[2] - w.r2[2]));
  const double potential = -2.0 / r1 - 2.0 / r2 + 1.0 / r12;
  const double expected = -0.5 * numerical_laplacian_log_psi(psi, w) + potential;
  EXPECT_NEAR(psi.local_energy(w), expected, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Scales, WavefunctionDerivatives,
                         ::testing::Values(0.5, 1.0, 1.7, 3.0));

TEST(Wavefunction, DriftMatchesFiniteDifferenceGradient) {
  const TrialWavefunction psi{};
  const Walker w = test_walker();
  Vec3 g1{}, g2{};
  psi.drift(w, g1, g2);
  const double h = 1e-6;
  for (int k = 0; k < 3; ++k) {
    Walker plus = w, minus = w;
    plus.r1[k] += h;
    minus.r1[k] -= h;
    EXPECT_NEAR(g1[k], (psi.log_psi(plus) - psi.log_psi(minus)) / (2 * h), 1e-5);
    plus = w;
    minus = w;
    plus.r2[k] += h;
    minus.r2[k] -= h;
    EXPECT_NEAR(g2[k], (psi.log_psi(plus) - psi.log_psi(minus)) / (2 * h), 1e-5);
  }
}

TEST(Wavefunction, ElectronNucleusCuspKeepsLocalEnergyFinite) {
  // With Z = Z_nuc the -2/r divergence cancels: E_L stays bounded as r1 -> 0.
  const TrialWavefunction psi{};
  Walker w = test_walker();
  for (const double r : {1e-2, 1e-4, 1e-6}) {
    w.r1 = {r, 0.0, 0.0};
    EXPECT_LT(std::fabs(psi.local_energy(w)), 50.0) << "r1 = " << r;
  }
}

TEST(Wavefunction, ElectronElectronCuspKeepsLocalEnergyFinite) {
  const TrialWavefunction psi{};
  Walker w;
  w.r1 = {0.5, 0.0, 0.0};
  for (const double d : {1e-2, 1e-4, 1e-6}) {
    w.r2 = {0.5 + d, 0.0, 0.0};
    EXPECT_LT(std::fabs(psi.local_energy(w)), 50.0) << "r12 = " << d;
  }
}

TEST(Wavefunction, LogPsiDecreasesWithDistance) {
  const TrialWavefunction psi{};
  EXPECT_GT(psi.log_psi(test_walker(0.5)), psi.log_psi(test_walker(2.0)));
}

// --- VMC ---------------------------------------------------------------------------

TEST(Vmc, ReasonableAcceptanceAndEnergy) {
  const TrialWavefunction psi{};
  qmc::VmcConfig config;
  config.walkers = 128;
  config.steps = 100;
  config.warmup_steps = 100;
  util::Rng rng(1);
  const auto result = qmc::run_vmc(psi, config, rng);
  EXPECT_GT(result.acceptance, 0.3);
  EXPECT_LT(result.acceptance, 0.95);
  ASSERT_EQ(result.rows.size(), 100u);
  double mean = 0;
  for (const auto& row : result.rows) mean += row.local_energy;
  mean /= static_cast<double>(result.rows.size());
  // VMC with this trial function sits above the exact energy but below -2.7.
  EXPECT_LT(mean, -2.7);
  EXPECT_GT(mean, -3.1);
  EXPECT_EQ(result.walkers.size(), config.walkers);
}

TEST(Vmc, RowsAreIndexedSequentially) {
  const TrialWavefunction psi{};
  qmc::VmcConfig config;
  config.walkers = 32;
  config.steps = 50;
  config.warmup_steps = 10;
  util::Rng rng(2);
  const auto result = qmc::run_vmc(psi, config, rng);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
    EXPECT_GE(result.rows[i].variance, 0.0);
    EXPECT_EQ(result.rows[i].weight, 32.0);
  }
}

// --- DMC ---------------------------------------------------------------------------

TEST(Dmc, ProjectsTowardsExactEnergy) {
  const TrialWavefunction psi{};
  qmc::VmcConfig vmc_config;
  vmc_config.walkers = 512;
  vmc_config.steps = 50;
  vmc_config.warmup_steps = 150;
  qmc::DmcConfig dmc_config;
  dmc_config.target_walkers = 512;
  dmc_config.steps = 400;
  dmc_config.warmup_steps = 100;
  util::Rng rng(1);
  auto vmc = qmc::run_vmc(psi, vmc_config, rng);
  const auto dmc = qmc::run_dmc(psi, std::move(vmc.walkers), dmc_config, rng);
  // Exact He ground state: -2.90372 Ha.  Statistical tolerance is generous.
  EXPECT_NEAR(dmc.mean_energy, -2.90372, 0.02);
}

TEST(Dmc, PopulationStaysNearTarget) {
  const TrialWavefunction psi{};
  qmc::VmcConfig vmc_config;
  vmc_config.walkers = 128;
  vmc_config.steps = 10;
  vmc_config.warmup_steps = 50;
  qmc::DmcConfig dmc_config;
  dmc_config.target_walkers = 128;
  dmc_config.steps = 100;
  dmc_config.warmup_steps = 20;
  util::Rng rng(3);
  auto vmc = qmc::run_vmc(psi, vmc_config, rng);
  const auto dmc = qmc::run_dmc(psi, std::move(vmc.walkers), dmc_config, rng);
  for (const auto& row : dmc.rows) {
    EXPECT_GT(row.weight, 128.0 * 0.3);
    EXPECT_LT(row.weight, 128.0 * 3.0);
  }
}

TEST(Dmc, EmptySeedPopulationRejected) {
  const TrialWavefunction psi{};
  util::Rng rng(1);
  EXPECT_THROW((void)qmc::run_dmc(psi, {}, qmc::DmcConfig{}, rng), std::invalid_argument);
}

// --- scalar I/O & QMCA -----------------------------------------------------------------

TEST(ScalarIo, RowFormatIsFixedWidth) {
  qmc::ScalarRow row;
  row.index = 42;
  row.local_energy = -2.90372;
  row.variance = 0.81;
  row.weight = 1024;
  const std::string line = qmc::format_row(row);
  EXPECT_EQ(line.size(), 65u);  // 16+1+15+1+15+1+15+1('\n')
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("-2.90372000"), std::string::npos);
}

TEST(ScalarIo, WriteProducesHeaderPlusFlushes) {
  std::vector<qmc::ScalarRow> rows(200);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].index = i;
    rows[i].local_energy = -2.9;
  }
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  qmc::write_scalar_text(counting, "/s.dat", qmc::render_scalar_file(rows));
  // Header write + ceil(200*65/4096)-ish buffered flushes.
  EXPECT_GE(counting.count(vfs::Primitive::Pwrite), 4u);
  const std::string text = vfs::read_text_file(backing, "/s.dat");
  EXPECT_EQ(text.find(qmc::scalar_header()), 0u);
}

TEST(Qmca, AnalyzesCleanSeries) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 300; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9 + 0.001 * ((i % 5) - 2);
    text += qmc::format_row(row);
  }
  qmc::QmcaOptions options;
  options.equilibration_rows = 100;
  const auto result = qmc::analyze_scalar_text(text, options);
  EXPECT_EQ(result.rows_used, 200u);
  EXPECT_EQ(result.rows_skipped, 0u);
  EXPECT_FALSE(result.nul_bytes_found);
  EXPECT_NEAR(result.mean_energy, -2.9, 0.002);
  EXPECT_GT(result.error_bar, 0.0);
}

TEST(Qmca, MissingHeaderThrows) {
  EXPECT_THROW((void)qmc::analyze_scalar_text("1 -2.9 0.8 64\n"), qmc::QmcaError);
  EXPECT_THROW((void)qmc::analyze_scalar_text("# wrong columns\n1 -2.9\n"),
               qmc::QmcaError);
  EXPECT_THROW((void)qmc::analyze_scalar_text(""), qmc::QmcaError);
}

TEST(Qmca, NulBytesAreFlaggedNotFatal) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 150; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  text += std::string(64, '\0');  // a dropped write's hole
  for (int i = 150; i < 300; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  const auto result = qmc::analyze_scalar_text(text);
  EXPECT_TRUE(result.nul_bytes_found);
  EXPECT_GE(result.rows_skipped, 1u);
}

TEST(Qmca, GarbageRowsAreSkipped) {
  std::string text = qmc::scalar_header();
  for (int i = 0; i < 150; ++i) {
    qmc::ScalarRow row;
    row.index = static_cast<std::uint64_t>(i);
    row.local_energy = -2.9;
    text += qmc::format_row(row);
  }
  text += "xxxx not a row\n";
  const auto result = qmc::analyze_scalar_text(text, {.equilibration_rows = 10});
  EXPECT_EQ(result.rows_skipped, 1u);
  EXPECT_EQ(result.rows_used, 140u);
}

TEST(Qmca, TooFewRowsThrows) {
  std::string text = qmc::scalar_header();
  text += qmc::format_row({});
  EXPECT_THROW((void)qmc::analyze_scalar_text(text, {.equilibration_rows = 100}),
               qmc::QmcaError);
}

// --- QmcApp -----------------------------------------------------------------------------

class QmcAppEnergy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QmcAppEnergy, GoldenEnergyInsidePaperWindow) {
  qmc::QmcApp app;
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = GetParam(), .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  const auto analysis = app.analyze(fs);
  const double energy = analysis.metric("energy");
  // Golden runs must land inside [-2.91, -2.90] for the paper's
  // classification to be meaningful.
  EXPECT_GE(energy, -2.91) << "seed " << GetParam();
  EXPECT_LE(energy, -2.90) << "seed " << GetParam();
  EXPECT_LT(analysis.metric("error_bar"), 0.002);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmcAppEnergy, ::testing::Values(1u, 7u, 24263u));

TEST(QmcApp, WritesThreeFiles) {
  qmc::QmcApp app;
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  EXPECT_TRUE(fs.exists("/He.cont.xml"));
  EXPECT_TRUE(fs.exists("/He.s000.scalar.dat"));
  EXPECT_TRUE(fs.exists("/He.s001.scalar.dat"));
}

TEST(QmcApp, TraceIsCachedPerSeed) {
  qmc::QmcApp app;
  const auto t1 = app.trace(1);
  const auto t2 = app.trace(1);
  EXPECT_EQ(t1.get(), t2.get());
  const auto t3 = app.trace(2);
  EXPECT_NE(t1->dmc_mean_energy, t3->dmc_mean_energy);
}

TEST(QmcApp, ClassifyRules) {
  qmc::QmcApp app;
  core::AnalysisResult golden, faulty;
  faulty.metrics["nul_detected"] = 0.0;
  faulty.metrics["energy"] = -2.905;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Sdc);  // in window
  faulty.metrics["energy"] = -2.92;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);
  faulty.metrics["energy"] = -2.905;
  faulty.metrics["nul_detected"] = 1.0;
  EXPECT_EQ(app.classify(golden, faulty), core::Outcome::Detected);  // NULs flagged
}

// --- write-sequence pins ----------------------------------------------------------------
//
// Every run reissues the pwrite chunks of its trace's rendered text.  The
// lists below were recorded from the per-run formatting writer that text
// replaced; instance selection and every FsStats counter depend on them.

using test_support::RecordingFs;
using test_support::WriteRecord;

/// One app for every pin, so the seed-42 trace is simulated once.
const qmc::QmcApp& pinned_app() {
  static const qmc::QmcApp app;
  return app;
}

core::RunContext seed42(vfs::FileSystem& fs) {
  return core::RunContext{.fs = fs, .app_seed = 42, .instrumented_stage = -1,
                          .instrument = nullptr};
}

/// The pwrites of a fault-free seed-42 run, one list per scalar series: the
/// run writes s000, then s001, each starting with its header at offset 0.
std::vector<std::vector<WriteRecord>> series_writes(const qmc::QmcApp& app) {
  vfs::MemFs backing;
  app.run_prefix(seed42(backing), 1);  // the input echo
  RecordingFs recording(backing);
  app.run_from(seed42(recording), 1);
  std::vector<std::vector<WriteRecord>> series;
  for (const WriteRecord& w : recording.writes()) {
    if (w.offset == 0) series.emplace_back();
    series.back().push_back(w);
  }
  return series;
}

std::uint64_t digest(const std::vector<WriteRecord>& writes) {
  std::uint64_t d = util::fnv1a64({});
  for (const WriteRecord& w : writes) {
    for (const std::uint64_t v : {w.offset, w.length, w.fnv}) {
      d = util::fnv1a64(std::as_bytes(std::span(&v, 1)), d);
    }
  }
  return d;
}

/// Lets the `target`-th pwrite (0-based) land only its first half and
/// reports that, as a device accepting a partial write does.
class ShortWriteFs : public vfs::PassthroughFs {
 public:
  ShortWriteFs(vfs::FileSystem& inner, std::size_t target)
      : PassthroughFs(inner), target_(target) {}

  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override {
    const util::ByteSpan forward = returned_.size() == target_ ? buf.first(buf.size() / 2) : buf;
    returned_.push_back(PassthroughFs::pwrite(fh, forward, offset));
    return returned_.back();
  }

  [[nodiscard]] const std::vector<std::size_t>& returned() const noexcept { return returned_; }

 private:
  std::size_t target_;
  std::vector<std::size_t> returned_;
};

TEST(QmcWriteSequence, SeriesWriteStreamsArePinned) {
  const auto series = series_writes(pinned_app());
  ASSERT_EQ(series.size(), 2u);
  // s000: the header, then 4,160-byte flushes (64 rows of 65 bytes).
  const std::vector<WriteRecord> vmc = {
      {0, 65, 0xec81e51a24500e18ULL},      {65, 4160, 0x2515bf2fbe2b16a1ULL},
      {4225, 4160, 0x7eb81822a59e385eULL},  {8385, 4160, 0x18d17e64e35b43cbULL},
      {12545, 4160, 0x77a1d22944177af0ULL}, {16705, 4160, 0xe6a2c29a883f6ffaULL},
      {20865, 4160, 0xbb94f40a94d74d1eULL}, {25025, 4160, 0xf051352ec93dd81bULL},
      {29185, 4160, 0x71c0f9543f0d9526ULL}, {33345, 4160, 0xabde01434789ce2ULL},
      {37505, 4160, 0x3fdd7622b4c16211ULL}, {41665, 4160, 0x7b22e3171b438b14ULL},
      {45825, 4160, 0x3678331ed53b5690ULL}, {49985, 2080, 0xb37f959b69354359ULL},
  };
  const std::vector<WriteRecord> dmc = {
      {0, 65, 0xec81e51a24500e18ULL},      {65, 4160, 0xaffa7549e3af2e13ULL},
      {4225, 4160, 0xd1636776741653ecULL},  {8385, 4160, 0xc814e0c0d74ec6f7ULL},
      {12545, 4160, 0x9b3fe5bc7c36242fULL}, {16705, 4160, 0x803d2d8b3273d60ULL},
      {20865, 4160, 0x45c93622b37aa825ULL}, {25025, 4160, 0x259c736af4d96f73ULL},
      {29185, 4160, 0xa8f5b7f488b10c05ULL}, {33345, 4160, 0x26b0d112e8634d6dULL},
      {37505, 4160, 0xa20cd83fbc4d9e04ULL}, {41665, 4160, 0xbdd7e4b6363df6c9ULL},
      {45825, 4160, 0x259fc3cf71081b55ULL}, {49985, 4160, 0xea18cb9dd9096904ULL},
      {54145, 4160, 0x4f80804c16186502ULL}, {58305, 4160, 0x94840f9445394b02ULL},
      {62465, 4160, 0x9c0237b9dc469c2cULL}, {66625, 4160, 0xf2967b5f6825d139ULL},
      {70785, 4160, 0x72e4f46030289663ULL}, {74945, 4160, 0xeba6ff5afae54a4eULL},
      {79105, 4160, 0xaad540b7d1e91634ULL}, {83265, 4160, 0xe3aa0554dee07817ULL},
      {87425, 4160, 0xb1706fc5499224aeULL}, {91585, 4160, 0x35c0264f2ce956d6ULL},
      {95745, 1820, 0x9380fb1325f90e84ULL},
  };
  EXPECT_EQ(series[0], vmc);
  EXPECT_EQ(series[1], dmc);
}

TEST(QmcWriteSequence, ShortWriteAdvancesLaterChunksByTheReturnedSize) {
  const qmc::QmcApp& app = pinned_app();
  vfs::MemFs backing;
  app.run_prefix(seed42(backing), 2);
  ShortWriteFs shortening(backing, 3);
  RecordingFs recording(shortening);
  app.run_from(seed42(recording), 2);

  const auto& writes = recording.writes();
  const auto& returned = shortening.returned();
  ASSERT_EQ(writes.size(), 25u);
  ASSERT_EQ(returned.size(), writes.size());
  EXPECT_EQ(returned[3], writes[3].length / 2);
  for (std::size_t i = 1; i < writes.size(); ++i) {
    EXPECT_EQ(writes[i].offset, writes[i - 1].offset + returned[i - 1]) << "pwrite " << i;
  }
  EXPECT_EQ(digest(writes), 0xed9894ecf5ed1347ULL);
  EXPECT_EQ(util::fnv1a64(vfs::read_file(backing, app.dmc_path())), 0x77a6ca76f22ef383ULL);
}

TEST(QmcWriteSequence, ShornAndDroppedChunksKeepTheWriteStream) {
  // FaultingFs reports the full size for a shorn or dropped write, so the
  // writer's stream is the clean one; only what reaches the device differs.
  struct Case {
    const char* fault;
    std::size_t device_writes;
    std::uint64_t device_digest;
    std::uint64_t file_fnv;
  };
  const Case cases[] = {
      {"SHORN_WRITE", 25, 0x24ee1d2a161342f2ULL, 0xbd506c69c6b94e84ULL},
      {"DROPPED_WRITE", 24, 0xef9918232a56d07bULL, 0x8c8bff6df77d598cULL},
  };
  const qmc::QmcApp& app = pinned_app();
  for (const Case& c : cases) {
    vfs::MemFs backing;
    app.run_prefix(seed42(backing), 2);
    RecordingFs device(backing);
    faults::FaultingFs faulting(device);
    faulting.arm(faults::parse_fault_signature(c.fault), 3, 7);
    RecordingFs recording(faulting);
    app.run_from(seed42(recording), 2);
    EXPECT_EQ(recording.writes().size(), 25u) << c.fault;
    EXPECT_EQ(digest(recording.writes()), 0x11d269e0593d64cULL) << c.fault;
    EXPECT_EQ(device.writes().size(), c.device_writes) << c.fault;
    EXPECT_EQ(digest(device.writes()), c.device_digest) << c.fault;
    EXPECT_EQ(util::fnv1a64(vfs::read_file(backing, app.dmc_path())), c.file_fnv) << c.fault;
  }
}

TEST(QmcWriteSequence, RestoredTraceRendersTheSimulatedText) {
  const qmc::QmcApp& simulated = pinned_app();
  const qmc::QmcApp restored;
  ASSERT_TRUE(restored.restore_state(42, simulated.serialize_state(42)));
  const auto want = simulated.trace(42);
  const auto got = restored.trace(42);
  EXPECT_EQ(got->vmc_text.text, want->vmc_text.text);
  EXPECT_EQ(got->vmc_text.chunk_ends, want->vmc_text.chunk_ends);
  EXPECT_EQ(got->dmc_text.text, want->dmc_text.text);
  EXPECT_EQ(got->dmc_text.chunk_ends, want->dmc_text.chunk_ends);
  EXPECT_EQ(series_writes(restored), series_writes(simulated));
}

// --- spliced QMCA vs the full parse -----------------------------------------------------

/// A QMCA verdict: the result, or the text of the QmcaError it threw.
struct Verdict {
  std::optional<qmc::QmcaResult> result;
  std::string error;
};

template <class Analyze>
Verdict verdict_of(Analyze&& analyze) {
  try {
    return {analyze(), {}};
  } catch (const qmc::QmcaError& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_verdict(const Verdict& got, const Verdict& want, const std::string& what) {
  ASSERT_EQ(got.result.has_value(), want.result.has_value()) << what;
  EXPECT_EQ(got.error, want.error) << what;
  if (!want.result) return;
  const qmc::QmcaResult& g = *got.result;
  const qmc::QmcaResult& w = *want.result;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(g.mean_energy), bits(w.mean_energy)) << what;
  EXPECT_EQ(bits(g.error_bar), bits(w.error_bar)) << what;
  EXPECT_EQ(g.rows_used, w.rows_used) << what;
  EXPECT_EQ(g.rows_skipped, w.rows_skipped) << what;
  EXPECT_EQ(g.nul_bytes_found, w.nul_bytes_found) << what;
}

/// A golden series of 60-2,000 rows around the DMC energy, with the odd
/// comment, blank or garbage line so the index's skipped counts matter.
std::string golden_series(util::Rng& rng) {
  std::vector<qmc::ScalarRow> rows(static_cast<std::size_t>(rng.uniform(std::int64_t{60}, 2000)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = {.index = i, .local_energy = rng.gaussian(-2.9037, 0.05),
               .variance = rng.uniform(0.0, 2.0), .weight = rng.uniform(900.0, 1100.0)};
  }
  const std::string rendered = qmc::render_scalar_file(rows).text;
  const std::size_t header = qmc::scalar_header().size();
  std::string text = rendered.substr(0, header);
  const char* extras[] = {"# restart\n", "\n", "xxxx not a row\n", "   \n", "7 nan 0 0\n"};
  for (std::size_t pos = header; pos < rendered.size();) {
    const std::size_t end = rendered.find('\n', pos) + 1;
    text.append(rendered, pos, end - pos);
    if (rng.bernoulli(0.02)) text += extras[rng.uniform(std::size(extras))];
    pos = end;
  }
  return text;
}

/// Corrupts `text` in place, leaving its size unchanged, in one of six ways.
void corrupt(std::string& text, util::Rng& rng, int kind) {
  static constexpr char kAlphabet[] = "\n#+-eE. \t0123456789xinfa\0";
  const auto at = [&] { return static_cast<std::size_t>(rng.uniform(text.size())); };
  const auto run = [&](std::size_t begin) {
    const auto length = static_cast<std::size_t>(rng.uniform(std::int64_t{1}, 5000));
    return std::min(length, text.size() - begin);
  };
  switch (kind) {
    case 0: {  // bit flips, anywhere
      const auto flips = rng.uniform(std::int64_t{1}, 8);
      for (std::int64_t i = 0; i < flips; ++i) {
        text[at()] ^= static_cast<char>(1u << rng.uniform(8));
      }
      break;
    }
    case 1: {  // a NUL run: a dropped write's hole
      const std::size_t begin = at();
      std::fill_n(text.begin() + static_cast<std::ptrdiff_t>(begin), run(begin), '\0');
      break;
    }
    case 2: {  // a run of bytes the parser treats specially
      const std::size_t begin = at();
      const std::size_t length = run(begin);
      for (std::size_t i = 0; i < length; ++i) {
        text[begin + i] = kAlphabet[rng.uniform(sizeof kAlphabet - 1)];
      }
      break;
    }
    case 3: {  // fully random bytes
      const std::size_t begin = at();
      const std::size_t length = run(begin);
      for (std::size_t i = 0; i < length; ++i) text[begin + i] = static_cast<char>(rng());
      break;
    }
    case 4: {  // one byte inside the header line or just after it
      const std::uint64_t pos = rng.uniform(std::min<std::size_t>(text.size(), 80));
      text[pos] = kAlphabet[rng.uniform(sizeof kAlphabet - 1)];
      break;
    }
    default: {  // a few far-apart single-byte changes
      for (int i = 0; i < 3; ++i) text[at()] = kAlphabet[rng.uniform(sizeof kAlphabet - 1)];
      break;
    }
  }
}

/// Dirty ranges covering every byte where `text` differs from `golden`, at
/// a random extent granularity, sometimes widened, merged when adjacent.
std::vector<vfs::ByteRange> dirty_ranges(const std::string& golden, const std::string& text,
                                         util::Rng& rng) {
  const std::uint64_t grains[] = {1, 64, 4096, 65536};
  const std::uint64_t grain = grains[rng.uniform(std::size(grains))];
  const std::uint64_t size = text.size();
  std::vector<vfs::ByteRange> ranges;
  for (std::uint64_t i = 0; i < size; ++i) {
    if (text[i] == golden[i]) continue;
    std::uint64_t begin = i / grain * grain;
    std::uint64_t end = std::min(size, begin + grain);
    if (rng.bernoulli(0.3)) {
      begin -= std::min(begin, rng.uniform(300));
      end = std::min(size, end + rng.uniform(300));
    }
    if (!ranges.empty() && begin <= ranges.back().end()) {
      ranges.back().length = std::max(ranges.back().end(), end) - ranges.back().offset;
    } else {
      ranges.push_back({begin, end - begin});
    }
    i = end - 1;
  }
  if (ranges.empty() || rng.bernoulli(0.1)) ranges = {{0, size}};  // one whole-file range
  return ranges;
}

TEST(QmcaDifferential, SpliceMatchesFullParseOnCorruptedSeries) {
  constexpr int kSeeds = 48;
  constexpr int kCasesPerSeed = 60;
  std::size_t spliced = 0, fallbacks = 0;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed));
    const std::string golden = golden_series(rng);
    const std::optional<qmc::ScalarIndex> index = qmc::index_scalar_text(golden);
    ASSERT_TRUE(index.has_value()) << "seed " << seed;
    for (int c = 0; c < kCasesPerSeed; ++c) {
      const std::uint64_t equilibration[] = {0, 100, 1000};
      const qmc::QmcaOptions options{.equilibration_rows = equilibration[rng.uniform(3)]};
      std::string text = golden;
      corrupt(text, rng, c % 6);
      const std::vector<vfs::ByteRange> ranges = dirty_ranges(golden, text, rng);

      bool fell_back = false;
      const Verdict got = verdict_of([&] {
        const std::optional<qmc::QmcaResult> result =
            qmc::splice_scalar_text(*index, text, ranges, options);
        fell_back = !result;
        return result ? *result : qmc::analyze_scalar_text(text, options);
      });
      const Verdict want = verdict_of([&] { return qmc::analyze_scalar_text(text, options); });
      ++(fell_back ? fallbacks : spliced);
      expect_same_verdict(got, want, "seed " + std::to_string(seed) + " case " + std::to_string(c));
    }
  }
  // Most cases splice; the header-line and identical-bytes cases fall back.
  EXPECT_GT(spliced, fallbacks);
  EXPECT_GT(fallbacks, 0u);
}

TEST(QmcaDifferential, IndexRefusesWhatCannotAnchorASplice) {
  std::string text = qmc::scalar_header() + qmc::format_row({});
  EXPECT_TRUE(qmc::index_scalar_text(text).has_value());
  EXPECT_FALSE(qmc::index_scalar_text("# wrong columns\n1 -2.9\n").has_value());
  text.back() = '\0';
  EXPECT_FALSE(qmc::index_scalar_text(text).has_value());

  // A size change is never spliced.
  const std::optional<qmc::ScalarIndex> index =
      qmc::index_scalar_text(qmc::scalar_header() + qmc::format_row({}));
  ASSERT_TRUE(index.has_value());
  const vfs::ByteRange all{0, index->text.size() + 1};
  EXPECT_FALSE(qmc::splice_scalar_text(*index, index->text + "\n", std::span(&all, 1)));
}

}  // namespace
