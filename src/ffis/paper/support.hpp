#pragma once
// Helpers the paper artifacts share (internal to src/ffis/paper): the
// fault-free traffic count, the Nyx plotfile every metadata injection starts
// from, and the campaign runner/printer.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/paper/paper.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::paper {

/// One fault-free run of `app`, counted.
[[nodiscard]] IoTraffic fault_free_traffic(const core::Application& app);

/// One targeted corruption of a field of the plotfile's dataset header.
struct FieldFault {
  enum class Op { FlipBit, Set, Add };
  Op op = Op::FlipBit;
  const char* field = "";  ///< relative to objectHeader[baryon_density].
  std::int64_t value = 0;  ///< bit index, new value, or delta
};

inline constexpr const char* kClassBitField = "dataType.classBitField0";
inline constexpr const char* kExponentBias = "dataType.floatProperty.exponentBias";
inline constexpr const char* kExponentLocation = "dataType.floatProperty.exponentLocation";
inline constexpr const char* kExponentSize = "dataType.floatProperty.exponentSize";
inline constexpr const char* kMantissaLocation = "dataType.floatProperty.mantissaLocation";
inline constexpr const char* kMantissaSize = "dataType.floatProperty.mantissaSize";
inline constexpr const char* kAddressOfRawData = "layout.addressOfRawData";

/// A fault-free Nyx plotfile on an n^3 grid, with its planned layout: the
/// starting point of every metadata-injection artifact.  The golden tree and
/// its analysis come from core::FaultInjector::run_golden; every case starts
/// from a copy-on-write fork of the tree.
class NyxGolden {
 public:
  explicit NyxGolden(std::size_t grid);

  /// A fork of the golden tree, corrupted by `fault`.
  [[nodiscard]] std::unique_ptr<vfs::MemFs> restore(const FieldFault& fault) const;
  /// The golden baryon-density field.
  [[nodiscard]] nyx::DensityField field() const;
  [[nodiscard]] nyx::DensityField read(vfs::FileSystem& fs) const {
    return nyx::read_plotfile(fs, config.plotfile_path);
  }
  /// The golden post-analysis.
  [[nodiscard]] const core::AnalysisResult& analysis() const { return analysis_; }

  const nyx::NyxConfig config;
  const nyx::NyxApp app;
  const h5::WriteInfo layout;

 private:
  std::shared_ptr<const vfs::MemFs> tree_;
  core::AnalysisResult analysis_;  ///< fills tree_, so declared after it
};

/// A plan builder at the options' sample size and seed.
[[nodiscard]] exp::PlanBuilder campaign(const Options& options);

/// Runs the plan on a fresh engine.  The plan's applications belong to the
/// caller, so the returned cells drop their pointers to them.
[[nodiscard]] exp::ExperimentReport run_campaign(const exp::ExperimentPlan& plan);

/// Replays the report as a console table; a failed cell throws after the
/// table is printed.
void print_campaign(const exp::ExperimentReport& report, std::FILE* out,
                    bool show_primitive_count = false);

/// "runs per cell: N", from the report's first cell.
[[nodiscard]] unsigned long long runs_per_cell(const exp::ExperimentReport& report);

}  // namespace ffis::paper
