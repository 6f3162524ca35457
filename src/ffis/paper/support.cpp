#include "ffis/paper/support.hpp"

#include <stdexcept>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/vfs/counting_fs.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::paper {

namespace {

nyx::NyxConfig nyx_config(std::size_t grid) {
  nyx::NyxConfig config;
  config.field.n = grid;
  return config;
}

/// Regular files under `dir`.
std::size_t count_files(vfs::FileSystem& fs, const std::string& dir) {
  std::size_t files = 0;
  for (const auto& name : fs.readdir(dir)) {
    const std::string path = dir == "/" ? "/" + name : dir + "/" + name;
    files += fs.stat(path).is_dir ? count_files(fs, path) : 1;
  }
  return files;
}

}  // namespace

IoTraffic fault_free_traffic(const core::Application& app) {
  vfs::MemFs backing;
  vfs::CountingFs counting(backing);
  core::run_fault_free(app, 1, counting, 0, app.stage_count());
  IoTraffic traffic;
  traffic.dataset_bytes = backing.total_bytes();
  traffic.files = count_files(backing, "/");
  traffic.preads = counting.count(vfs::Primitive::Pread);
  traffic.pwrites = counting.count(vfs::Primitive::Pwrite);
  traffic.bytes_read = counting.bytes_read();
  traffic.bytes_written = counting.bytes_written();
  return traffic;
}

NyxGolden::NyxGolden(std::size_t grid)
    : config(nyx_config(grid)),
      app(config),
      layout(nyx::plan_plotfile_layout(config.field.n, config.h5_options)),
      analysis_(core::FaultInjector::run_golden(app, 1, &tree_)) {}

std::unique_ptr<vfs::MemFs> NyxGolden::restore(const FieldFault& fault) const {
  auto fs = tree_->fork_unique(vfs::MemFs::Concurrency::SingleThread);
  const std::string& path = config.plotfile_path;
  const std::string name =
      std::string("objectHeader[") + nyx::kDensityDatasetName + "]." + fault.field;
  switch (fault.op) {
    case FieldFault::Op::FlipBit:
      analysis::flip_field_bits(*fs, path, layout.field_map, name,
                                static_cast<std::size_t>(fault.value));
      break;
    case FieldFault::Op::Set:
      analysis::set_field_value(*fs, path, layout.field_map, name,
                                static_cast<std::uint64_t>(fault.value));
      break;
    case FieldFault::Op::Add:
      analysis::add_field_delta(*fs, path, layout.field_map, name, fault.value);
      break;
  }
  return fs;
}

nyx::DensityField NyxGolden::field() const {
  vfs::MemFs fs = tree_->fork(vfs::MemFs::Concurrency::SingleThread);
  return read(fs);
}

exp::PlanBuilder campaign(const Options& options) {
  exp::PlanBuilder builder;
  builder.runs(options.runs).seed(options.seed);
  return builder;
}

exp::ExperimentReport run_campaign(const exp::ExperimentPlan& plan) {
  exp::ExperimentReport report = exp::Engine().run(plan);
  for (auto& cell : report.cells) cell.cell.app = nullptr;
  return report;
}

void print_campaign(const exp::ExperimentReport& report, std::FILE* out,
                    bool show_primitive_count) {
  exp::ConsoleTableSink(out, show_primitive_count).replay(report);
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) {
      throw std::runtime_error("cell " + cell.cell.label + " failed: " + cell.error);
    }
  }
}

unsigned long long runs_per_cell(const exp::ExperimentReport& report) {
  return report.cells.empty() ? 0ULL : report.cells.front().cell.runs;
}

}  // namespace ffis::paper
