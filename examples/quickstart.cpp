// Quickstart: characterize an application's fault response with FFIS.
//
// The "application" below checkpoints 1 KB of counter data through the VFS
// and reports a checksum.  We declare a three-cell experiment plan — one
// cell per fault model — and hand it to exp::Engine, which runs the golden
// execution once, profiles each cell, executes every injection run on a
// shared thread pool, and streams one outcome row per cell.  The whole FFIS
// workflow (paper Figure 4), grid included, in a dozen effective lines.
//
// Build & run:  ./build/quickstart

#include <cstdio>

#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/vfs/mem_fs.hpp"

using namespace ffis;

namespace {

// A tiny characterized application: checkpoints 1 KB of counter data in four
// writes, then analyzes by reading the checkpoint back.  It declares no
// stages (stage_count() stays 0), so run_stages does all its work in stage 0;
// an application with stages brackets each with ctx.enter_stage/leave_stage
// and gets checkpoint resume for free.
class TinyApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "tiny"; }

  void run_stages(const core::RunContext& ctx, int /*first*/, int /*last*/) const override {
    vfs::File f(ctx.fs, "/checkpoint.bin", vfs::OpenMode::Write);
    util::Bytes chunk(256);
    for (std::uint64_t part = 0; part < 4; ++part) {
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<std::byte>((part * chunk.size() + i) & 0xff);
      }
      f.pwrite(chunk, part * chunk.size());
    }
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/checkpoint.bin");
    result.metrics["bytes"] = static_cast<double>(result.comparison_blob.size());
    return result;
  }

  [[nodiscard]] core::Outcome classify(const core::AnalysisResult& golden,
                                       const core::AnalysisResult& faulty) const override {
    // A truncated checkpoint is visibly wrong; same-size-but-different bytes
    // would go unnoticed — silent data corruption.
    return faulty.metric("bytes") != golden.metric("bytes") ? core::Outcome::Detected
                                                            : core::Outcome::Sdc;
  }
};

}  // namespace

int main() {
  TinyApp app;

  // Declare the experiment: 3 fault models x 200 runs against one app.
  const auto plan = exp::PlanBuilder()
                        .runs(200)
                        .seed(2025)
                        .app(app)
                        .faults({"BIT_FLIP@pwrite{width=2}", "SHORN_WRITE@pwrite",
                                 "DROPPED_WRITE@pwrite"})
                        .build();

  // Execute it: shared pool, cached golden run, console table output.
  exp::ConsoleTableSink sink;
  exp::Engine engine;
  const auto report = engine.run(plan, sink);

  std::printf("\n%llu injection runs total; the golden run executed %llu time%s for "
              "%zu cells.\n",
              static_cast<unsigned long long>(report.total_runs),
              static_cast<unsigned long long>(report.golden_executions),
              report.golden_executions == 1 ? "" : "s", report.cells.size());
  return 0;
}
