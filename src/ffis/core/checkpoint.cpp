#include "ffis/core/checkpoint.hpp"

namespace ffis::core {

void run_fault_free(const Application& app, std::uint64_t app_seed, vfs::FileSystem& fs,
                    int first, int last) {
  app.run_stages(RunContext{.fs = fs, .app_seed = app_seed}, first, last);
}

std::shared_ptr<const Checkpoint> Checkpoint::capture(const Application& app,
                                                      std::uint64_t app_seed,
                                                      int stage,
                                                      const vfs::MemFs::Options& fs_options) {
  std::shared_ptr<Checkpoint> checkpoint(
      new Checkpoint(app.resume_stage(stage), vfs::MemFs::single_thread(fs_options)));
  // The prefix executes fault-free and uninstrumented, exactly like the part
  // of a full injection run before the armed stage (the FaultingFs forwards
  // untouched while gated off, so skipping it entirely is equivalent).
  run_fault_free(app, app_seed, checkpoint->fs_, 0, stage - 1);
  return checkpoint;
}

std::shared_ptr<const vfs::MemFs> Checkpoint::grow_golden_tree(const Application& app,
                                                               std::uint64_t app_seed) const {
  std::shared_ptr<vfs::MemFs> tree = fs_.fork_unique(vfs::MemFs::Concurrency::SingleThread);
  run_fault_free(app, app_seed, *tree, stage_, app.stage_count());
  return tree;
}

}  // namespace ffis::core
