#include "ffis/core/checkpoint.hpp"

#include <stdexcept>
#include <string>

namespace ffis::core {

std::shared_ptr<const Checkpoint> Checkpoint::capture(const Application& app,
                                                      std::uint64_t app_seed,
                                                      int stage,
                                                      const vfs::MemFs::Options& fs_options) {
  if (stage < 1 || stage > app.stage_count()) {
    throw std::invalid_argument("Checkpoint: " + app.name() + " has " +
                                std::to_string(app.stage_count()) +
                                " stages, cannot checkpoint at stage " +
                                std::to_string(stage));
  }
  vfs::MemFs::Options options = fs_options;
  options.concurrency = vfs::MemFs::Concurrency::SingleThread;
  std::shared_ptr<Checkpoint> checkpoint(new Checkpoint(stage, std::move(options)));
  // The prefix executes fault-free and uninstrumented, exactly like the part
  // of a full injection run before the armed stage (the FaultingFs forwards
  // untouched while gated off, so skipping it entirely is equivalent).
  RunContext ctx{.fs = checkpoint->fs_,
                 .app_seed = app_seed,
                 .instrumented_stage = -1,
                 .instrument = nullptr};
  app.run_prefix(ctx, stage);
  return checkpoint;
}

std::shared_ptr<const vfs::MemFs> Checkpoint::grow_golden_tree(const Application& app,
                                                               std::uint64_t app_seed) const {
  // Direct `new` from the fork's prvalue — MemFs owns a mutex, so it is
  // neither movable nor make_shared-able from a temporary.
  std::shared_ptr<vfs::MemFs> tree(
      new vfs::MemFs(fs_.fork(vfs::MemFs::Concurrency::SingleThread)));
  RunContext ctx{.fs = *tree, .app_seed = app_seed, .instrumented_stage = -1,
                 .instrument = nullptr};
  app.run_from(ctx, stage_);
  return tree;
}

ProfileResult profile_resume(const Application& app, const Checkpoint& checkpoint,
                             const faults::FaultSignature& signature,
                             std::uint64_t app_seed) {
  vfs::MemFs backing = checkpoint.fs().fork(vfs::MemFs::Concurrency::SingleThread);
  return IoProfiler::profile_on(
      backing, signature, app_seed, checkpoint.stage(),
      [&](const RunContext& ctx) { app.run_from(ctx, checkpoint.stage()); });
}

}  // namespace ffis::core
