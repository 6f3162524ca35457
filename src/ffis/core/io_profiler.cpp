#include "ffis/core/io_profiler.hpp"

#include <optional>

#include "ffis/core/checkpoint.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/counting_fs.hpp"

namespace ffis::core {

namespace {

/// Tells the write observer which stage is open and snapshots the backing
/// store's counters as each stage opens.
class SiteStages final : public StageListener {
 public:
  SiteStages(faults::WriteObserver& observer, const vfs::MemFs& backing,
             std::map<int, vfs::FsStats>& entry_stats)
      : observer_(observer), backing_(backing), entry_stats_(entry_stats) {}

  void enter_stage(int stage) override {
    observer_.set_stage(stage);
    entry_stats_.try_emplace(stage, backing_.stats());
  }
  void leave_stage(int /*stage*/) override { observer_.set_stage(0); }

 private:
  faults::WriteObserver& observer_;
  const vfs::MemFs& backing_;
  std::map<int, vfs::FsStats>& entry_stats_;
};

}  // namespace

ProfileResult IoProfiler::profile(const Application& app,
                                  const faults::FaultSignature& signature,
                                  std::uint64_t app_seed, int instrumented_stage,
                                  const vfs::MemFs::Options& fs_options,
                                  const Checkpoint* resume_from) {
  vfs::MemFs backing = resume_from != nullptr  // run-private either way
                           ? resume_from->fs().fork(vfs::MemFs::Concurrency::SingleThread)
                           : vfs::MemFs(vfs::MemFs::single_thread(fs_options));
  vfs::CountingFs counting(backing);
  faults::FaultingFs instrument(counting);
  instrument.configure(signature);
  // Media models address sector writes, not primitive calls — attach an
  // unarmed device so its counter sees exactly the injection run's stream.
  const std::shared_ptr<vfs::BlockDevice> device =
      faults::is_media_model(signature.model)
          ? faults::mount_media_device(signature, backing, instrument)
          : nullptr;
  if (instrumented_stage > 0) {
    // Stage-scoped profiling starts gated off; the application's
    // enter_stage/leave_stage calls open the window.
    instrument.set_enabled(false);
  }
  ProfileResult result;
  std::optional<faults::WriteObserver> observer;
  std::optional<SiteStages> stages;
  if (faults::is_synthesizable(signature) || device != nullptr) {
    observer.emplace(instrument, device.get(), backing.chunk_size());
    stages.emplace(*observer, backing, result.stage_entry_stats);
  }

  RunContext ctx{.fs = observer ? static_cast<vfs::FileSystem&>(*observer) : instrument,
                 .app_seed = app_seed,
                 .instrumented_stage = instrumented_stage,
                 .instrument = &instrument,
                 .stages = stages ? &*stages : nullptr};
  app.run_stages(ctx, resume_from != nullptr ? resume_from->stage() : 0, app.stage_count());

  result.primitive_count =
      device != nullptr ? device->sector_writes() : instrument.executions();
  result.bytes_written = counting.bytes_written();
  result.bytes_read = counting.bytes_read();
  result.fs_stats = backing.stats();
  if (observer) result.sites = observer->take();
  return result;
}

}  // namespace ffis::core
