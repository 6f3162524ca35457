#include "ffis/core/io_profiler.hpp"

#include <optional>

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
                                  const vfs::MemFs::Options& fs_options) {
  vfs::MemFs::Options options = fs_options;
  options.concurrency = vfs::MemFs::Concurrency::SingleThread;  // run-private
  vfs::MemFs backing(std::move(options));
  return profile_on(backing, signature, app_seed, instrumented_stage,
                    [&](const RunContext& ctx) { app.run(ctx); });
}

ProfileResult IoProfiler::profile_on(vfs::MemFs& backing,
                                     const faults::FaultSignature& signature,
                                     std::uint64_t app_seed, int instrumented_stage,
                                     const std::function<void(const RunContext&)>& run) {
  vfs::CountingFs counting(backing);
  faults::FaultingFs instrument(counting);
  instrument.configure(signature);
  std::shared_ptr<vfs::BlockDevice> device;
  if (faults::is_media_model(signature.model)) {
    // Media models address sector writes, not primitive calls — attach an
    // unarmed device so its counter sees exactly the injection run's stream.
    device = std::make_shared<vfs::BlockDevice>(faults::media_device_options(signature));
    backing.set_media(device);
    instrument.gate_media(device.get());
  }
  if (instrumented_stage > 0) {
    // Stage-scoped profiling starts gated off; the application's
    // enter_stage/leave_stage calls open the window.
    instrument.set_enabled(false);
  }
  ProfileResult result;
  std::optional<faults::WriteObserver> observer;
  std::optional<SiteStages> stages;
  if (faults::is_synthesizable(signature)) {
    observer.emplace(instrument);
    stages.emplace(*observer, backing, result.stage_entry_stats);
  }

  RunContext ctx{.fs = observer ? static_cast<vfs::FileSystem&>(*observer) : instrument,
                 .app_seed = app_seed,
                 .instrumented_stage = instrumented_stage,
                 .instrument = &instrument,
                 .stages = stages ? &*stages : nullptr};
  run(ctx);

  result.primitive_count =
      device != nullptr ? device->sector_writes() : instrument.executions();
  result.bytes_written = counting.bytes_written();
  result.bytes_read = counting.bytes_read();
  result.fs_stats = backing.stats();
  if (observer) result.sites = observer->take();
  return result;
}

}  // namespace ffis::core
