#include "ffis/core/fault_injector.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "ffis/core/run_scratch.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/util/logging.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

FaultInjector::FaultInjector(const Application& app, faults::FaultSignature signature,
                             std::uint64_t app_seed, int instrumented_stage)
    : app_(app),
      signature_(signature),
      app_seed_(app_seed),
      instrumented_stage_(instrumented_stage) {}

void FaultInjector::require_unprepared(const char* what) const {
  if (prepared_) {
    throw std::logic_error(std::string("FaultInjector: ") + what +
                           " must be set before prepare()");
  }
}

void FaultInjector::set_diff_classification(bool on) {
  require_unprepared("diff classification");
  diff_classification_ = on;
}

void FaultInjector::set_fs_options(vfs::MemFs::Options options) {
  require_unprepared("fs options");
  fs_options_ = std::move(options);
}

void FaultInjector::set_force_block_device(bool on) {
  require_unprepared("force_block_device");
  force_block_device_ = on;
}

AnalysisResult FaultInjector::run_golden(const Application& app, std::uint64_t app_seed) {
  return run_golden(app, app_seed, nullptr, vfs::MemFs::Options{});
}

AnalysisResult FaultInjector::run_golden(const Application& app, std::uint64_t app_seed,
                                         std::shared_ptr<const vfs::MemFs>* tree_out,
                                         const vfs::MemFs::Options& fs_options) {
  // Golden run: bare backing store (unlocked — the run owns it), no
  // instrumentation.
  vfs::MemFs::Options options = fs_options;
  options.concurrency = vfs::MemFs::Concurrency::SingleThread;
  auto golden_fs = std::make_shared<vfs::MemFs>(std::move(options));
  RunContext ctx{.fs = *golden_fs, .app_seed = app_seed, .instrumented_stage = -1,
                 .instrument = nullptr};
  app.run(ctx);
  AnalysisResult analysis = app.analyze(*golden_fs);
  if (tree_out != nullptr) *tree_out = std::move(golden_fs);
  return analysis;
}

void FaultInjector::derive_artifacts() {
  if (!golden_tree_) return;
  // The golden tree is frozen; hand the application a disposable fork so its
  // reads (open mutates the handle table) cannot perturb the shared snapshot.
  vfs::MemFs scratch = golden_tree_->fork(vfs::MemFs::Concurrency::SingleThread);
  golden_artifacts_ = app_.golden_artifacts(scratch, *golden_);
}

void FaultInjector::prepare() {
  if (prepared_) return;
  std::shared_ptr<const vfs::MemFs> tree;
  auto golden = std::make_shared<const AnalysisResult>(
      run_golden(app_, app_seed_, diff_classification_ ? &tree : nullptr, fs_options_));
  prepare_with_golden(std::move(golden), std::move(tree));
}

void FaultInjector::prepare_with_golden(std::shared_ptr<const AnalysisResult> golden,
                                        std::shared_ptr<const vfs::MemFs> golden_tree) {
  if (prepared_) return;
  if (!golden) throw std::invalid_argument("FaultInjector: null golden analysis");
  golden_ = std::move(golden);
  if (diff_classification_) {
    if (golden_tree) {
      golden_tree_ = std::move(golden_tree);
    } else {
      // Nobody shared the golden tree; capture our own (the analysis is
      // already known, the extra run only materializes the output tree).
      vfs::MemFs::Options options = fs_options_;
      options.concurrency = vfs::MemFs::Concurrency::SingleThread;
      auto fs = std::make_shared<vfs::MemFs>(std::move(options));
      RunContext ctx{.fs = *fs, .app_seed = app_seed_, .instrumented_stage = -1,
                     .instrument = nullptr};
      app_.run(ctx);
      golden_tree_ = std::move(fs);
    }
    derive_artifacts();
  }

  // Profiling run: count target-primitive executions fault-free.
  profile_ =
      IoProfiler::profile(app_, signature_, app_seed_, instrumented_stage_, fs_options_);
  check_profile();
  prepared_ = true;
}

void FaultInjector::prepare_with_checkpoint(std::shared_ptr<const AnalysisResult> golden,
                                            std::shared_ptr<const Checkpoint> checkpoint,
                                            std::shared_ptr<const vfs::MemFs> golden_tree) {
  if (prepared_) return;
  if (!golden) throw std::invalid_argument("FaultInjector: null golden analysis");
  if (!checkpoint) throw std::invalid_argument("FaultInjector: null checkpoint");
  if (checkpoint->stage() != instrumented_stage_) {
    throw std::invalid_argument(
        "FaultInjector: checkpoint is for stage " + std::to_string(checkpoint->stage()) +
        ", injector instruments stage " + std::to_string(instrumented_stage_));
  }
  if (diff_classification_ && checkpoint->fs().chunk_size() != fs_options_.chunk_size) {
    // Surfaced here, at configuration time, rather than as a diff_tree
    // throw on the first run.
    throw std::invalid_argument(
        "FaultInjector: checkpoint captured with chunk size " +
        std::to_string(checkpoint->fs().chunk_size()) + " but injector fs options use " +
        std::to_string(fs_options_.chunk_size) +
        "; diff classification requires matching extent geometry");
  }
  golden_ = std::move(golden);
  checkpoint_ = std::move(checkpoint);

  if (diff_classification_) {
    golden_tree_ = golden_tree ? std::move(golden_tree)
                               : checkpoint_->grow_golden_tree(app_, app_seed_);
    derive_artifacts();
  }

  // Folded profiling pass: one instrumented continuation on a fork observes
  // the same gated primitive count as a full profiling run.
  profile_ = profile_resume(app_, *checkpoint_, signature_, app_seed_);
  check_profile();
  prepared_ = true;
}

void FaultInjector::check_profile() const {
  if (profile_.primitive_count == 0) {
    if (faults::is_media_model(signature_.model)) {
      throw std::logic_error(
          "FaultInjector: application never wrote a sector — nothing to inject into");
    }
    throw std::logic_error("FaultInjector: application never executed primitive '" +
                           std::string(vfs::primitive_name(signature_.primitive)) +
                           "' — nothing to inject into");
  }
}

const AnalysisResult& FaultInjector::golden() const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  return *golden_;
}

std::uint64_t FaultInjector::primitive_count() const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  return profile_.primitive_count;
}

RunDraw draw(std::uint64_t run_seed, std::uint64_t primitive_count) {
  util::Rng rng(run_seed);
  RunDraw out;
  out.instance = rng.uniform(primitive_count);
  out.feature_seed = rng();
  return out;
}

RunDraw FaultInjector::draw(std::uint64_t run_seed) const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  return core::draw(run_seed, profile_.primitive_count);
}

RunResult FaultInjector::execute(std::uint64_t run_seed) const {
  const RunDraw d = draw(run_seed);
  return execute_at(d.instance, d.feature_seed);
}

RunResult FaultInjector::execute_at(std::uint64_t target_instance,
                                    std::uint64_t feature_seed,
                                    vfs::FsDiff* diff_out) const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  RunResult result;

  // "In each run, FFISFS would be mounted and unmounted": a fresh backing
  // store and a fresh instrumentation layer per run.  The store is leased
  // from the thread's RunScratch (arena extents, pooled node tables): with a
  // checkpoint it is a copy-on-write fork of the fault-free prefix,
  // otherwise an empty tree.  Either way this run owns it exclusively, so
  // locking is off.  The lease lives to the end of this call — fs_stats is
  // copied out before every return.
  const auto execute_start = Clock::now();
  RunScratch::Lease lease = RunScratch::current().acquire(
      checkpoint_ ? static_cast<const void*>(checkpoint_.get()) : static_cast<const void*>(this),
      checkpoint_ ? &checkpoint_->fs() : nullptr, fs_options_);
  vfs::MemFs& backing = lease.fs();
  // Media-level cells mount a BlockDevice beneath the store and arm *it*
  // (target_instance then indexes sector writes); the FaultingFs stays
  // configured-but-unarmed, counting primitives and sharing its stage gate.
  // Syscall cells mount a passive device only under force_block_device —
  // never armed, so it is observationally inert.
  const bool media = faults::is_media_model(signature_.model);
  std::shared_ptr<vfs::BlockDevice> device;
  if (media || force_block_device_) {
    device = std::make_shared<vfs::BlockDevice>(faults::media_device_options(signature_));
    backing.set_media(device);
  }
  faults::FaultingFs instrument(backing);
  if (device != nullptr) instrument.gate_media(device.get());
  if (media) {
    instrument.configure(signature_);
    device->arm(faults::media_arm_spec(signature_, target_instance, feature_seed));
  } else {
    instrument.arm(signature_, target_instance, feature_seed);
  }
  if (instrumented_stage_ > 0) instrument.set_enabled(false);

  // Copies the fired/record state out of whichever layer carried the fault.
  const auto read_instrumentation = [&] {
    if (media) {
      result.fault_fired = device->fired();
      result.record = faults::media_injection_record(signature_, *device);
    } else {
      result.fault_fired = instrument.fired();
      result.record = instrument.record();
    }
  };
  // Copies the run's storage counters and applies the detection override: a
  // run whose scrub rejected a sector (crc_detected > 0) surfaced the
  // corruption to the user as an I/O error, so it is Detected no matter how
  // the application ended — including when the EIO propagated as a crash.
  const auto finalize_stats = [&] {
    result.fs_stats = backing.stats();
    if (result.fs_stats.crc_detected > 0) result.outcome = Outcome::Detected;
  };

  RunContext ctx{.fs = instrument,
                 .app_seed = app_seed_,
                 .instrumented_stage = instrumented_stage_,
                 .instrument = &instrument};
  try {
    if (checkpoint_) {
      app_.run_from(ctx, checkpoint_->stage());
    } else {
      app_.run(ctx);
    }
  } catch (const std::exception& e) {
    result.outcome = Outcome::Crash;
    read_instrumentation();
    result.crash_reason = e.what();
    result.execute_ms = ms_since(execute_start);
    finalize_stats();
    return result;
  }
  read_instrumentation();
  result.execute_ms = ms_since(execute_start);
  if (!result.fault_fired) {
    util::log_warn("fault did not fire (instance {} of {})", target_instance,
                   profile_.primitive_count);
  }

  classify(backing, result, diff_out);
  // Counters cover workload and classification; diff_tree itself issues no
  // FileSystem-level reads, so an analyze_skipped run of a write-only
  // workload reports bytes_read == 0.
  finalize_stats();
  return result;
}

std::optional<RunResult> FaultInjector::synthesize(const RunDraw& draw,
                                                   vfs::FsDiff* diff_out) const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  const faults::WriteSite* site =
      golden_tree_ != nullptr ? profile_.sites.unobserved(draw.instance) : nullptr;
  if (site == nullptr) return std::nullopt;

  // Nothing after the fault reads its range back, so the faulted run
  // performs the profiling pass's operations and ends with the golden tree,
  // except that the site holds the fault applied to the bytes the
  // application meant to write there: the golden bytes, since no later
  // operation rewrote, cut or moved them.
  const auto execute_start = Clock::now();
  RunResult result;
  result.synthesized = true;
  result.fault_fired = true;
  faults::InjectionRecord& record = result.record;
  record.signature = signature_;
  record.instance = draw.instance;
  record.offset = site->offset;
  record.original_size = site->length;
  vfs::MemFs tree = golden_tree_->fork(vfs::MemFs::Concurrency::SingleThread);
  {
    vfs::File file(tree, profile_.sites.paths[site->file], vfs::OpenMode::ReadWrite);
    util::Bytes intended(site->length);
    if (file.pread(intended, site->offset) != intended.size()) {
      throw std::logic_error("FaultInjector: golden tree lacks the write site of instance " +
                             std::to_string(draw.instance));
    }
    util::Rng rng(draw.feature_seed);
    const faults::WriteMutation mut = faults::mutate_write(signature_, rng, intended, record);
    record.features_drawn = rng != util::Rng(draw.feature_seed);
    (void)file.pwrite(mut.data, site->offset);
  }
  result.execute_ms = ms_since(execute_start);

  // Only classification counts as this run's own storage traffic.
  const vfs::FsStats synthesis = tree.stats();
  classify(tree, result, diff_out);
  result.fs_stats = tree.stats();
  result.fs_stats -= synthesis;
  result.fs_stats += profile_.fs_stats;
  result.fs_stats.arena_slabs_allocated = 0;
  result.fs_stats.arena_bytes_recycled = 0;
  return result;
}

void FaultInjector::classify(vfs::MemFs& tree, RunResult& result,
                             vfs::FsDiff* diff_out) const {
  // Post-analysis reads go straight to the backing store; the fault has
  // already landed on the "device".  With diff classification the extent
  // diff runs first: an empty diff proves the tree bit-identical to the
  // golden output, so the Benign verdict needs no analysis (and no reads)
  // at all; a non-empty diff is analyzed over only the dirty ranges.
  const auto analyze_start = Clock::now();
  // The diff runs outside the Crash-conversion try: a diff_tree failure
  // (mismatched extent geometry) is harness misconfiguration, and recording
  // it as an application Crash would silently corrupt the tally — let it
  // propagate to the caller instead.
  std::optional<vfs::FsDiff> diff;
  if (diff_classification_ && golden_tree_ != nullptr) {
    diff.emplace(tree.diff_tree(*golden_tree_));
    if (diff_out != nullptr) *diff_out = *diff;
  }
  if (diff.has_value() && diff->empty()) {
    result.outcome = Outcome::Benign;
    result.analyze_skipped = true;
  } else {
    try {
      result.analysis = diff.has_value() ? app_.analyze_dirty(tree, *diff, *golden_,
                                                              golden_artifacts_.get())
                                         : app_.analyze(tree);
    } catch (const std::exception& e) {
      result.outcome = Outcome::Crash;
      result.crash_reason = e.what();
      result.analyze_ms = ms_since(analyze_start);
      return;
    }
    result.outcome = result.analysis->comparison_blob == golden_->comparison_blob
                         ? Outcome::Benign
                         : app_.classify(*golden_, *result.analysis);
  }
  result.analyze_ms = ms_since(analyze_start);
}

}  // namespace ffis::core
