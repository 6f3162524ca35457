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

/// A synthesized run's storage counters: the profiling pass's for the
/// execution it skipped, plus the tree's own less `mutation` (the fault's
/// write-back, which no executed run performs), with no arena traffic.
vfs::FsStats synthesized_stats(const vfs::FsStats& pass, const vfs::MemFs& tree,
                               const vfs::FsStats& mutation) {
  vfs::FsStats stats = tree.stats();
  stats -= mutation;
  stats += pass;
  stats.arena_slabs_allocated = 0;
  stats.arena_bytes_recycled = 0;
  return stats;
}

/// The golden run's output tree, on a fresh store the run owns (unlocked).
std::shared_ptr<vfs::MemFs> golden_output(const Application& app, std::uint64_t app_seed,
                                          const vfs::MemFs::Options& options) {
  auto tree = std::make_shared<vfs::MemFs>(vfs::MemFs::single_thread(options));
  run_fault_free(app, app_seed, *tree, 0, app.stage_count());
  return tree;
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

AnalysisResult FaultInjector::run_golden(const Application& app, std::uint64_t app_seed,
                                         std::shared_ptr<const vfs::MemFs>* tree_out,
                                         const vfs::MemFs::Options& fs_options) {
  std::shared_ptr<vfs::MemFs> tree = golden_output(app, app_seed, fs_options);
  AnalysisResult analysis = app.analyze(*tree);
  if (tree_out != nullptr) *tree_out = std::move(tree);
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
    // Nobody shared the golden tree: capture our own (the analysis is
    // already known, the extra run only materializes the output tree).
    golden_tree_ = golden_tree ? std::move(golden_tree)
                               : golden_output(app_, app_seed_, fs_options_);
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
                                            std::shared_ptr<const vfs::MemFs> golden_tree,
                                            const StageGoldens& later) {
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
  profile_ = IoProfiler::profile(app_, signature_, app_seed_, instrumented_stage_, fs_options_,
                                 checkpoint_.get());
  check_profile();
  if (later && diff_classification_) {
    for (const faults::WriteSite& site : profile_.sites.sites) {
      const int s = site.observed_in;
      if (s <= instrumented_stage_ || s > app_.stage_count() || later_.count(s) != 0) continue;
      StageGolden stage = later(s);
      if (stage.checkpoint != nullptr &&
          (stage.golden_tree == nullptr || stage.checkpoint->stage() != s ||
           stage.checkpoint->fs().chunk_size() != fs_options_.chunk_size)) {
        throw std::invalid_argument("FaultInjector: the golden state resolved for stage " +
                                    std::to_string(s) +
                                    " lacks its tree, or has another stage or geometry");
      }
      later_.emplace(s, std::move(stage));  // no checkpoint: runs observed in s execute
    }
  }
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

template <typename Stack>
void FaultInjector::run_on(Stack& stack, RunResult& result, const Checkpoint* from,
                           const vfs::MemFs* golden_tree, vfs::FsDiff* diff_out) const {
  // "In each run, FFISFS would be mounted and unmounted": a fresh backing
  // store and a fresh stack of layers per run.  The store is leased from the
  // thread's RunScratch (arena extents, pooled node tables): with a
  // checkpoint it is a copy-on-write fork of the fault-free prefix,
  // otherwise an empty tree.  Either way this run owns it exclusively, so
  // locking is off.  The lease lives to the end of this call — the stack
  // copies fs_stats out before it returns.
  const auto execute_start = Clock::now();
  RunScratch::Lease lease = RunScratch::current().acquire(
      from != nullptr ? static_cast<const void*>(from) : static_cast<const void*>(this),
      from != nullptr ? &from->fs() : nullptr, fs_options_);
  vfs::MemFs& backing = lease.fs();
  faults::FaultingFs* const instrument = stack.mount(backing);
  const RunContext ctx{
      .fs = instrument != nullptr ? static_cast<vfs::FileSystem&>(*instrument) : backing,
      .app_seed = app_seed_,
      .instrumented_stage = instrumented_stage_,
      .instrument = instrument};
  try {
    app_.run_stages(ctx, from != nullptr ? from->stage() : 0, app_.stage_count());
  } catch (const std::exception& e) {
    result.outcome = Outcome::Crash;
    result.crash_reason = e.what();
  }
  result.execute_ms = ms_since(execute_start);
  // Counters cover workload and classification; diff_tree itself issues no
  // FileSystem-level reads, so an analyze_skipped run of a write-only
  // workload reports bytes_read == 0.
  if (result.outcome != Outcome::Crash) classify(backing, result, diff_out, golden_tree);
  stack.finalize(backing, result);
}

RunResult FaultInjector::execute_at(std::uint64_t target_instance,
                                    std::uint64_t feature_seed,
                                    vfs::FsDiff* diff_out) const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  // Media-level cells mount a BlockDevice beneath the store and arm *it*
  // (target_instance then indexes sector writes); the FaultingFs stays
  // configured-but-unarmed, counting primitives and sharing its stage gate.
  // Syscall cells mount a passive device only under force_block_device —
  // never armed, so it is observationally inert.
  struct Armed {
    const FaultInjector& self;
    RunDraw draw;
    bool media;
    std::optional<faults::FaultingFs> instrument{};
    std::shared_ptr<vfs::BlockDevice> device{};

    faults::FaultingFs* mount(vfs::MemFs& backing) {
      instrument.emplace(backing);
      if (media || self.force_block_device_) {
        device = faults::mount_media_device(self.signature_, backing, *instrument);
      }
      if (media) {
        instrument->configure(self.signature_);
        device->arm(faults::media_arm_spec(self.signature_, draw.instance, draw.feature_seed));
      } else {
        instrument->arm(self.signature_, draw.instance, draw.feature_seed);
      }
      if (self.instrumented_stage_ > 0) instrument->set_enabled(false);
      return &*instrument;
    }

    // Copies the fired/record state out of whichever layer carried the
    // fault, then the run's storage counters, and applies the detection
    // override: a run whose scrub rejected a sector (crc_detected > 0)
    // surfaced the corruption to the user as an I/O error, so it is
    // Detected no matter how the application ended — including when the EIO
    // propagated as a crash.
    void finalize(const vfs::MemFs& backing, RunResult& result) const {
      if (media) {
        result.fault_fired = device->fired();
        result.record = faults::media_injection_record(self.signature_, *device);
      } else {
        result.fault_fired = instrument->fired();
        result.record = instrument->record();
      }
      if (!result.fault_fired && result.outcome != Outcome::Crash) {
        util::log_warn("fault did not fire (instance {} of {})", draw.instance,
                       self.profile_.primitive_count);
      }
      result.fs_stats = backing.stats();
      if (result.fs_stats.crc_detected > 0) result.outcome = Outcome::Detected;
    }
  } stack{*this, RunDraw{target_instance, feature_seed}, faults::is_media_model(signature_.model)};
  RunResult result;
  run_on(stack, result, checkpoint_.get(), golden_tree_.get(), diff_out);
  return result;
}

std::optional<RunResult> FaultInjector::synthesize(const RunDraw& draw,
                                                   vfs::FsDiff* diff_out) const {
  if (!prepared_) throw std::logic_error("FaultInjector::prepare() not called");
  if (golden_tree_ != nullptr && faults::is_media_model(signature_.model)) {
    return synthesize_sector(draw, diff_out);
  }
  if (golden_tree_ == nullptr || draw.instance >= profile_.sites.sites.size()) {
    return std::nullopt;
  }
  const faults::WriteSite& site = profile_.sites.sites[draw.instance];
  const StageGolden* later = nullptr;
  if (site.observed()) {
    const auto it = later_.find(site.observed_in);
    if (it == later_.end() || it->second.checkpoint == nullptr) return std::nullopt;
    later = &it->second;
  }

  // Nothing reads the fault's range back before `later`'s stage opens (or
  // ever), so until then the faulted run performs the profiling pass's
  // operations, and its tree is the golden one except that the site holds
  // the fault applied to the bytes the application meant to write there:
  // the golden bytes, since no operation before the observer rewrote, cut
  // or moved them.
  RunResult result;
  result.fault_fired = true;
  faults::InjectionRecord& record = result.record;
  record.signature = signature_;
  record.instance = draw.instance;
  record.offset = site.offset;
  record.original_size = site.length;
  // Returns the tree's counters after the mutation: its own traffic.
  const auto apply_fault = [&](vfs::MemFs& tree) {
    {
      vfs::File file(tree, profile_.sites.paths[site.file], vfs::OpenMode::ReadWrite);
      util::Bytes intended(site.length);
      if (file.pread(intended, site.offset) != intended.size()) {
        throw std::logic_error("FaultInjector: golden tree lacks the write site of instance " +
                               std::to_string(draw.instance));
      }
      util::Rng rng(draw.feature_seed);
      const faults::WriteMutation mut = faults::mutate_write(signature_, rng, intended, record);
      record.features_drawn = rng != util::Rng(draw.feature_seed);
      (void)file.pwrite(mut.data, site.offset);
    }
    return tree.stats();
  };

  if (later == nullptr) {
    const auto execute_start = Clock::now();
    result.synthesized = true;
    vfs::MemFs tree = golden_tree_->fork(vfs::MemFs::Concurrency::SingleThread);
    const vfs::FsStats mutation = apply_fault(tree);
    result.execute_ms = ms_since(execute_start);
    classify(tree, result, diff_out, golden_tree_.get());
    result.fs_stats = synthesized_stats(profile_.fs_stats, tree, mutation);
    return result;
  }

  // Resume unarmed at the observing stage, from that stage's golden
  // checkpoint with the fault applied to the leased fork.  The counters of
  // the work skipped are the profiling pass's at the stage's entry.
  struct Faulted {
    const FaultInjector& self;
    const decltype(apply_fault)& apply;
    int stage;
    vfs::FsStats mutation{};

    faults::FaultingFs* mount(vfs::MemFs& backing) {
      mutation = apply(backing);
      return nullptr;  // the fault is in the tree; the resumed stages run unarmed
    }
    void finalize(const vfs::MemFs& backing, RunResult& result) const {
      result.fs_stats = backing.stats();
      result.fs_stats -= mutation;
      result.fs_stats += self.profile_.stage_entry_stats.at(stage);
    }
  } stack{*this, apply_fault, later->checkpoint->stage()};
  result.resumed_late = true;
  run_on(stack, result, later->checkpoint.get(), later->golden_tree.get(), diff_out);
  return result;
}

std::optional<RunResult> FaultInjector::synthesize_sector(const RunDraw& draw,
                                                          vfs::FsDiff* diff_out) const {
  const faults::SectorSites& sectors = profile_.sites.sectors;
  const std::optional<faults::SectorSite> site = sectors.site(draw.instance);
  const std::uint64_t sb = sectors.sector_bytes;
  const std::uint64_t chunk = sectors.extent_bytes;
  if (!site || chunk != golden_tree_->chunk_size() || chunk % sb != 0 ||
      sectors.observed_after(site->file, site->sector, site->clock)) {
    return std::nullopt;
  }
  // A torn or misdirected slice keeps its pre-write content, known only for
  // a hole (zero).  The run's extent counters match the pass's only if the
  // faulted write still touches the slice's extent outside the slice, as
  // the clean write does, or the store already owned that extent.
  const vfs::MediaFault kind = faults::media_fault_kind(signature_.model);
  const bool skips_slice =
      kind == vfs::MediaFault::TornSector || kind == vfs::MediaFault::MisdirectedWrite;
  const std::uint64_t extent = site->slice_begin / chunk;
  if (skips_slice &&
      (!site->hole ||
       (std::max(site->write_begin, extent * chunk) >= site->slice_begin &&
        std::min(site->write_end, (extent + 1) * chunk) <= site->slice_end &&
        !sectors.owned_at(site->file, extent, site->clock - 1)))) {
    return std::nullopt;
  }

  RunResult result;
  const auto execute_start = Clock::now();
  vfs::MemFs tree = golden_tree_->fork(vfs::MemFs::Concurrency::SingleThread);
  const std::string& path = profile_.sites.paths[site->file];
  // A skipped slice at the end of the file leaves the run's file shorter
  // until a later write extends it past the slice; none did when the golden
  // size is still the size right after the write.
  if (skips_slice && site->slice_end == site->size_after &&
      tree.stat(path).size <= site->size_after) {
    return std::nullopt;
  }
  // Replay the fault on the golden bytes through a device on the fork, so
  // the fork's registry holds exactly the entries the executed run's device
  // holds, and scrub-on-read rejects the classification's reads alike.  The
  // slice first gets back its pre-write content: zero for a hole, and
  // immaterial otherwise (BIT_ROT and LSE land the whole slice).
  const auto device = std::make_shared<vfs::BlockDevice>(faults::media_device_options(signature_));
  vfs::BlockDevice::ArmSpec spec = faults::media_arm_spec(signature_, 0, draw.feature_seed);
  spec.size_after = site->size_after;
  {
    vfs::File file(tree, path, vfs::OpenMode::ReadWrite);
    util::Bytes slice(site->slice_end - site->slice_begin);
    if (file.pread(slice, site->slice_begin) != slice.size()) {
      throw std::logic_error("FaultInjector: golden tree lacks the sector site of instance " +
                             std::to_string(draw.instance));
    }
    (void)file.pwrite(util::Bytes(slice.size()), site->slice_begin);
    tree.set_media(device);
    device->arm(spec);
    (void)file.pwrite(slice, site->slice_begin);
  }
  vfs::FsStats mutation = tree.stats();
  // A misdirected write's victim must be unobserved too, and its extent
  // owned by the store, so that the stray landing costs no extent counter.
  if (const std::optional<std::uint64_t> victim = device->record().misdirected_to;
      victim && mutation.sectors_faulted > 1 &&
      (sectors.observed_after(site->file, *victim, site->clock) ||
       !sectors.owned_at(site->file, *victim * sb / chunk, site->clock))) {
    return std::nullopt;
  }
  mutation.sectors_faulted = 0;  // the faulted sectors are the run's own
  result.execute_ms = ms_since(execute_start);
  result.synthesized = true;
  classify(tree, result, diff_out, golden_tree_.get());
  result.fault_fired = true;
  result.record = faults::media_injection_record(signature_, *device);
  result.record.instance = draw.instance;  // the device counted the replay alone
  result.fs_stats = synthesized_stats(profile_.fs_stats, tree, mutation);
  if (result.fs_stats.crc_detected > 0) result.outcome = Outcome::Detected;  // as execute_at
  return result;
}

void FaultInjector::classify(vfs::MemFs& tree, RunResult& result, vfs::FsDiff* diff_out,
                             const vfs::MemFs* golden_tree) const {
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
  if (golden_tree != nullptr) {
    diff.emplace(tree.diff_tree(*golden_tree));
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
    result.outcome = classify_outcome(app_, *golden_, *result.analysis);
  }
  result.analyze_ms = ms_since(analyze_start);
}

}  // namespace ffis::core
