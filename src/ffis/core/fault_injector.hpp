#pragma once
// Fault injector (paper Figure 4, right): for each injection run it draws a
// uniform instance of the target primitive, mounts a fresh file system with
// an armed FaultingFs (mirroring the paper's mount/unmount per run), executes
// the application, monitors the outcome, and classifies it against the
// golden run.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/faults/fault_signature.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::core {

struct RunResult {
  Outcome outcome = Outcome::Benign;
  bool fault_fired = false;
  faults::InjectionRecord record{};
  /// Present when outcome == Crash: what the application threw.
  std::string crash_reason;
  /// Faulty analysis, when the run reached post-analysis.  Unset for runs the
  /// extent diff proved bit-identical to the golden tree (analyze_skipped).
  std::optional<AnalysisResult> analysis;
  /// Storage-layer counters of the run's private MemFs, covering workload
  /// *and* classification (bytes_read includes analysis-phase reads; an
  /// analyze_skipped run of a write-only workload reads zero bytes).  On the
  /// checkpoint path the backing store is a fork, so the write-side counters
  /// cover only post-fork work: cow_bytes_copied is exactly what
  /// copy-on-write cost this run.
  vfs::FsStats fs_stats{};
  /// Wall time of the workload execution (mount, run/resume, unmount).
  double execute_ms = 0.0;
  /// Wall time of outcome classification: the extent diff plus whichever of
  /// analyze / analyze_dirty ran (0-ish when analyze_skipped).
  double analyze_ms = 0.0;
  /// The extent diff was empty, so the run was classified Benign with no
  /// analysis at all.
  bool analyze_skipped = false;
  /// Which fleet member executed the run under a dist::Coordinator (ids are
  /// handed out at handshake time, starting at 1); 0 for local execution.
  std::uint32_t worker_id = 0;
  /// The run's fault drew no feature and a lower-index run of its cell draws
  /// the same instance, so the run repeats that instance's result
  /// (exp::CellCollector labels it; a filled copy has zero timers and arena
  /// counters).
  bool replayed = false;
  /// Classified from the golden tree with the fault applied at its write
  /// site instead of executed, because nothing in the run reads that site
  /// back (FaultInjector::synthesize).
  bool synthesized = false;
};

/// What a run seed selects: the target instance and the fault's feature seed.
struct RunDraw {
  std::uint64_t instance = 0;
  std::uint64_t feature_seed = 0;
};

/// The draw of `run_seed`: an instance uniform over `primitive_count`
/// dynamic executions of the target primitive (> 0), then the feature seed.
/// A pure function, so a run's instance follows from the plan and the
/// profiled count alone.
[[nodiscard]] RunDraw draw(std::uint64_t run_seed, std::uint64_t primitive_count);

class FaultInjector {
 public:
  /// `instrumented_stage` scopes profiling and injection to one application
  /// stage (Montage); -1 instruments the whole run.
  FaultInjector(const Application& app, faults::FaultSignature signature,
                std::uint64_t app_seed = 1, int instrumented_stage = -1);

  /// Runs the golden (fault-free) execution and the I/O-profiling pass.
  /// Must be called once before execute(); idempotent.
  void prepare();

  /// Like prepare(), but reuses a golden analysis computed elsewhere (the
  /// golden run depends only on the application and app_seed, so exp::Engine
  /// caches it across cells) and performs only the profiling pass.
  /// `golden_tree` optionally shares the golden run's final output tree for
  /// diff-driven classification (same cache key as the analysis); when diff
  /// classification is on and no tree is supplied, the injector executes one
  /// extra fault-free run to capture its own.
  void prepare_with_golden(std::shared_ptr<const AnalysisResult> golden,
                           std::shared_ptr<const vfs::MemFs> golden_tree = nullptr);

  /// Checkpoint-reuse preparation: reuses a shared golden AND a pre-fault
  /// checkpoint (the fault-free prefix of stages < instrumented_stage,
  /// captured once per (app, app_seed, stage) by exp::Engine).  The
  /// profiling pass folds into a single instrumented continuation on a fork
  /// of the checkpoint, and every execute() thereafter forks + resumes
  /// instead of re-running the whole application.  Tallies are bit-identical
  /// to the prepare_with_golden path at the same seeds.
  ///
  /// `golden_tree` optionally shares a golden output tree grown from THIS
  /// checkpoint (fork + fault-free resume — the engine builds one per
  /// checkpoint key); when diff classification is on and none is supplied,
  /// the injector grows its own.  The checkpoint must have been captured
  /// with this injector's fs options (geometry is validated here).
  void prepare_with_checkpoint(std::shared_ptr<const AnalysisResult> golden,
                               std::shared_ptr<const Checkpoint> checkpoint,
                               std::shared_ptr<const vfs::MemFs> golden_tree = nullptr);

  /// True when execute() resumes from a pre-fault checkpoint.
  [[nodiscard]] bool checkpointed() const noexcept { return checkpoint_ != nullptr; }

  // --- Diff-driven outcome classification -----------------------------------
  //
  // When enabled (the default), every execute() computes how the run's final
  // tree differs from the golden output tree via extent identity
  // (vfs::MemFs::diff_tree): an empty diff is Outcome::Benign with *no*
  // analyze() call and zero analysis-phase file reads; a non-empty diff goes
  // to Application::analyze_dirty (default: full analyze()).  On the
  // checkpoint path the golden tree is a fork of the same checkpoint the
  // runs fork, so the whole fault-free prefix diffs by pointer equality.
  // Tallies are bit-identical with the flag on or off.

  /// Must be called before prepare_* (the golden tree is captured there).
  void set_diff_classification(bool on);
  [[nodiscard]] bool diff_classification() const noexcept { return diff_classification_; }

  /// Backing-store options (extent sizing) for every MemFs this injector
  /// creates — golden trees and per-run stores; concurrency is managed
  /// internally.  Must be called before prepare_*.  Checkpointed cells must
  /// capture their checkpoint with the same options (forks inherit geometry
  /// and diff_tree rejects mismatched chunk sizes).
  void set_fs_options(vfs::MemFs::Options options);

  /// No-op: every run leases its backing store from the calling thread's
  /// core::RunScratch.  Kept only because the benchmark suite (bench/suite)
  /// calls it; delete it together with those calls.
  void set_run_recycling(bool /*on*/) noexcept {}

  /// A/B probe for the media layer (default off): when on, syscall-level
  /// cells also mount a passive vfs::BlockDevice under every run's store —
  /// never armed, so it registers nothing and only counts sector writes.
  /// Outcomes, diffs and tallies are bit-identical with the flag on or off;
  /// the perf bench gates the clean-sector fast path's overhead with it.
  /// Media-model cells always mount a device regardless of this flag.
  /// Must be set before prepare_*.
  void set_force_block_device(bool on);
  [[nodiscard]] bool force_block_device() const noexcept { return force_block_device_; }

  /// Executes one golden (fault-free, uninstrumented) run of `app` on a
  /// fresh in-memory store and returns its analysis.  prepare() uses this;
  /// it is exposed so campaign drivers can share goldens across injectors.
  [[nodiscard]] static AnalysisResult run_golden(const Application& app,
                                                 std::uint64_t app_seed);

  /// Like run_golden, additionally handing out the run's final output tree
  /// (for sharing diff-classification golden trees the way analyses are
  /// shared) and honoring custom backing-store options.
  [[nodiscard]] static AnalysisResult run_golden(const Application& app,
                                                 std::uint64_t app_seed,
                                                 std::shared_ptr<const vfs::MemFs>* tree_out,
                                                 const vfs::MemFs::Options& fs_options);

  [[nodiscard]] const AnalysisResult& golden() const;
  [[nodiscard]] std::uint64_t primitive_count() const;
  [[nodiscard]] const faults::FaultSignature& signature() const noexcept { return signature_; }

  /// core::draw(run_seed, primitive_count()).  Thread-safe after prepare().
  [[nodiscard]] RunDraw draw(std::uint64_t run_seed) const;

  /// One injection run, fully isolated (fresh in-memory backing store):
  /// execute_at(draw(run_seed)).  Thread-safe after prepare().
  [[nodiscard]] RunResult execute(std::uint64_t run_seed) const;

  /// Like execute() but with a caller-chosen instance (used by targeted and
  /// ablation experiments).  `diff_out`, when given, receives the run tree's
  /// diff against the golden tree (diff classification only).
  [[nodiscard]] RunResult execute_at(std::uint64_t target_instance,
                                     std::uint64_t feature_seed,
                                     vfs::FsDiff* diff_out = nullptr) const;

  /// The run `draw` selects, without executing the application, when its
  /// fault is synthesizable (faults::is_synthesizable) and the profiling
  /// pass saw nothing observe the drawn instance's write site; otherwise
  /// nullopt.  Forks the golden tree, applies the fault to the golden bytes
  /// at the site (faults::mutate_write, with the draw's feature seed) and
  /// classifies the result exactly as execute_at would.  Equal to
  /// execute_at(draw.instance, draw.feature_seed) in every field but the
  /// timers, the arena counters and `synthesized`; the execution-phase
  /// storage counters come from the profiling pass.  Requires diff
  /// classification.  Thread-safe after prepare().
  [[nodiscard]] std::optional<RunResult> synthesize(const RunDraw& draw,
                                                    vfs::FsDiff* diff_out = nullptr) const;

 private:
  void check_profile() const;  // throws when the primitive never executed
  void require_unprepared(const char* what) const;
  /// Derives golden_artifacts_ from golden_tree_ (forked for read access).
  void derive_artifacts();
  /// Classifies a finished run's `tree` into `result`: the extent diff
  /// against the golden tree, then analyze_dirty (or analyze), then the
  /// golden comparison and the application's rule.  Sets analyze_ms; an
  /// analysis exception makes the run a Crash.
  void classify(vfs::MemFs& tree, RunResult& result, vfs::FsDiff* diff_out) const;

  const Application& app_;
  faults::FaultSignature signature_;
  std::uint64_t app_seed_;
  int instrumented_stage_;
  bool prepared_ = false;
  bool diff_classification_ = true;
  bool force_block_device_ = false;
  vfs::MemFs::Options fs_options_{};
  /// Shared so exp::Engine's golden cache can hand one analysis to many
  /// injectors without copying the comparison blobs.
  std::shared_ptr<const AnalysisResult> golden_;
  /// The golden run's final output tree (diff classification only).  On the
  /// checkpoint path it is a fork of the checkpoint, so untouched extents
  /// stay pointer-identical with every run fork.
  std::shared_ptr<const vfs::MemFs> golden_tree_;
  /// Application-cached golden artifacts for analyze_dirty (may be null).
  std::shared_ptr<const GoldenArtifacts> golden_artifacts_;
  /// Pre-fault snapshot shared by every run (null = classic full-run path).
  std::shared_ptr<const Checkpoint> checkpoint_;
  ProfileResult profile_{};
};

}  // namespace ffis::core
