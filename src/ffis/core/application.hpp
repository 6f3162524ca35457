#pragma once
// The application abstraction FFIS characterizes.
//
// A characterized application does three things: (1) run its workload with
// all I/O going through a provided FileSystem (so an armed FaultingFs can
// corrupt the I/O path without the application knowing — requirement R1);
// (2) run its post-analysis over the produced files; (3) classify a faulty
// analysis against the golden one using its own domain rules (paper §IV-C).
//
// Implementations must be const-thread-compatible: `run_stages`, `analyze`
// and `classify` are const and may be called concurrently on the same
// instance with distinct file systems (campaign runs execute in parallel).
// An application's only mutable member is its per-seed input cache
// (core::SeedCache).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "ffis/core/outcome.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/fs_diff.hpp"

namespace ffis::core {

/// Told which stage is open: the profiling pass (core::IoProfiler) listens,
/// to record which stage first observes each write site.
class StageListener {
 public:
  virtual void enter_stage(int stage) = 0;
  virtual void leave_stage(int stage) = 0;

 protected:
  ~StageListener() = default;
};

/// Per-run execution context handed to Application::run_stages.
struct RunContext {
  /// The mounted file system.  During injection runs this is a FaultingFs;
  /// during golden runs it is the bare backing store.
  vfs::FileSystem& fs;

  /// Seed for the application's own stochastic inputs.  Fixed for a whole
  /// campaign so every run performs the identical I/O sequence; only the
  /// fault differs between runs.
  std::uint64_t app_seed = 1;

  /// Stage to instrument (1-based), or -1 to instrument the whole run.
  /// Montage campaigns inject per stage (MT1..MT4 in Figure 7).
  int instrumented_stage = -1;

  /// The instrumentation layer, when one is stacked (null in golden runs).
  faults::FaultingFs* instrument = nullptr;

  /// Told of every stage boundary (profiling passes only; null otherwise).
  StageListener* stages = nullptr;

  /// Applications call this at stage boundaries; it gates instrumentation so
  /// faults land only in the configured stage.
  void enter_stage(int stage) const {
    if (instrument != nullptr && instrumented_stage > 0) {
      instrument->set_enabled(stage == instrumented_stage);
    }
    if (stages != nullptr) stages->enter_stage(stage);
  }
  void leave_stage(int stage) const {
    if (instrument != nullptr && instrumented_stage > 0) {
      instrument->set_enabled(false);
    }
    if (stages != nullptr) stages->leave_stage(stage);
  }
};

/// Everything the outcome classifier needs from one run.
struct AnalysisResult {
  /// Bytes compared bit-wise against the golden run for the Benign test —
  /// the *post-analysis output* (halo table, scalar.dat, mosaic image), per
  /// the paper's per-application classification rules.
  util::Bytes comparison_blob;

  /// Human-readable post-analysis report.
  std::string report;

  /// Named scalar metrics ("energy", "min", "halo_count", "mean_density"...)
  /// used by the Detected/SDC boundary rules.
  std::map<std::string, double> metrics;

  AnalysisPath path = AnalysisPath::FullRead;

  /// A copy of this analysis reached by `how` (a golden analysis reused).
  [[nodiscard]] AnalysisResult via(AnalysisPath how) const {
    AnalysisResult copy = *this;
    copy.path = how;
    return copy;
  }

  [[nodiscard]] double metric(const std::string& name) const {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      throw std::out_of_range("AnalysisResult: no metric named " + name);
    }
    return it->second;
  }
};

/// Base for application-defined artifacts derived once from the golden run
/// and consumed by analyze_dirty on every faulty run (e.g. Nyx caches the
/// decoded golden density field so dirty runs splice only the changed
/// extents instead of re-reading the whole plotfile).  Applications
/// dynamic_cast back to their concrete type.
struct GoldenArtifacts {
  virtual ~GoldenArtifacts() = default;
};

class Application {
 public:
  virtual ~Application() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // --- Stages ----------------------------------------------------------------
  //
  // An application declares its run once, as a sequence of stages: stage 0
  // is the work before stage 1 (input ingest, warm-up; never instrumented),
  // and stages 1..stage_count() are the ones the workload brackets with
  // ctx.enter_stage/leave_stage.  Every pass the engine makes — the golden
  // run, a checkpoint's fault-free prefix, the profiling pass, an injection
  // run resumed from a checkpoint — is run_stages over some range of them.
  // Ranges must compose: for every k in [1, stage_count()],
  //
  //     run(ctx)  ==  run_prefix(ctx, k); run_from(ctx, k)
  //
  // bit-for-bit on the resulting file tree (the workload is deterministic in
  // ctx.app_seed; only the injected fault may differ between runs).  That
  // lets the engine execute the fault-free prefix once per campaign cell,
  // snapshot the file system, and replay only the instrumented suffix per
  // injection run.

  /// Number of checkpoint-resumable stages.  0 (the default) means the
  /// application has no stage structure: it does all its work in stage 0,
  /// and stage-scoped campaigns still run but cannot use checkpoint resume.
  [[nodiscard]] virtual int stage_count() const { return 0; }

  /// Executes stages [first, last] (0 <= first, last <= stage_count(); an
  /// empty range does nothing), writing outputs into ctx.fs.  Exceptions
  /// propagate and the campaign records a Crash.
  virtual void run_stages(const RunContext& ctx, int first, int last) const = 0;

  /// The whole workload: stages [0, stage_count()].
  void run(const RunContext& ctx) const { run_stages(ctx, 0, stage_count()); }

  /// The work before `stage` — stages [0, stage-1] — leaving ctx.fs exactly
  /// as a full run leaves it the moment enter_stage(stage) fires.
  void run_prefix(const RunContext& ctx, int stage) const {
    run_stages(ctx, 0, resume_stage(stage) - 1);
  }

  /// Resumes at `stage` on a file system produced by run_prefix(ctx, stage):
  /// stages [stage, stage_count()].
  void run_from(const RunContext& ctx, int stage) const {
    run_stages(ctx, resume_stage(stage), stage_count());
  }

  /// `stage` when the application can be resumed there (1 <= stage <=
  /// stage_count()); otherwise throws std::invalid_argument naming the
  /// application and the stage.
  [[nodiscard]] int resume_stage(int stage) const {
    if (stage < 1 || stage > stage_count()) {
      throw std::invalid_argument(name() + " has " + std::to_string(stage_count()) +
                                  " resumable stages, none numbered " + std::to_string(stage));
    }
    return stage;
  }

  // --- Persistent checkpoints (core::CheckpointStore) -----------------------
  //
  // A checkpoint written to disk outlives the process, so the store must be
  // able to tell whether a saved entry still matches this application: the
  // file tree is captured by the snapshot, but the *configuration* that
  // produced it (and the in-memory caches a resumed run would otherwise
  // recompute) live here.  Three hooks cover that:

  /// Stable fingerprint of every configuration knob that can influence the
  /// bytes this instance writes or how it analyzes them (grid sizes, step
  /// counts, paths, I/O options, classification windows...).  It becomes
  /// part of the on-disk cache key, so two instances with equal fingerprints
  /// MUST produce bit-identical trees and analyses for equal seeds.  The
  /// empty default marks the application as not safely persistable: the
  /// checkpoint store skips it and the engine silently falls back to
  /// re-executing the prefix.  Prefix with a format tag (e.g. "nyx/1;") and
  /// bump it when the workload's byte behavior changes incompatibly.
  [[nodiscard]] virtual std::string state_fingerprint() const { return {}; }

  /// Serializes the per-seed inputs a resumed run would otherwise recompute
  /// for `app_seed` (a density field, a Monte Carlo trace, rendered tiles):
  /// stored alongside the checkpoint snapshot and handed back through
  /// restore_state in a later process.  The empty default means "nothing to
  /// persist"; the inputs are then built lazily.  An application with a
  /// core::SeedCache delegates both hooks to it.
  [[nodiscard]] virtual util::Bytes serialize_state(std::uint64_t app_seed) const {
    (void)app_seed;
    return {};
  }

  /// Installs this instance's per-seed inputs from a serialize_state blob.
  /// True when `app_seed` is already cached; false, with the cache unchanged,
  /// when the blob is empty or unusable (wrong tag, seed or size, truncated
  /// or trailing bytes); callers treat false as "build lazily".
  virtual bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const {
    (void)app_seed;
    (void)state;
    return false;
  }

  /// Runs the post-analysis over the output files.  Exceptions propagate as
  /// Crash (e.g. HDF5 metadata validation failure, unparsable scalar file).
  [[nodiscard]] virtual AnalysisResult analyze(vfs::FileSystem& fs) const = 0;

  // --- Diff-driven classification (extent-identity fast path) ---------------
  //
  // When the injector knows *how* a run's output tree differs from the
  // golden tree (vfs::MemFs::diff_tree — extent identity, no re-reads), an
  // empty diff is classified Benign with no analysis at all, and a non-empty
  // diff is handed here instead of analyze().  The contract: for any fs
  // whose tree differs from the golden tree exactly as `diff` describes,
  //
  //     analyze_dirty(fs, diff, golden, artifacts)  ==  analyze(fs)
  //
  // including thrown exceptions (a metadata corruption must still crash) —
  // diff-driven classification may change cost, never outcomes.  The default
  // simply falls back to the full analysis.

  /// Derives reusable artifacts from the golden run, called at most once per
  /// campaign cell with the golden output tree (`golden_fs`) and analysis.
  /// The same pointer is then passed to every analyze_dirty call.  Results
  /// stay bit-identical, so an incremental *statistic* (a golden sum updated
  /// by the dirty slabs' delta) is allowed only where rounding provably
  /// commutes, as in Nyx's HaloIndex; otherwise cache *data* (decoded
  /// fields, raw bytes).
  [[nodiscard]] virtual std::shared_ptr<const GoldenArtifacts> golden_artifacts(
      vfs::FileSystem& golden_fs, const AnalysisResult& golden) const {
    (void)golden_fs;
    (void)golden;
    return nullptr;
  }

  /// Post-analysis restricted to what `diff` says changed.  Implementations
  /// typically (1) return a copy of `golden` when none of the files analyze()
  /// reads are touched, (2) re-derive only the affected artifacts otherwise,
  /// and (3) fall back to analyze(fs) whenever equivalence is not provable
  /// (metadata regions dirty, sizes changed, artifacts missing).
  [[nodiscard]] virtual AnalysisResult analyze_dirty(vfs::FileSystem& fs,
                                                     const vfs::FsDiff& diff,
                                                     const AnalysisResult& golden,
                                                     const GoldenArtifacts* artifacts) const {
    (void)diff;
    (void)golden;
    (void)artifacts;
    return analyze(fs);
  }

  /// Domain classification rule.  The Benign bit-wise test has already been
  /// handled by the caller when comparison blobs match; this is consulted
  /// only when they differ.  Callers go through core::classify_outcome.
  [[nodiscard]] virtual Outcome classify(const AnalysisResult& golden,
                                         const AnalysisResult& faulty) const = 0;
};

/// The outcome rule of a run whose post-analysis completed: Benign when its
/// comparison blob is bit-wise identical to the golden run's, otherwise the
/// application's Detected/SDC rule.
[[nodiscard]] inline Outcome classify_outcome(const Application& app,
                                              const AnalysisResult& golden,
                                              const AnalysisResult& faulty) {
  return faulty.comparison_blob == golden.comparison_blob ? Outcome::Benign
                                                          : app.classify(golden, faulty);
}

}  // namespace ffis::core
