// bench_suite — the FFIS campaign benchmark.
//
//   bench_suite [--workload NAME]... [--seed S] [--trials K] [--seconds S]
//               [--out PATH] [--no-trace]
//
// For each workload (default: all four, see workloads.hpp) it measures, each
// in a freshly forked child so every trial starts cold:
//
//   * setup_s      — 15 samples of Engine::run entry -> first progress
//                    callback (fleet: Coordinator::run entry -> first RunBatch
//                    frame sent); each sample's child exits at that moment;
//   * trials       — the workload's fixed plan, as many times as fit in
//                    --seconds (default 20, at least 3 trials) or exactly
//                    --trials times, giving
//                    runs_per_s, peak_rss_mb (ru_maxrss via wait4) and
//                    failed_share, reported as median and quartiles;
//   * correctness  — every trial's tallies must agree; at seed 42 they must
//                    equal expected_tallies.json; at any other seed a
//                    reference FaultInjector (no checkpoints, no diff, no run
//                    recycling) must reproduce the outcomes of sampled runs;
//   * traced pass  — (unless --no-trace) the first runs of each cell on one
//                    thread, each executed by FaultInjector::execute and then
//                    by the span-recording Replica (trace.hpp), which must
//                    agree run by run.
//
// It prints `workload metric value unit` lines and, with --out, writes the
// result file compare.py reads.  Exit status 0 means every check passed.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "child.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "json.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace ffis;
using suite::Clock;
using suite::Json;
using suite::Workload;

constexpr std::uint64_t kOracleSeed = 42;
constexpr int kSetupSamples = 15;
constexpr int kMinTimedTrials = 3;
constexpr int kMaxTimedTrials = 60;
/// Runs per cell the reference check replays when there is no traced pass.
constexpr std::uint64_t kCheckRuns = 16;
constexpr double kMaxTraceOverhead = 0.05;
constexpr double kMinSpanCoverage = 0.95;

struct EndToEnd {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  ///< share of the baseline median a change may lose
};

constexpr EndToEnd kEndToEnd[] = {
    {"runs_per_s", "runs/s", "higher", 0.20},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mb", "MiB", "lower", 0.10},
    // Any increase is a regression (compare.py special-cases it).
    {"failed_share", "ratio", "lower", 0.0},
};

struct PerLayer {
  const char* name;
  const char* unit;
};

constexpr PerLayer kPerLayer[] = {
    {"core.lease_us", "us"},
    {"core.release_us", "us"},
    {"apps.execute_self_us", "us"},
    {"faults.intercept_self_us", "us"},
    {"vfs.store_us", "us"},
    {"vfs.store_calls", "count"},
    {"vfs.diff_us", "us"},
    {"vfs.diff_dirty_bytes", "bytes"},
    {"apps.analyze_self_us", "us"},
    {"vfs.analysis_read_us", "us"},
    {"core.classify_us", "us"},
    {"core.analyze_skipped_share", "ratio"},
    {"vfs.chunks_allocated", "count"},
    {"vfs.chunk_detaches", "count"},
    {"vfs.cow_bytes", "bytes"},
    {"vfs.pread_calls", "count"},
    {"vfs.bytes_read", "bytes"},
    {"vfs.sectors_faulted", "count"},
    {"vfs.crc_detected", "count"},
    {"run_ms.p50", "ms"},
    {"run_ms.p95", "ms"},
    {"core.golden_ms", "ms"},
    {"core.capture_ms", "ms"},
    {"core.grow_golden_ms", "ms"},
    {"core.prepare_ms", "ms"},
    {"apps.golden_artifacts_ms", "ms"},
    {"core.store_load_ms", "ms"},
    {"core.store_hits", "count"},
    {"core.store_misses", "count"},
    {"core.checkpoint_bytes", "bytes"},
    {"exp.pool_busy_share", "ratio"},
    {"vfs.arena_slabs_allocated", "count"},
    {"net.frames_per_run", "count"},
    {"net.bytes_per_run", "bytes"},
    {"dist.recv_wait_share", "ratio"},
    {"dist.units_granted", "count"},
    {"dist.units_regranted", "count"},
    {"trace.overhead_share", "ratio"},
    {"trace.span_coverage", "ratio"},
};

/// Per-layer metrics taken from the untraced trials (median over trials).
constexpr const char* kTrialLayerMetrics[] = {
    "exp.pool_busy_share", "vfs.arena_slabs_allocated", "net.frames_per_run",
    "net.bytes_per_run",   "dist.recv_wait_share",      "dist.units_granted",
    "dist.units_regranted",
};

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = kOracleSeed;
  int trials = 0;         ///< > 0: exactly this many trials
  double seconds = 20.0;  ///< otherwise: trials until this much time is used
  std::string out;
  bool trace = true;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite [--workload NAME]... [--seed S] [--trials K] "
               "[--seconds S] [--out PATH] [--no-trace]\n"
               "workloads:",
               why);
  for (const auto& w : suite::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((flag + " needs a non-negative integer").c_str());
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      const char* name = value();
      const Workload* w = suite::find_workload(name);
      if (w == nullptr) usage((std::string("unknown workload '") + name + "'").c_str());
      if (std::find(o.workloads.begin(), o.workloads.end(), w) == o.workloads.end()) {
        o.workloads.push_back(w);
      }
    } else if (arg == "--seed") {
      o.seed = parse_count(arg, value());
    } else if (arg == "--trials") {
      const std::uint64_t k = parse_count(arg, value());
      if (k < 1 || k > 1000) usage("--trials must be in [1, 1000]");
      o.trials = static_cast<int>(k);
      o.seconds = 0.0;
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_count(arg, value());
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
      o.trials = 0;
    } else if (arg == "--out") {
      o.out = value();
    } else if (arg == "--no-trace") {
      o.trace = false;
    } else if (arg == "--help" || arg == "-h") {
      usage("help");
    } else {
      usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (o.workloads.empty()) {
    for (const auto& w : suite::workloads()) o.workloads.push_back(&w);
  }
  return o;
}

// --- Provenance ----------------------------------------------------------------

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 2));
    }
  }
  return "unknown";
}

/// HEAD of the repository the suite was built from, read from its .git
/// directory (no git process); "unknown" outside a git checkout.
std::string git_head() {
  const std::filesystem::path git = std::filesystem::path(FFIS_SUITE_ROOT) / ".git";
  const std::string head = trim(read_file(git / "HEAD"));
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  if (std::string loose = trim(read_file(git / ref)); !loose.empty()) return loose;
  std::istringstream packed(read_file(git / "packed-refs"));
  for (std::string line; std::getline(packed, line);) {
    const auto space = line.find(' ');
    if (space != std::string::npos && line.substr(space + 1) == ref) return line.substr(0, space);
  }
  return "unknown";
}

std::size_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// The closed loop's client count: one plan from one process on 4 engine
/// threads, capped at the machine's processors.
std::size_t engine_threads() { return std::min<std::size_t>(4, nproc()); }

// --- Shared helpers ------------------------------------------------------------

faults::FaultGenerator generator_for(const exp::Cell& cell) {
  faults::CampaignConfig config;
  config.application = cell.app->name();
  config.fault = cell.fault;
  config.runs = cell.runs;
  config.seed = cell.seed;
  config.stage = cell.stage;
  return faults::FaultGenerator(std::move(config));
}

Json::Object cell_tally(const core::OutcomeTally& tally, std::uint64_t detected_crc,
                        std::uint64_t sectors_faulted) {
  return {{"benign", tally.count(core::Outcome::Benign)},
          {"detected", tally.count(core::Outcome::Detected)},
          {"sdc", tally.count(core::Outcome::Sdc)},
          {"crash", tally.count(core::Outcome::Crash)},
          {"detected_crc", detected_crc},
          {"sectors_faulted", sectors_faulted}};
}

/// Runs the workload's plan through its own runner (engine or fleet).
suite::Trial run_workload(const Workload& w, const exp::ExperimentPlan& plan,
                          const std::string& store_dir, suite::FleetProbe& probe) {
  return w.fleet ? suite::run_fleet(plan, engine_threads(), store_dir, probe)
                 : suite::run_local(plan, engine_threads());
}

// --- Children ------------------------------------------------------------------

/// One cold set-up sample: the child exits as soon as the first run lands.
Json setup_sample(const Workload& w, std::uint64_t seed, const std::string& store_dir,
                  const suite::ChildChannel& channel) {
  const auto plan = w.plan(seed, w.runs_per_cell);
  const auto report = [&](Clock::time_point entry, Clock::time_point first) {
    channel.send_and_exit(Json::Object{{"setup_s", suite::seconds_between(entry, first)}});
  };
  if (w.fleet) {
    suite::FleetProbe probe;
    probe.on_first_batch = report;
    (void)suite::run_fleet(plan, engine_threads(), store_dir, probe);
  } else {
    (void)suite::run_local(plan, engine_threads(), report);
  }
  throw std::runtime_error("the plan finished without reporting a first run");
}

/// One cold trial of the workload's fixed plan.
Json trial(const Workload& w, std::uint64_t seed, const std::string& store_dir) {
  const auto plan = w.plan(seed, w.runs_per_cell);
  suite::FleetProbe probe;
  const suite::Trial t = run_workload(w, plan, store_dir, probe);
  const exp::ExperimentReport& report = t.report;

  Json::Object tallies;
  Json::Array errors;
  std::uint64_t failed = 0;
  double busy_ms = 0.0;
  for (const auto& cell : report.cells) {
    tallies[cell.cell.label] = cell_tally(cell.tally, cell.detected_crc, cell.sectors_faulted);
    if (!cell.error.empty()) {
      failed += cell.cell.runs;
      errors.push_back(cell.cell.label + ": " + cell.error);
    } else {
      failed += cell.cell.runs - cell.runs_completed;
    }
    busy_ms += cell.execute_ms + cell.analyze_ms;
  }
  const double run_wall = suite::seconds_between(t.first, t.done);
  const double runs = static_cast<double>(report.total_runs);
  // Engine: the first run ends the set-up phase, so it is not counted.
  const double runs_per_s = (w.fleet ? runs : runs - 1.0) / run_wall;
  return Json::Object{
      {"runs_per_s", runs_per_s},
      {"attempted", plan.total_runs()},
      {"failed", failed},
      {"errors", errors},
      {"tallies", tallies},
      {"exp.pool_busy_share",
       busy_ms / 1000.0 / (static_cast<double>(t.threads) * run_wall)},
      {"vfs.arena_slabs_allocated", report.arena_slabs_allocated},
      {"net.frames_per_run", static_cast<double>(probe.frames.load()) / runs},
      {"net.bytes_per_run", static_cast<double>(probe.bytes.load()) / runs},
      {"dist.recv_wait_share",
       t.worker_wall_s > 0.0 ? static_cast<double>(probe.recv_wait_ns.load()) / 1e9 /
                                   t.worker_wall_s
                             : 0.0},
      {"dist.units_granted", probe.grants.load()},
      {"dist.units_regranted", report.units_regranted},
  };
}

/// Persists the fleet plan's goldens and checkpoints into `store_dir`.
Json fill_store(const Workload& w, std::uint64_t seed, const std::string& store_dir) {
  exp::EngineOptions options;
  options.threads = engine_threads();
  options.checkpoint_dir = store_dir;
  exp::Engine engine(options);
  const auto report = engine.run(w.plan(seed, 1));
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) throw std::runtime_error(cell.cell.label + ": " + cell.error);
  }
  return Json::Object{};
}

/// Reference check without a traced pass: the first kCheckRuns runs of each
/// cell through the workload's own runner must tally exactly as a reference
/// FaultInjector with checkpoints, diff classification and recycling off.
Json reference_check(const Workload& w, std::uint64_t seed, const std::string& store_dir) {
  const auto plan = w.plan(seed, kCheckRuns);
  suite::FleetProbe probe;
  const auto report = run_workload(w, plan, store_dir, probe).report;
  Json::Array mismatches;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const exp::Cell& cell = plan.cells()[i];
    const auto gen = generator_for(cell);
    core::FaultInjector reference(*cell.app, gen.signature(), cell.app_seed(), cell.stage);
    reference.set_diff_classification(false);
    reference.set_run_recycling(false);
    reference.prepare();
    core::OutcomeTally tally;
    for (std::uint64_t r = 0; r < cell.runs; ++r) {
      tally.add(reference.execute(gen.run_seed(r)).outcome);
    }
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      const auto outcome = static_cast<core::Outcome>(o);
      if (tally.count(outcome) != report.cells[i].tally.count(outcome)) {
        mismatches.push_back(cell.label + " " + std::string(core::outcome_name(outcome)) +
                             ": reference " + std::to_string(tally.count(outcome)) + ", " +
                             (w.fleet ? "fleet " : "engine ") +
                             std::to_string(report.cells[i].tally.count(outcome)));
      }
    }
  }
  return Json::Object{{"mismatches", mismatches}};
}

/// The traced pass (see trace.hpp), on this thread.
Json traced_pass(const Workload& w, std::uint64_t seed, const std::string& store_dir) {
  using core::AnalysisResult;
  using core::Checkpoint;
  const auto plan = w.plan(seed, w.traced_runs);
  const bool reference = seed != kOracleSeed;
  std::optional<core::CheckpointStore> store;
  if (w.fleet) store.emplace(store_dir);

  double golden_ms = 0, capture_ms = 0, grow_ms = 0, artifacts_ms = 0, prepare_ms = 0,
         store_ms = 0, checkpoint_bytes = 0;
  const auto timed = [](double& acc, auto&& fn) {
    const auto start = Clock::now();
    auto value = fn();
    acc += std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    return value;
  };
  struct Prepared {
    std::shared_ptr<const AnalysisResult> golden;
    std::shared_ptr<const Checkpoint> checkpoint;
    std::shared_ptr<const vfs::MemFs> tree;
    std::shared_ptr<const core::GoldenArtifacts> artifacts;
  };
  std::map<const core::Application*, Prepared> goldens;
  std::map<std::pair<const core::Application*, int>, Prepared> checkpoints;
  const auto derive_artifacts = [&](const core::Application& app, Prepared& p) {
    p.artifacts = timed(artifacts_ms, [&] {
      vfs::MemFs scratch = p.tree->fork(vfs::MemFs::Concurrency::SingleThread);
      return app.golden_artifacts(scratch, *p.golden);
    });
  };

  std::vector<suite::RunSpans> spans;
  std::vector<double> real_ms;
  vfs::FsStats stats_sum{};
  std::uint64_t skipped = 0, mismatch_count = 0, reference_mismatch_count = 0;
  Json::Array mismatches, reference_mismatches, cell_spans;

  for (const exp::Cell& cell : plan.cells()) {
    const core::Application& app = *cell.app;
    const std::uint64_t app_seed = cell.app_seed();
    const bool resumable = cell.stage >= 1 && app.stage_count() >= cell.stage;

    Prepared& g = goldens[&app];
    if (!g.golden) {
      if (store) {
        auto loaded = timed(store_ms, [&] {
          return store->load_golden(core::CheckpointStore::Key::of(app, app_seed, -1, {}), {},
                                    !resumable);
        });
        if (!loaded) throw std::runtime_error("golden of " + cell.label + " is not in the store");
        g.golden = loaded->analysis;
        g.tree = loaded->tree;
      } else {
        g.golden = std::make_shared<const AnalysisResult>(timed(golden_ms, [&] {
          return core::FaultInjector::run_golden(app, app_seed, &g.tree, {});
        }));
      }
    }
    const Prepared* p = &g;
    if (resumable) {
      Prepared& c = checkpoints[{&app, cell.stage}];
      if (!c.checkpoint) {
        c.golden = g.golden;
        if (store) {
          auto loaded = timed(store_ms, [&] {
            return store->load_checkpoint(
                core::CheckpointStore::Key::of(app, app_seed, cell.stage, {}), {}, true);
          });
          if (!loaded || !loaded->golden_tree) {
            throw std::runtime_error("checkpoint of " + cell.label + " is not in the store");
          }
          if (!loaded->app_state.empty()) (void)app.restore_state(app_seed, loaded->app_state);
          c.checkpoint = loaded->checkpoint;
          c.tree = loaded->golden_tree;
        } else {
          c.checkpoint =
              timed(capture_ms, [&] { return Checkpoint::capture(app, app_seed, cell.stage); });
          c.tree = timed(grow_ms, [&] { return c.checkpoint->grow_golden_tree(app, app_seed); });
        }
        checkpoint_bytes += static_cast<double>(c.checkpoint->stored_bytes());
        derive_artifacts(app, c);
      }
      p = &c;
    } else {
      if (!g.tree) throw std::logic_error(cell.label + ": full-run cell without a golden tree");
      if (!g.artifacts) derive_artifacts(app, g);
    }

    const auto gen = generator_for(cell);
    core::FaultInjector injector(app, gen.signature(), app_seed, cell.stage);
    timed(prepare_ms, [&] {
      if (resumable) {
        injector.prepare_with_checkpoint(p->golden, p->checkpoint, p->tree);
      } else {
        injector.prepare_with_golden(p->golden, p->tree);
      }
      return 0;
    });
    const suite::Replica replica({.app = &app,
                                  .signature = gen.signature(),
                                  .app_seed = app_seed,
                                  .stage = cell.stage,
                                  .primitive_count = injector.primitive_count(),
                                  .scratch_key = resumable
                                                     ? static_cast<const void*>(p->checkpoint.get())
                                                     : static_cast<const void*>(&injector),
                                  .checkpoint = p->checkpoint,
                                  .golden = p->golden,
                                  .golden_tree = p->tree,
                                  .artifacts = p->artifacts});
    std::optional<core::FaultInjector> ref;
    if (reference) {
      ref.emplace(app, gen.signature(), app_seed, cell.stage);
      ref->set_diff_classification(false);
      ref->set_run_recycling(false);
      ref->prepare_with_golden(p->golden);
    }

    Json::Array rows;
    for (std::uint64_t r = 0; r < cell.runs; ++r) {
      const std::uint64_t run_seed = gen.run_seed(r);
      core::RunResult real, rep;
      suite::RunSpans sp;
      const auto run_real = [&] {
        const auto start = Clock::now();
        real = injector.execute(run_seed);
        real_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      };
      // The second execution of a run finds its data in cache; alternate
      // which side goes first so the overhead estimate carries no such bias.
      if (r % 2 == 0) {
        run_real();
        rep = replica.run(run_seed, sp);
      } else {
        rep = replica.run(run_seed, sp);
        run_real();
      }
      const std::string where = cell.label + " run " + std::to_string(r);
      if (const std::string m = suite::replica_mismatch(real, rep); !m.empty()) {
        if (++mismatch_count <= 10) mismatches.push_back(where + ": " + m);
      }
      if (ref) {
        const core::Outcome expected = ref->execute(run_seed).outcome;
        if (expected != real.outcome && ++reference_mismatch_count <= 10) {
          reference_mismatches.push_back(
              where + ": reference " + std::string(core::outcome_name(expected)) + ", engine " +
              std::string(core::outcome_name(real.outcome)));
        }
      }
      const vfs::FsStats& s = real.fs_stats;
      stats_sum.chunks_allocated += s.chunks_allocated;
      stats_sum.chunk_detaches += s.chunk_detaches;
      stats_sum.cow_bytes_copied += s.cow_bytes_copied;
      stats_sum.pread_calls += s.pread_calls;
      stats_sum.bytes_read += s.bytes_read;
      stats_sum.sectors_faulted += s.sectors_faulted;
      stats_sum.crc_detected += s.crc_detected;
      if (real.analyze_skipped) ++skipped;
      rows.push_back(Json::Array{real_ms.back() * 1000.0, sp.total_us, sp.lease_us,
                                 sp.execute_us, sp.intercept_us, sp.store_us, sp.store_calls,
                                 sp.diff_us, sp.dirty_bytes, sp.analyze_us, sp.read_us,
                                 sp.read_calls, sp.classify_us, sp.release_us});
      spans.push_back(sp);
    }
    cell_spans.push_back(Json::Object{{"label", cell.label}, {"runs", std::move(rows)}});
  }

  const double n = static_cast<double>(spans.size());
  const auto avg = [&](auto field) {
    double sum = 0.0;
    for (const auto& sp : spans) sum += field(sp);
    return sum / n;
  };
  const double traced_us = avg([](const auto& s) { return s.total_us; });
  const double untraced_us = suite::mean(real_ms) * 1000.0;
  const core::CheckpointStore::Stats store_stats =
      store ? store->stats() : core::CheckpointStore::Stats{};
  Json::Object metrics{
      {"core.lease_us", avg([](const auto& s) { return s.lease_us; })},
      {"core.release_us", avg([](const auto& s) { return s.release_us; })},
      {"apps.execute_self_us", avg([](const auto& s) { return s.execute_us - s.intercept_us; })},
      {"faults.intercept_self_us", avg([](const auto& s) { return s.intercept_us - s.store_us; })},
      {"vfs.store_us", avg([](const auto& s) { return s.store_us; })},
      {"vfs.store_calls", avg([](const auto& s) { return s.store_calls; })},
      {"vfs.diff_us", avg([](const auto& s) { return s.diff_us; })},
      {"vfs.diff_dirty_bytes", avg([](const auto& s) { return s.dirty_bytes; })},
      {"apps.analyze_self_us", avg([](const auto& s) { return s.analyze_us - s.read_us; })},
      {"vfs.analysis_read_us", avg([](const auto& s) { return s.read_us; })},
      {"core.classify_us", avg([](const auto& s) { return s.classify_us; })},
      {"core.analyze_skipped_share", static_cast<double>(skipped) / n},
      {"vfs.chunks_allocated", static_cast<double>(stats_sum.chunks_allocated) / n},
      {"vfs.chunk_detaches", static_cast<double>(stats_sum.chunk_detaches) / n},
      {"vfs.cow_bytes", static_cast<double>(stats_sum.cow_bytes_copied) / n},
      {"vfs.pread_calls", static_cast<double>(stats_sum.pread_calls) / n},
      {"vfs.bytes_read", static_cast<double>(stats_sum.bytes_read) / n},
      {"vfs.sectors_faulted", static_cast<double>(stats_sum.sectors_faulted) / n},
      {"vfs.crc_detected", static_cast<double>(stats_sum.crc_detected) / n},
      {"run_ms.p50", suite::percentile(real_ms, 50)},
      {"run_ms.p95", suite::percentile(real_ms, 95)},
      {"core.golden_ms", golden_ms},
      {"core.capture_ms", capture_ms},
      {"core.grow_golden_ms", grow_ms},
      {"core.prepare_ms", prepare_ms},
      {"apps.golden_artifacts_ms", artifacts_ms},
      {"core.store_load_ms", store_ms},
      {"core.store_hits", store_stats.hits},
      {"core.store_misses", store_stats.misses},
      {"core.checkpoint_bytes", checkpoint_bytes},
      {"trace.overhead_share", traced_us / untraced_us - 1.0},
      {"trace.span_coverage", avg([](const auto& s) { return s.covered_us(); }) / traced_us},
  };
  return Json::Object{
      {"metrics", metrics},
      {"runs", spans.size()},
      {"replica_mismatches", mismatch_count},
      {"replica_mismatch_examples", mismatches},
      {"reference_runs", reference ? spans.size() : std::size_t{0}},
      {"reference_mismatches", reference_mismatch_count},
      {"reference_mismatch_examples", reference_mismatches},
      {"spans",
       Json::Object{{"fields", Json::Array{"untraced_us", "total_us", "lease_us", "execute_us",
                                           "intercept_us", "store_us", "store_calls", "diff_us",
                                           "dirty_bytes", "analyze_us", "read_us", "read_calls",
                                           "classify_us", "release_us"}},
                    {"nesting", "total > lease | execute > intercept > store | diff | "
                                "analyze > read | classify | release"},
                    {"cells", cell_spans}}},
  };
}

// --- Oracle ----------------------------------------------------------------------

/// Compares one workload's trial tallies with the pinned seed-42 oracle.
void check_oracle(const Workload& w, const Json& tallies, std::vector<std::string>& errors) {
  const std::string path = FFIS_SUITE_ORACLE;
  Json oracle;
  try {
    oracle = Json::parse(read_file(path));
  } catch (const std::exception& e) {
    errors.push_back(std::string("cannot read the tally oracle ") + path + ": " + e.what());
    return;
  }
  const std::string name = w.name;
  if (!oracle.at("workloads").has(name)) {
    errors.push_back(name + ": no pinned tallies in " + path);
    return;
  }
  const Json& pinned = oracle.at("workloads").at(name);
  if (pinned.at("runs_per_cell").count() != w.runs_per_cell) {
    errors.push_back(name + ": oracle pins " + std::to_string(pinned.at("runs_per_cell").count()) +
                     " runs per cell, the workload runs " + std::to_string(w.runs_per_cell));
    return;
  }
  const auto& expected_cells = pinned.at("cells").obj();
  for (const auto& [label, got] : tallies.obj()) {
    if (expected_cells.count(label) == 0) {
      errors.push_back(name + " " + label + ": cell not in the oracle");
      continue;
    }
    for (const auto& [field, value] : expected_cells.at(label).obj()) {
      const std::uint64_t have = got.at(field).count();
      if (have != value.count()) {
        errors.push_back(name + " " + label + " " + field + ": expected " +
                         std::to_string(value.count()) + ", got " + std::to_string(have));
      }
    }
  }
  if (expected_cells.size() != tallies.obj().size()) {
    errors.push_back(name + ": oracle has " + std::to_string(expected_cells.size()) +
                     " cells, the workload has " + std::to_string(tallies.obj().size()));
  }
}

// --- One workload ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  Json json;
  Json tallies;  ///< this workload's entry of the oracle-shaped "tallies" object
  std::vector<std::pair<std::string, Metric>> printed;
};

Json distribution(const std::vector<double>& samples, const EndToEnd& m) {
  const auto [q1, q3] = suite::quartiles(samples);
  Json::Array values(samples.begin(), samples.end());
  return Json::Object{{"unit", m.unit},   {"better", m.better},
                      {"bound", m.bound}, {"median", suite::median(samples)},
                      {"q1", q1},         {"q3", q3},
                      {"samples", values}};
}

WorkloadResult run_one(const Workload& w, const Options& o, const std::string& store_dir,
                       std::vector<std::string>& errors) {
  const std::string name = w.name;
  const auto log = [&](const std::string& what) {
    std::fprintf(stderr, "[%s] %s\n", name.c_str(), what.c_str());
  };
  WorkloadResult out;
  Json::Object result;

  if (w.fleet) {
    log("filling the checkpoint store");
    (void)suite::run_in_child(name + " store fill", [&](const suite::ChildChannel&) {
      return fill_store(w, o.seed, store_dir);
    });
  }

  log("set-up samples");
  std::vector<double> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto sample = suite::run_in_child(name + " set-up sample",
                                            [&](const suite::ChildChannel& ch) {
                                              return setup_sample(w, o.seed, store_dir, ch);
                                            });
    setup.push_back(sample.record.at("setup_s").num());
  }

  log("trials");
  std::vector<Json> trials;
  std::vector<double> rss;
  const auto trials_start = Clock::now();
  double last_trial_s = 0.0;
  for (;;) {
    const int k = static_cast<int>(trials.size());
    const double elapsed = suite::seconds_between(trials_start, Clock::now());
    const bool more = o.seconds > 0.0
                          ? k < kMinTimedTrials ||
                                (k < kMaxTimedTrials && elapsed + last_trial_s <= o.seconds)
                          : k < o.trials;
    if (!more) break;
    const auto started = Clock::now();
    auto child = suite::run_in_child(name + " trial " + std::to_string(k),
                                     [&](const suite::ChildChannel&) {
                                       return trial(w, o.seed, store_dir);
                                     });
    last_trial_s = suite::seconds_between(started, Clock::now());
    rss.push_back(child.max_rss_mb);
    trials.push_back(std::move(child.record));
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> runs_per_s, failed_share;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    const Json& t = trials[k];
    attempted += t.at("attempted").count();
    failed += t.at("failed").count();
    runs_per_s.push_back(t.at("runs_per_s").num());
    failed_share.push_back(t.at("failed").num() / t.at("attempted").num());
    for (const Json& e : t.at("errors").arr()) {
      errors.push_back(name + " trial " + std::to_string(k) + ": " + e.str());
    }
    if (t.at("tallies").dump() != trials[0].at("tallies").dump()) {
      errors.push_back(name + ": trial " + std::to_string(k) + " tallies differ from trial 0");
    }
  }
  if (failed != 0) errors.push_back(name + ": " + std::to_string(failed) + " runs not completed");
  if (o.seed == kOracleSeed) check_oracle(w, trials[0].at("tallies"), errors);

  const std::map<std::string, std::vector<double>> samples{
      {"runs_per_s", runs_per_s}, {"setup_s", setup}, {"peak_rss_mb", rss},
      {"failed_share", failed_share}};
  Json::Object end_to_end;
  for (const EndToEnd& m : kEndToEnd) {
    const auto& v = samples.at(m.name);
    end_to_end[m.name] = distribution(v, m);
    const auto [q1, q3] = suite::quartiles(v);
    out.printed.push_back({m.name, {suite::median(v), m.unit}});
    out.printed.push_back({std::string(m.name) + ".iqr", {q3 - q1, m.unit}});
  }

  Json::Object per_layer;
  if (o.trace) {
    log("traced pass");
    const Json traced = suite::run_in_child(name + " traced pass", [&](const suite::ChildChannel&) {
                          return traced_pass(w, o.seed, store_dir);
                        }).record;
    std::map<std::string, double> values;
    for (const auto& [k, v] : traced.at("metrics").obj()) values[k] = v.num();
    for (const char* k : kTrialLayerMetrics) {
      std::vector<double> per_trial;
      for (const Json& t : trials) per_trial.push_back(t.at(k).num());
      values[k] = suite::median(per_trial);
    }
    for (const PerLayer& m : kPerLayer) {
      per_layer[m.name] = Json::Object{{"value", values.at(m.name)}, {"unit", m.unit}};
      out.printed.push_back({m.name, {values.at(m.name), m.unit}});
    }
    const auto count = [&](const char* key) { return traced.at(key).count(); };
    if (count("replica_mismatches") != 0) {
      errors.push_back(name + ": " + std::to_string(count("replica_mismatches")) +
                       " traced runs differ from FaultInjector::execute, e.g. " +
                       traced.at("replica_mismatch_examples").arr()[0].str());
    }
    if (count("reference_mismatches") != 0) {
      errors.push_back(name + ": " + std::to_string(count("reference_mismatches")) +
                       " runs differ from the reference injector, e.g. " +
                       traced.at("reference_mismatch_examples").arr()[0].str());
    }
    if (values.at("trace.overhead_share") > kMaxTraceOverhead) {
      errors.push_back(name + ": trace.overhead_share " +
                       std::to_string(values.at("trace.overhead_share")) + " > " +
                       std::to_string(kMaxTraceOverhead));
    }
    if (values.at("trace.span_coverage") < kMinSpanCoverage) {
      errors.push_back(name + ": spans cover only " +
                       std::to_string(values.at("trace.span_coverage")) + " of the traced run");
    }
    result["trace"] = traced;
  } else if (o.seed != kOracleSeed) {
    log("reference check");
    const Json check = suite::run_in_child(name + " reference check",
                                           [&](const suite::ChildChannel&) {
                                             return reference_check(w, o.seed, store_dir);
                                           }).record;
    for (const Json& m : check.at("mismatches").arr()) errors.push_back(name + ": " + m.str());
  }

  Json::Array cells;
  const auto plan = w.plan(o.seed, w.runs_per_cell);
  for (const auto& c : plan.cells()) {
    cells.push_back(Json::Object{{"label", c.label}, {"runs", c.runs}});
  }
  result["why"] = w.why;
  result["cells"] = cells;
  result["runs"] = plan.total_runs();
  result["trials"] = trials.size();
  result["setup_samples"] = setup.size();
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["end_to_end"] = end_to_end;
  result["per_layer"] = per_layer;
  out.tallies = Json::Object{{"runs_per_cell", w.runs_per_cell},
                             {"cells", trials[0].at("tallies")}};
  out.json = result;
  return out;
}

/// Removes the fleet's scratch checkpoint store on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  const auto start = Clock::now();
  const ScratchDir store{std::filesystem::temp_directory_path() /
                         ("ffis-bench-suite-store-" + std::to_string(::getpid()))};

  std::vector<std::string> errors;
  Json::Object workloads, tallies;
  for (const Workload* w : o.workloads) {
    try {
      WorkloadResult r = run_one(*w, o, store.path.string(), errors);
      for (const auto& [metric, m] : r.printed) {
        std::printf("%s %s %.6g %s\n", w->name, metric.c_str(), m.value, m.unit.c_str());
      }
      std::fflush(stdout);
      tallies[w->name] = r.tallies;
      workloads[w->name] = r.json;
    } catch (const std::exception& e) {
      errors.push_back(std::string(w->name) + ": " + e.what());
    }
  }

  const bool correct = errors.empty();
  for (const auto& e : errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  if (!o.out.empty()) {
    const Json::Object provenance{
        {"nproc", nproc()},
        {"cpu_model", cpu_model()},
        {"compiler", __VERSION__},
        {"build_type", FFIS_SUITE_BUILD_TYPE},
        {"git_head", git_head()},
        {"seed", o.seed},
        {"trials", o.seconds > 0.0 ? Json("timed") : Json(o.trials)},
        {"seconds", o.seconds},
        {"threads", engine_threads()},
        {"setup_samples", kSetupSamples},
        {"traced", o.trace},
        {"wall_s", suite::seconds_between(start, Clock::now())},
    };
    const Json doc = Json::Object{
        {"provenance", provenance},
        {"correct", correct},
        {"errors", Json::Array(errors.begin(), errors.end())},
        {"workloads", workloads},
        {"tallies", Json::Object{{"seed", o.seed}, {"workloads", tallies}}},
    };
    std::ofstream out(o.out);
    out << doc.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench_suite: cannot write %s\n", o.out.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}
