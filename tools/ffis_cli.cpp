// ffis — command-line driver for the FFIS fault-injection framework.
//
// Subcommands (run `ffis` without arguments for each one's flags, which
// usage() prints from the flag tables below):
//   ffis plan     <config-file>   run a multi-cell experiment plan, locally
//                                 or as a distributed coordinator
//   ffis worker   <host:port>     execute work units for a remote coordinator
//   ffis campaign <config-file>   run a single fault-injection campaign
//   ffis sweep    <config-file>   byte-wise HDF5 metadata sweep (Table III)
//   ffis profile  <config-file>   fault-free I/O profile of an application
//   ffis doctor   <dir> <file>    diagnose/repair an HDF5 file on disk
//   ffis store gc <dir>           offline GC of an existing checkpoint store
//   ffis paper    <artifact>      reproduce one of the paper's tables,
//                                 figures or ablations (ffis::paper);
//                                 FFIS_RUNS, FFIS_SEED and FFIS_NYX_GRID
//                                 override its sample size, seed and grid
//   ffis demo                     one-shot end-to-end demonstration
//
// Numeric flags take unsigned decimal integers only; anything else (a
// sign, trailing junk), an unknown flag, or a flag the invocation's mode
// cannot honour prints usage and exits 2.
//
// Single-campaign config files (campaign/sweep/profile) are "key = value"
// text (see exp::parse_campaign_config — a plan's defaults block alone):
//
//   application = nyx        # nyx | qmc | montage
//   fault = BIT_FLIP@pwrite{width=2}
//   runs = 1000
//   seed = 42
//   stage = -1               # 1..4 scopes Montage stages
//   grid = 64                # application-specific extras
//   timesteps = 1            # nyx: >= 2 adds in-place slab-update dumps
//
// Plan config files (plan) use the same dialect split into blocks (see
// exp::parse_plan_config).  Keys before the first [cell] header are
// defaults inherited by every cell, plus engine/sink settings; each [cell]
// block overrides them for one campaign cell:
//
//   runs = 200               # defaults for every cell
//   seed = 42
//   threads = 0              # engine workers; 0 = all hardware threads
//   csv = results.csv        # optional: also stream results to CSV
//   jsonl = results.jsonl    # optional: also stream results to JSON lines
//   checkpoint_dir = .ffis-checkpoints  # optional: persist golden runs and
//                            # pre-fault checkpoints across invocations, so
//                            # re-running the plan skips every fault-free
//                            # prefix (the --checkpoint-dir flag overrides)
//
//   [cell]
//   application = nyx
//   fault = BF
//   label = NYX-BF           # optional display label
//
//   [cell]
//   application = montage
//   fault = DW
//   stage = 3                # stage-scoped injection, as in campaigns
//
// Cells naming the same application with the same application extras share
// one instance, so the engine performs their golden run only once.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/scheduler.hpp"
#include "ffis/dist/worker.hpp"
#include "ffis/analysis/metadata_sweep.hpp"
#include "ffis/analysis/stats.hpp"
#include "ffis/apps/app_factory.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan_config.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/paper/paper.hpp"
#include "ffis/util/strfmt.hpp"
#include "ffis/vfs/posix_fs.hpp"

using namespace ffis;

namespace {

// --- flag tables ---------------------------------------------------------------

/// The modes a `plan` invocation runs in.  Each flag names the modes that
/// honour it; a flag given in none of the invocation's modes is a usage
/// error, not a no-op.  Other subcommands' flags keep kAnyMode.
enum Mode : unsigned { kLocal = 1, kFleet = 2, kDryRun = 4, kAnyMode = 7 };

/// One command-line flag of a subcommand's table.
struct Flag {
  const char* name;
  /// The value's placeholder in usage(); nullptr for a switch.
  const char* value;
  /// Stores the value (nullptr for a switch); false when it is malformed.
  std::function<bool(const char*)> set;
  unsigned modes = kAnyMode;
};

/// Stores a flag's value in `out`: a switch as true, text as given, a
/// number only when it is an unsigned decimal in [min, max] (false
/// otherwise), into a u64 or an optional one.
template <class T>
std::function<bool(const char*)> into(T& out, std::uint64_t min = 0,
                                      std::uint64_t max = UINT64_MAX) {
  return [&out, min, max](const char* text) {
    if constexpr (std::is_same_v<T, bool>) {
      out = true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      out = text;
    } else {
      const auto value = util::parse_u64(text);
      if (!value || *value < min || *value > max) return false;
      out = *value;
    }
    return true;
  };
}

/// Parses argv[first..] against `table`, then checks every given flag
/// against the invocation's modes (`modes`, read once all flags are
/// stored).  False (-> usage) on an unknown flag, a missing or malformed
/// value, or a flag no mode of the invocation honours.
bool parse_flags(int argc, char** argv, int first, const std::vector<Flag>& table,
                 const std::function<unsigned()>& modes = [] { return kAnyMode; }) {
  std::vector<const Flag*> given;
  for (int i = first; i < argc; ++i) {
    const auto flag = std::find_if(table.begin(), table.end(), [&](const Flag& f) {
      return std::string_view(argv[i]) == f.name;
    });
    if (flag == table.end() || (flag->value != nullptr && ++i >= argc)) return false;
    if (!flag->set(flag->value != nullptr ? argv[i] : nullptr)) return false;
    given.push_back(&*flag);
  }
  const unsigned mode = modes();
  return std::all_of(given.begin(), given.end(),
                     [&](const Flag* f) { return (f->modes & mode) != 0; });
}

struct PlanFlags {
  std::string checkpoint_dir;  ///< overrides the config's checkpoint_dir
  std::optional<std::uint64_t> checkpoint_budget;  ///< overrides the config key
  std::optional<std::uint64_t> port;  ///< --serve PORT (0 = ephemeral): act as a coordinator
  std::uint64_t workers = 0;   ///< local worker processes to fork
  std::optional<std::uint64_t> unit_runs;  ///< work-unit size (default 32)
  std::optional<std::uint64_t> unit_timeout_ms;  ///< overrides the config key
  std::string journal_path;    ///< --journal: resumable campaign journal
  std::string auth_token;      ///< --auth-token / FFIS_AUTH_TOKEN
  /// --block-device: mount a passive vfs::BlockDevice under syscall-level
  /// cells too (media cells always get one); tallies are bit-identical with
  /// the flag on or off — it exists for A/B-ing the block layer's overhead.
  bool block_device = false;
  bool dry_run = false;        ///< print the work-unit table, execute nothing

  [[nodiscard]] bool distributed() const { return port.has_value() || workers > 0; }
  [[nodiscard]] unsigned modes() const {
    return (distributed() ? kFleet : kLocal) | (dry_run ? kDryRun : 0);
  }
};

std::vector<Flag> plan_flags(PlanFlags& f) {
  return {
      {"--checkpoint-dir", "DIR", into(f.checkpoint_dir)},
      {"--checkpoint-budget", "BYTES", into(f.checkpoint_budget)},
      {"--serve", "PORT", into(f.port, 0, 65535)},
      {"--workers", "N", into(f.workers)},
      // Units shard a fleet's work, and a dry run prints them.
      {"--unit-runs", "N", into(f.unit_runs, 1), kFleet | kDryRun},
      {"--unit-timeout", "MS", into(f.unit_timeout_ms), kFleet},
      {"--journal", "PATH", into(f.journal_path), kFleet},
      {"--auth-token", "TOK", into(f.auth_token), kFleet},
      {"--block-device", nullptr, into(f.block_device), kLocal},
      {"--dry-run", nullptr, into(f.dry_run)},
  };
}

struct WorkerFlags {
  std::uint64_t threads = 0;
  std::string checkpoint_dir;
  std::string name;
  std::string auth_token;                ///< --auth-token / FFIS_AUTH_TOKEN
  std::uint64_t retry_attempts = 1;      ///< --retry N (total attempts)
  std::uint64_t retry_backoff_ms = 100;  ///< --retry-backoff MS (first delay)
};

std::vector<Flag> worker_flags(WorkerFlags& f) {
  return {
      {"--threads", "N", into(f.threads)},
      {"--checkpoint-dir", "DIR", into(f.checkpoint_dir)},
      {"--name", "NAME", into(f.name)},
      {"--retry", "N", into(f.retry_attempts, 1)},
      {"--retry-backoff", "MS", into(f.retry_backoff_ms, 1)},
      {"--auth-token", "TOK", into(f.auth_token)},
  };
}

std::vector<Flag> doctor_flags(std::uint64_t& grid) { return {{"--grid", "N", into(grid)}}; }

/// One usage entry: `command` and its flag table, wrapped at 72 columns.
std::string synopsis(const std::string& command, const std::vector<Flag>& table = {}) {
  std::string out = "       " + command;
  for (const Flag& flag : table) {
    const std::string item = std::string(" [") + flag.name +
                             (flag.value != nullptr ? std::string(" ") + flag.value : "") + "]";
    // The current line's length; rfind's npos + 1 wraps to 0 on the first.
    if (out.size() - (out.rfind('\n') + 1) + item.size() > 72) out += "\n" + std::string(16, ' ');
    out += item;
  }
  return out + "\n";
}

int usage() {
  PlanFlags plan;
  WorkerFlags worker;
  std::uint64_t grid = 0;
  std::string commands = synopsis("ffis plan <config-file>", plan_flags(plan)) +
                         synopsis("ffis worker <host:port>", worker_flags(worker)) +
                         synopsis("ffis store gc <dir>") +
                         synopsis("ffis <campaign|sweep|profile> <config-file>") +
                         synopsis("ffis doctor <host-dir> </file.h5>", doctor_flags(grid)) +
                         synopsis("ffis paper <artifact>") + synopsis("ffis demo");
  commands.replace(0, 6, "usage:");
  std::fprintf(stderr,
               "%s"
               "\n"
               "plan runs a multi-cell experiment plan: defaults (runs, seed,\n"
               "threads, optional csv/jsonl output paths, optional\n"
               "checkpoint_dir) followed by one [cell] block per campaign cell\n"
               "(application, fault, stage, label, app extras).  With a\n"
               "checkpoint dir (flag or config key), golden runs and pre-fault\n"
               "checkpoints persist across invocations and a repeated plan\n"
               "skips the fault-free prefix entirely.  --checkpoint-budget\n"
               "bounds the store: over budget, least-recently-used entries\n"
               "are evicted (never ones a running plan holds); tallies stay\n"
               "bit-identical under any budget.  It needs a checkpoint dir,\n"
               "or --serve (workers may bring their own).  Warm entries\n"
               "decode through a zero-copy read-only mmap.\n"
               "`ffis store gc <dir>` runs an offline GC pass over an existing\n"
               "store: it unlinks orphaned temp files and invalid entries.\n"
               "\n"
               "--serve and/or --workers switch plan to distributed execution:\n"
               "the process becomes a coordinator that shards the plan into\n"
               "work units (--unit-runs apiece), serves them on --serve PORT\n"
               "(0 = ephemeral) to `ffis worker` processes, forks --workers N\n"
               "local workers, and merges the streamed results into tallies\n"
               "bit-identical to a local run.  Workers sharing the checkpoint\n"
               "dir exchange goldens/checkpoints through it instead of the\n"
               "socket.  --unit-timeout re-queues a unit granted that long ago\n"
               "without completion (liveness heartbeats keep slow-but-alive\n"
               "workers exempt); --journal appends landed units to a resumable\n"
               "campaign journal so a killed coordinator restarted with the\n"
               "same plan and journal replays finished work instead of\n"
               "re-executing it; --auth-token (or FFIS_AUTH_TOKEN) makes the\n"
               "handshake reject workers without the same shared secret.\n"
               "These three flags need --serve or --workers, --unit-runs\n"
               "needs one of them or --dry-run, and --block-device (local\n"
               "execution only) rejects both.\n"
               "SIGINT drains gracefully: in-flight units land and are\n"
               "journaled before exit.  --dry-run prints the work-unit table\n"
               "and exits.  Workers retry lost coordinators --retry times with\n"
               "exponential backoff starting at --retry-backoff ms.  See the\n"
               "header of tools/ffis_cli.cpp or README.md for examples.\n"
               "\n"
               "`ffis paper` with no artifact lists the paper's artifacts.\n",
               commands.c_str());
  return 2;
}

int paper_usage() {
  std::fprintf(stderr,
               "usage: ffis paper <artifact>\n"
               "\n"
               "FFIS_RUNS (runs per campaign cell), FFIS_SEED and FFIS_NYX_GRID\n"
               "override an artifact's defaults.  Artifacts:\n");
  for (const auto& artifact : paper::artifacts()) {
    std::fprintf(stderr, "  %-26.*s %.*s\n", static_cast<int>(artifact.name.size()),
                 artifact.name.data(), static_cast<int>(artifact.title.size()),
                 artifact.title.data());
  }
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void print_run_progress(std::uint64_t done, std::uint64_t total) {
  if (done % 100 == 0 || done == total) {
    std::fprintf(stderr, "\r%llu / %llu runs", static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(total));
    if (done == total) std::fprintf(stderr, "\n");
  }
}

/// A campaign config as a one-cell plan.  The plan builder rejects
/// runs == 0 with a named error.
exp::ExperimentPlan one_cell_plan(const core::Application& app,
                                  const faults::CampaignConfig& config) {
  exp::PlanBuilder builder;
  builder.runs(config.runs).seed(config.seed);
  builder.cell(app, config.fault, config.stage, "campaign");
  return builder.build();
}

/// Runs a one-cell plan; a cell that could not run is printed and yields
/// nullopt (the command then exits 1).
std::optional<exp::CellResult> run_one_cell(const exp::ExperimentPlan& plan,
                                            exp::EngineOptions options = {}) {
  exp::CellResult cell = std::move(exp::Engine(std::move(options)).run(plan).cells.front());
  if (!cell.error.empty()) {
    std::fprintf(stderr, "ffis: %s\n", cell.error.c_str());
    return std::nullopt;
  }
  return cell;
}

int cmd_campaign(const std::string& config_path) {
  const auto config = exp::parse_campaign_config(slurp(config_path));
  const auto app = apps::make_application(config);
  const exp::ExperimentPlan plan = one_cell_plan(*app, config);
  const faults::FaultGenerator generator(config);

  std::printf("application : %s\n", app->name().c_str());
  std::printf("fault       : %s\n", generator.signature().to_string().c_str());
  std::printf("runs        : %llu   seed: %llu   stage: %d\n\n",
              static_cast<unsigned long long>(config.runs),
              static_cast<unsigned long long>(config.seed), config.stage);

  exp::EngineOptions options;
  options.progress = print_run_progress;
  const auto result = run_one_cell(plan, std::move(options));
  if (!result) return 1;

  std::printf("profiled %llu dynamic executions of the target primitive\n",
              static_cast<unsigned long long>(result->primitive_count));
  std::printf("%s\n%s\n", analysis::outcome_row_header().c_str(),
              analysis::format_outcome_row(app->name(), result->tally).c_str());
  if (result->faults_not_fired > 0) {
    std::printf("warning: %llu faults never fired\n",
                static_cast<unsigned long long>(result->faults_not_fired));
  }
  return 0;
}

/// Shared-secret token: the explicit flag wins, then FFIS_AUTH_TOKEN, then
/// none.  Both `plan --serve` and `worker` resolve through here so setting
/// the environment variable fleet-wide is enough.
std::string resolve_auth_token(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("FFIS_AUTH_TOKEN");
  return env ? std::string(env) : std::string();
}

/// SIGINT → graceful drain.  The handler only flips a sig_atomic_t; a
/// watcher thread turns it into Coordinator::request_drain (which locks a
/// mutex and is therefore not async-signal-safe to call directly).
volatile std::sig_atomic_t g_sigint = 0;
extern "C" void on_sigint(int) { g_sigint = 1; }

class SigintDrain {
 public:
  explicit SigintDrain(dist::Coordinator& coordinator) {
    previous_ = std::signal(SIGINT, on_sigint);
    watcher_ = std::thread([this, &coordinator] {
      while (!done_.load(std::memory_order_relaxed)) {
        if (g_sigint) {
          std::fprintf(stderr,
                       "\nSIGINT: draining — in-flight units will land "
                       "(press again to abort hard)\n");
          coordinator.request_drain();
          std::signal(SIGINT, SIG_DFL);  // second ^C kills the process
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  ~SigintDrain() {
    done_.store(true, std::memory_order_relaxed);
    watcher_.join();
    std::signal(SIGINT, previous_);
  }

 private:
  std::atomic<bool> done_{false};
  std::thread watcher_;
  void (*previous_)(int) = SIG_DFL;
};

int dry_run_plan(const exp::ExperimentPlan& plan, std::uint64_t unit_runs) {
  const auto units = dist::shard_plan(plan, unit_runs);
  std::printf("experiment plan: %zu cells, %llu total runs, %zu work units "
              "(<= %llu runs each)\n\n",
              plan.size(), static_cast<unsigned long long>(plan.total_runs()),
              units.size(), static_cast<unsigned long long>(unit_runs));
  std::printf("%6s  %5s  %-24s %10s %10s %6s\n", "unit", "cell", "label",
              "run_begin", "run_end", "runs");
  for (const auto& u : units) {
    const exp::Cell& cell = plan.cells()[u.cell_index];
    std::printf("%6llu  %5u  %-24s %10llu %10llu %6llu\n",
                static_cast<unsigned long long>(u.unit_id), u.cell_index,
                cell.label.c_str(), static_cast<unsigned long long>(u.run_begin),
                static_cast<unsigned long long>(u.run_end),
                static_cast<unsigned long long>(u.runs()));
  }
  return 0;
}

/// Forks one local worker process connected to 127.0.0.1:port.  The child
/// shares the parent's parsed plan (fork() copy), so no plan text is parsed;
/// it exits via _exit so the parent's atexit/stdio state runs exactly once.
pid_t fork_local_worker(std::uint16_t port, const exp::ExperimentPlan& plan,
                        std::size_t threads, std::size_t index,
                        const std::string& auth_token) {
  std::fflush(nullptr);  // children must not replay the parent's buffered output
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork() failed for local worker");
  if (pid > 0) return pid;
  std::signal(SIGINT, SIG_IGN);  // ^C drains the coordinator; children follow it
  int status = 0;
  try {
    dist::WorkerOptions options;
    options.name = "local-" + std::to_string(index);
    options.threads = threads;
    options.plan = &plan;
    options.auth_token = auth_token;
    (void)dist::run_worker("127.0.0.1", port, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffis worker (local-%zu): %s\n", index, e.what());
    status = 1;
  }
  std::fflush(nullptr);
  _exit(status);
}

int cmd_plan(const std::string& config_path, const PlanFlags& flags) {
  const std::string config_text = slurp(config_path);
  auto plan_config = exp::parse_plan_config(config_text);
  if (!flags.checkpoint_dir.empty()) {
    plan_config.checkpoint_dir = flags.checkpoint_dir;
  }
  // A budget bounds a checkpoint store.  Only workers of a served plan can
  // bring their own (`ffis worker --checkpoint-dir`).
  if (flags.checkpoint_budget && plan_config.checkpoint_dir.empty() && !flags.port) {
    return usage();
  }
  const auto plan = exp::build_plan(plan_config);

  const std::uint64_t unit_runs = flags.unit_runs.value_or(32);
  if (flags.dry_run) return dry_run_plan(plan, unit_runs);

  std::printf("experiment plan: %zu cells, %llu total runs\n\n", plan.size(),
              static_cast<unsigned long long>(plan.total_runs()));

  exp::ConsoleTableSink console(stdout);
  exp::MultiSink sink;
  sink.add(console);
  std::ofstream csv_stream, jsonl_stream;
  std::unique_ptr<exp::CsvSink> csv;
  std::unique_ptr<exp::JsonlSink> jsonl;
  if (!plan_config.csv_path.empty()) {
    csv_stream.open(plan_config.csv_path);
    if (!csv_stream) throw std::runtime_error("cannot open " + plan_config.csv_path);
    csv = std::make_unique<exp::CsvSink>(csv_stream);
    sink.add(*csv);
  }
  if (!plan_config.jsonl_path.empty()) {
    jsonl_stream.open(plan_config.jsonl_path);
    if (!jsonl_stream) throw std::runtime_error("cannot open " + plan_config.jsonl_path);
    jsonl = std::make_unique<exp::JsonlSink>(jsonl_stream);
    sink.add(*jsonl);
  }

  exp::ExperimentReport report;
  const std::uint64_t checkpoint_budget =
      flags.checkpoint_budget.value_or(plan_config.checkpoint_budget);
  if (flags.distributed()) {
    dist::CoordinatorOptions options;
    options.port = static_cast<std::uint16_t>(flags.port.value_or(0));
    options.unit_runs = unit_runs;
    options.unit_timeout_ms = flags.unit_timeout_ms.value_or(plan_config.unit_timeout_ms);
    if (options.unit_timeout_ms > 0) {
      // Workers must prove liveness well inside the timeout window, or a
      // slow-but-alive worker would lose its grants to the stale sweep.
      options.heartbeat_interval_ms = std::max<std::uint64_t>(1, options.unit_timeout_ms / 3);
    }
    options.journal_path = flags.journal_path;
    options.auth_token = resolve_auth_token(flags.auth_token);
    options.plan_text = config_text;  // remote workers rebuild the plan from it
    options.engine.checkpoint_dir = plan_config.checkpoint_dir;
    options.engine.checkpoint_budget = checkpoint_budget;
    dist::Coordinator coordinator(plan, options);
    SigintDrain drain(coordinator);
    std::printf("coordinator listening on port %u (%zu local workers)\n",
                coordinator.port(), flags.workers);

    // Fork local workers BEFORE run() spawns coordinator threads (threads do
    // not survive fork).  Each inherits the parsed plan by address.
    std::vector<pid_t> children;
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < flags.workers; ++i) {
      // Split the plan's thread budget across the fleet so N workers do not
      // each grab every core.
      const std::size_t budget = plan_config.threads > 0 ? plan_config.threads : hw;
      const std::size_t threads = std::max<std::size_t>(1, budget / flags.workers);
      children.push_back(fork_local_worker(coordinator.port(), plan, threads, i + 1,
                                           options.auth_token));
    }

    report = coordinator.run(sink);

    bool worker_failed = false;
    for (const pid_t pid : children) {
      int status = 0;
      if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        worker_failed = true;
      }
    }
    if (worker_failed && report.units_regranted == 0) {
      std::fprintf(stderr, "warning: a local worker exited abnormally\n");
    }
  } else {
    exp::EngineOptions options;
    options.threads = plan_config.threads;
    options.checkpoint_dir = plan_config.checkpoint_dir;
    options.checkpoint_budget = checkpoint_budget;
    options.force_block_device = flags.block_device;
    options.progress = print_run_progress;
    exp::Engine engine(options);
    report = engine.run(plan, sink);
  }

  if (!plan_config.csv_path.empty()) {
    std::printf("wrote %s\n", plan_config.csv_path.c_str());
  }
  if (!plan_config.jsonl_path.empty()) {
    std::printf("wrote %s\n", plan_config.jsonl_path.c_str());
  }
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) return 1;
  }
  return 0;
}

int cmd_worker(const std::string& target, const WorkerFlags& flags) {
  const auto colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= target.size()) {
    std::fprintf(stderr, "ffis worker: expected <host:port>, got '%s'\n",
                 target.c_str());
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const auto port = util::parse_u64(target.substr(colon + 1));
  if (!port || *port == 0 || *port > 65535) {
    std::fprintf(stderr, "ffis worker: bad port in '%s'\n", target.c_str());
    return 2;
  }

  dist::WorkerOptions options;
  options.name = flags.name.empty() ? "worker" : flags.name;
  options.threads = flags.threads;
  options.checkpoint_dir_override = flags.checkpoint_dir;
  options.auth_token = resolve_auth_token(flags.auth_token);
  options.retry_attempts = flags.retry_attempts;
  options.retry_backoff_ms = flags.retry_backoff_ms;
  // A homogeneous fleet started from one script must not retry in lockstep;
  // mixing the worker name into the jitter seed spreads the reconnects out.
  std::uint64_t seed = 0xcbf29ce484222325ULL;
  for (const char c : options.name) seed = (seed ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  options.retry_jitter_seed = seed;
  const auto stats =
      dist::run_worker(host, static_cast<std::uint16_t>(*port), options);
  if (!stats.reject_reason.empty()) {
    std::fprintf(stderr, "ffis worker: coordinator rejected the handshake: %s\n",
                 stats.reject_reason.c_str());
    return 1;
  }
  std::printf("worker %u done: %llu units, %llu runs", stats.worker_id,
              static_cast<unsigned long long>(stats.units_completed),
              static_cast<unsigned long long>(stats.runs_executed));
  if (stats.reconnects > 0) {
    std::printf(" (%llu reconnect%s)",
                static_cast<unsigned long long>(stats.reconnects),
                stats.reconnects == 1 ? "" : "s");
  }
  std::printf("\n");
  return 0;
}

int cmd_sweep(const std::string& config_path) {
  auto config = exp::parse_campaign_config(slurp(config_path));
  if (config.application != "nyx") {
    std::fprintf(stderr, "sweep currently targets the nyx plotfile\n");
    return 2;
  }
  const auto app = apps::make_application(config);
  const nyx::NyxConfig& nyx_config = static_cast<const nyx::NyxApp&>(*app).config();
  const auto layout = nyx::plan_plotfile_layout(nyx_config.field.n, nyx_config.h5_options);

  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = nyx_config.plotfile_path;
  sweep_config.metadata_bytes = layout.metadata_size;
  sweep_config.seed = config.seed;
  const auto sweep = analysis::metadata_sweep(*app, /*app_seed=*/config.seed ^ 0x5eedULL,
                                              sweep_config);

  std::printf("metadata bytes swept: %llu\n",
              static_cast<unsigned long long>(layout.metadata_size));
  std::printf("%s\n", sweep.tally.to_string().c_str());
  std::printf("\nper-field outcomes (non-benign fields only):\n");
  for (const auto& [field, tally] : sweep.tally_by_field(layout.field_map)) {
    if (tally.count(core::Outcome::Benign) == tally.total()) continue;
    std::printf("  %-66s %s\n", field.c_str(), tally.to_string().c_str());
  }
  return 0;
}

int cmd_profile(const std::string& config_path) {
  const auto config = exp::parse_campaign_config(slurp(config_path));
  const auto app = apps::make_application(config);
  const auto signature = faults::parse_fault_signature(config.fault);
  const auto profile = core::IoProfiler::profile(*app, signature,
                                                 config.seed ^ 0x5eedULL, config.stage);
  std::printf("application : %s\n", app->name().c_str());
  std::printf("primitive   : %s\n",
              std::string(vfs::primitive_name(signature.primitive)).c_str());
  std::printf("stage       : %d\n", config.stage);
  std::printf("dynamic executions: %llu\n",
              static_cast<unsigned long long>(profile.primitive_count));
  std::printf("bytes written     : %llu\n",
              static_cast<unsigned long long>(profile.bytes_written));
  return 0;
}

int cmd_doctor(const std::string& host_dir, const std::string& file, std::size_t grid) {
  vfs::PosixFs fs(host_dir);
  const auto layout = nyx::plan_plotfile_layout(grid);
  const analysis::Hdf5Doctor doctor(layout, nyx::kDensityDatasetName);

  auto diagnosis = doctor.diagnose(fs, file);
  std::printf("diagnosis: %s\n", std::string(analysis::faulty_field_name(diagnosis.field)).c_str());
  if (!diagnosis.description.empty()) std::printf("  %s\n", diagnosis.description.c_str());
  if (diagnosis.mean_checked) std::printf("  observed mean: %.9f\n", diagnosis.observed_mean);
  if (diagnosis.healthy()) return 0;
  if (!diagnosis.correctable()) {
    std::printf("not auto-correctable\n");
    return 1;
  }
  diagnosis = doctor.diagnose_and_correct(fs, file);
  std::printf("after correction: %s\n",
              diagnosis.healthy() ? "healthy" : diagnosis.description.c_str());
  return diagnosis.healthy() ? 0 : 1;
}

int cmd_demo() {
  faults::CampaignConfig config;
  config.application = "nyx";
  config.fault = "DW";
  config.runs = 50;
  config.extra["grid"] = "32";
  const auto app = apps::make_application(config);
  const auto result = run_one_cell(one_cell_plan(*app, config));
  if (!result) return 1;
  std::printf("demo: 50 DROPPED_WRITE injections into mini-Nyx (32^3 grid)\n%s\n",
              result->tally.to_string().c_str());
  return 0;
}

int cmd_paper(const std::string& name) {
  const paper::Artifact* artifact = paper::find_artifact(name);
  if (artifact == nullptr) return paper_usage();
  paper::reproduce(*artifact, paper::options_from_env(artifact->defaults), stdout);
  return 0;
}

/// `ffis store gc <dir>`: one offline GC pass over a checkpoint store
/// directory — unlinks orphaned temp files and corrupt/stale entries, and
/// leaves valid entries as they are.  Safe to run while engines use the
/// directory (a concurrently mmap'd entry stays valid for its holder).  The
/// directory must exist: opening a store creates it, and a mistyped path
/// would otherwise report a clean, empty store.
int cmd_store_gc(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    throw std::runtime_error("no checkpoint store at " + dir);
  }
  const core::CheckpointStore store(dir);
  const auto result = store.gc();
  std::printf("store gc %s:\n", dir.c_str());
  std::printf("  temp files removed:      %llu\n",
              static_cast<unsigned long long>(result.temp_files_removed));
  std::printf("  invalid entries removed: %llu\n",
              static_cast<unsigned long long>(result.invalid_entries_removed));
  std::printf("  entries kept:            %llu\n",
              static_cast<unsigned long long>(result.entries_kept));
  std::printf("  bytes reclaimed:         %llu\n",
              static_cast<unsigned long long>(result.bytes_reclaimed));
  std::printf("  bytes after:             %llu\n",
              static_cast<unsigned long long>(result.bytes_after));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "plan" && argc >= 3) {
      PlanFlags flags;
      if (!parse_flags(argc, argv, 3, plan_flags(flags), [&] { return flags.modes(); })) {
        return usage();
      }
      return cmd_plan(argv[2], flags);
    }
    if (command == "worker" && argc >= 3) {
      WorkerFlags flags;
      if (!parse_flags(argc, argv, 3, worker_flags(flags))) return usage();
      return cmd_worker(argv[2], flags);
    }
    if (command == "store" && argc == 4 && std::string(argv[2]) == "gc") {
      return cmd_store_gc(argv[3]);
    }
    if (command == "campaign" && argc == 3) return cmd_campaign(argv[2]);
    if (command == "sweep" && argc == 3) return cmd_sweep(argv[2]);
    if (command == "profile" && argc == 3) return cmd_profile(argv[2]);
    if (command == "doctor" && argc >= 4) {
      std::uint64_t grid = 64;
      if (!parse_flags(argc, argv, 4, doctor_flags(grid))) return usage();
      return cmd_doctor(argv[2], argv[3], static_cast<std::size_t>(grid));
    }
    if (command == "paper") return argc == 3 ? cmd_paper(argv[2]) : paper_usage();
    if (command == "demo") return parse_flags(argc, argv, 2, {}) ? cmd_demo() : usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffis: %s\n", e.what());
    return 1;
  }
  return usage();
}
