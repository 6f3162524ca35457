#pragma once
// dist::Coordinator — the serving half of distributed campaign execution.
//
// The coordinator owns the plan.  It shards every cell into (cell, run-range)
// work units (dist::shard_plan), listens on a TCP port, and hands units to
// whichever worker asks next; workers stream back one RunRow per executed
// or synthesized injection run (in RunBatch frames) plus per-cell
// preparation facts (CellInfo).  A run a worker skipped because its instance
// already executed feature-free sends no row: the collector fills its slot
// from that execution's row, which arrives first on the same connection.
// Rows and facts land in the engine's own exp::CellCollector,
// live or replayed from the journal alike, so the merged report is
// bit-identical to a single-process exp::Engine run of the same plan at the
// same seeds, regardless of worker count, scheduling, or mid-campaign worker
// loss.
//
// Fault tolerance: a worker that disconnects (or exceeds
// CoordinatorOptions::unit_timeout_ms on a unit) has its granted units
// re-queued and re-granted to the survivors.  Re-execution is safe because
// run seeds are pure functions of (cell seed, run index); duplicate rows from
// a worker that died *after* sending some of a unit are deduplicated
// first-wins on the (cell, run) slot.
//
// Threading: one acceptor thread plus one handler thread per connection, all
// sharing one mutex + condvar (which also serializes the collector);
// handlers park in the condvar while no unit is pending.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ffis/dist/journal.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/dist/scheduler.hpp"
#include "ffis/exp/collector.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/net/socket.hpp"

namespace ffis::dist {

struct CoordinatorOptions {
  /// TCP port to serve on; 0 picks an ephemeral port (see Coordinator::port).
  std::uint16_t port = 0;
  /// Runs per work unit.  Smaller units steal better (a lost worker forfeits
  /// less), larger units amortize per-unit protocol chatter; 32 keeps a lost
  /// worker's cost below a second on the bundled workloads.
  std::uint64_t unit_runs = 32;
  /// Re-queue a granted unit when no completion arrived within this many
  /// milliseconds (0 = re-grant on disconnect only).  Timeouts re-execute
  /// work, never corrupt it — completions for a re-granted unit are dropped.
  std::uint64_t unit_timeout_ms = 0;
  /// Plan-config text handed to remote workers in the HelloAck so they can
  /// build the plan themselves (exp::parse_plan_config dialect).  Empty when
  /// every worker holds a local plan (in-process workers, tests).
  std::string plan_text;
  /// Campaign journal path (empty = no journal).  Landed units are appended
  /// with per-record checksums and replayed on restart when the plan
  /// fingerprint and unit_runs match — see dist::CampaignJournal.
  std::string journal_path;
  /// Shared-secret fleet token; non-empty makes the handshake reject any
  /// Hello whose token differs (constant-time compare, before any plan text
  /// is sent).
  std::string auth_token;
  /// Interval (ms) at which workers must send liveness Pings; 0 disables.
  /// A heartbeat restamps the grant clock of the worker's units, so a slow
  /// worker keeps its grant while a hung one trips unit_timeout_ms.
  std::uint64_t heartbeat_interval_ms = 0;
  /// Execution options forwarded to workers: checkpoint_dir,
  /// checkpoint_budget and the fs geometry, from which each worker builds
  /// the engine's exp::CellPreparer.
  /// keep_details applies to the merged report.  `threads` and `progress`
  /// apply to nothing here — workers choose their own thread counts — and
  /// force_block_device stays engine-only: it is an inert A/B probe whose
  /// tallies are bit-identical either way.
  exp::EngineOptions engine;
};

class Coordinator {
 public:
  /// Binds and listens immediately (port() is valid after construction, so a
  /// test can start workers before run()), but accepts no connection until
  /// run() starts.  Throws net::NetError when the port is taken.
  Coordinator(const exp::ExperimentPlan& plan, CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The bound port — the configured one, or the kernel's pick for port 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return listener_.port(); }

  /// Serves the plan until every unit is done (or cancelled), streaming
  /// finished cells to `sink` in plan order, then shuts every worker down.
  /// The report is bit-identical in tallies to exp::Engine::run of the same
  /// plan; distributed-only counters: workers_connected, units_regranted.
  exp::ExperimentReport run(exp::ResultSink& sink);
  exp::ExperimentReport run();

  /// Stops granting new units; workers receive Shutdown on their next
  /// request and the report is marked cancelled with partial tallies.
  void request_cancel() noexcept;

  /// Graceful drain (the SIGINT path): stop granting new units but let every
  /// in-flight unit land (and be journaled) before run() returns.  The
  /// report is marked cancelled when the plan didn't finish; with a journal,
  /// a later invocation resumes exactly where the drain stopped.
  void request_drain() noexcept;

 private:
  void accept_loop();
  void handle_connection(std::unique_ptr<net::Socket> socket);
  void serve_connection(net::Socket& socket, std::uint32_t worker_id);
  /// True when the handshake succeeded (worker admitted to the fleet).
  bool handshake(net::Socket& socket, std::uint32_t worker_id);
  void on_cell_info(const CellInfo& info, std::uint32_t worker_id);
  /// Why `info` must not land — an out-of-plan cell, clean facts without a
  /// primitive count, or a count that differs from the cell's kept one — or
  /// empty.  Live, the reason drops the peer; in journal replay the record
  /// is skipped.
  [[nodiscard]] std::string malformed_info_locked(const CellInfo& info);
  /// Locked helpers.  The two land_* calls serve live frames and journal
  /// replay alike.  land_info_locked takes an in-plan cell and returns true
  /// when the facts changed it; land_row_locked returns false for a row
  /// outside the plan.
  bool land_info_locked(const CellInfo& info, std::uint32_t worker_id);
  bool land_row_locked(const RunRow& row, std::uint32_t worker_id);
  void replay_journal_locked();
  void journal_unit_locked(std::uint64_t unit_id);
  [[nodiscard]] bool plan_finished_locked() const;
  [[nodiscard]] bool drained_locked() const;

  const exp::ExperimentPlan& plan_;
  CoordinatorOptions options_;
  std::uint64_t fingerprint_ = 0;
  net::Listener listener_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< pending unit appeared / plan finished
  UnitScheduler scheduler_;
  /// Built by run(), which is handed the sink; its report also gathers the
  /// distributed-only counters.
  std::optional<exp::CellCollector> collector_;
  std::uint32_t next_worker_id_ = 1;  ///< 0 is reserved for "local / none"
  bool cancelled_ = false;
  bool draining_ = false;
  bool serving_ = false;
  std::unique_ptr<CampaignJournal> journal_;
  /// Sockets of live handler threads, registered at accept; teardown
  /// half-closes them so a hung peer cannot pin a handler (and therefore
  /// run()) in recv forever.
  std::set<net::Socket*> live_sockets_;

  std::vector<std::thread> handlers_;
  std::thread acceptor_;
};

}  // namespace ffis::dist
