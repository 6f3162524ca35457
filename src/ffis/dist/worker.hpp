#pragma once
// dist::Worker — the executing half of distributed campaign execution.
//
// run_worker connects to a coordinator, performs the versioned handshake,
// then loops "request a unit, execute it, stream its rows" until the
// coordinator replies Shutdown.  Cells are prepared by the engine's own
// exp::CellPreparer, built from the HelloAck's options: golden run and
// optional pre-fault checkpoint (in-process cache, then the leased store
// entry, then a real execution), then a core::FaultInjector prepared once
// per cell and reused across all of the cell's units — so per-run outcomes
// at a given seed are bit-identical to exp::Engine's, which is the whole
// contract of the merge on the other end, and so are the cells'
// golden_cached / checkpointed flags.
//
// Artifact transfer rides the shared checkpoint store (HelloAck names the
// directory): the first worker to need a golden/checkpoint publishes it,
// every later worker — and every later campaign — loads it.  Nothing
// multi-MiB ever crosses the socket.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "ffis/exp/plan.hpp"
#include "ffis/net/socket.hpp"

namespace ffis::dist {

struct WorkerOptions {
  /// Display name sent in the Hello (diagnostics only).
  std::string name = "worker";
  /// Threads used to execute one unit's runs; 0 = all hardware threads.
  std::size_t threads = 1;
  /// Overrides the coordinator-supplied checkpoint directory (useful when
  /// the fleet shares a network mount under different local paths); empty
  /// uses the HelloAck's directory.
  std::string checkpoint_dir_override;
  /// Local plan for in-process workers and tests: skips plan_text parsing
  /// and is verified against the coordinator's plan fingerprint instead.
  const exp::ExperimentPlan* plan = nullptr;
  /// Test hook simulating a mid-unit worker death: after this many completed
  /// units the worker executes its next unit, streams only half of its rows,
  /// then hard-closes the socket without UnitDone.  kNeverAbort disables.
  std::size_t abort_after_units = static_cast<std::size_t>(-1);
  /// Shared-secret fleet token sent in the Hello (see
  /// CoordinatorOptions::auth_token); empty when the fleet runs without auth.
  std::string auth_token;
  /// Total connection attempts before a transient failure (unreachable
  /// coordinator, dropped/garbled link, coordinator restart) is fatal; 1
  /// disables retry.  Rejections and plan/fingerprint mismatches always
  /// abandon immediately — retrying an incompatible fleet cannot help.
  std::size_t retry_attempts = 1;
  /// First retry delay; doubles per attempt up to retry_backoff_max_ms, each
  /// sleep jittered in [backoff/2, backoff] so a restarted coordinator isn't
  /// hit by every worker in the same millisecond.
  std::uint64_t retry_backoff_ms = 100;
  std::uint64_t retry_backoff_max_ms = 5000;
  /// Seed of the deterministic jitter stream (tests pin it; the CLI mixes in
  /// the worker name so a homogeneous fleet still spreads out).
  std::uint64_t retry_jitter_seed = 0;
  /// Test hook: wraps each freshly-connected socket in an arbitrary
  /// net::Stream (e.g. net::FaultySocket with a seeded fault plan).  Null
  /// uses the socket directly.
  std::function<std::unique_ptr<net::Stream>(net::Socket)> transport;
};

inline constexpr std::size_t kNeverAbort = static_cast<std::size_t>(-1);

struct WorkerStats {
  std::uint32_t worker_id = 0;
  std::uint64_t units_completed = 0;
  std::uint64_t runs_executed = 0;
  /// Non-empty when the coordinator rejected the handshake (version skew,
  /// wrong magic); the worker then executed nothing.
  std::string reject_reason;
  /// True when the abort_after_units hook fired (the "death" was simulated).
  bool aborted = false;
  /// Successful re-handshakes after a transient failure (retry loop).
  std::uint64_t reconnects = 0;
};

/// Serves one coordinator until Shutdown (or rejection), reconnecting with
/// exponential backoff on transient failures when retry_attempts > 1.
/// Throws net::NetError when the coordinator stays unreachable past the
/// retry budget, and std::runtime_error for plan mismatches — a worker whose
/// plan disagrees with the coordinator's must not execute.
WorkerStats run_worker(const std::string& host, std::uint16_t port,
                       const WorkerOptions& options = {});

}  // namespace ffis::dist
