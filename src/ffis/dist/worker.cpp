#include "ffis/dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ffis/dist/protocol.hpp"
#include "ffis/exp/plan_config.hpp"
#include "ffis/exp/prepare.hpp"
#include "ffis/net/framing.hpp"
#include "ffis/net/socket.hpp"
#include "ffis/util/thread_pool.hpp"

namespace ffis::dist {

namespace {

/// The worker's whole execution context: plan, cell preparer, pool.
struct WorkerContext {
  const exp::ExperimentPlan* plan = nullptr;
  /// Built from plan_text for remote workers (ExperimentPlan's default
  /// constructor is builder-private, hence the optional).
  std::optional<exp::ExperimentPlan> owned_plan;
  /// The engine's own preparation path, built from the HelloAck's options.
  std::optional<exp::CellPreparer> preparer;
  util::ThreadPool pool;
  /// Prepared lazily on a cell's first granted unit, reused for every later
  /// unit of the cell.
  std::map<std::uint32_t, exp::PreparedCell> cells;

  explicit WorkerContext(std::size_t threads) : pool(threads) {}
};

/// The EngineOptions the coordinator forwarded in its HelloAck.
exp::EngineOptions engine_options_of(const HelloAck& ack, const WorkerOptions& options) {
  exp::EngineOptions engine;
  engine.checkpoint_dir = !options.checkpoint_dir_override.empty()
                              ? options.checkpoint_dir_override
                              : ack.checkpoint_dir;
  engine.checkpoint_budget = ack.checkpoint_budget;
  if (ack.chunk_size > 0) {
    engine.fs_options.chunk_size = static_cast<std::size_t>(ack.chunk_size);
  }
  return engine;
}

/// One connection's I/O: the main thread and the heartbeat thread share the
/// stream, so sends are serialized behind a mutex; only the main thread
/// receives, skipping the Pongs the coordinator interleaves with replies.
struct SessionIo {
  net::Stream* stream = nullptr;
  std::mutex send_mutex;

  void send(util::ByteSpan payload) {
    std::lock_guard lock(send_mutex);
    net::send_frame(*stream, payload);
  }

  [[nodiscard]] std::optional<util::Bytes> recv_reply() {
    while (auto frame = net::recv_frame(*stream)) {
      if (peek_type(*frame) == MsgType::Pong) continue;
      return frame;
    }
    return std::nullopt;
  }
};

/// Sends a Ping every interval until destroyed.  A send failure ends the
/// thread silently — the main thread discovers the dead link on its own next
/// I/O, and two error reports for one failure help nobody.
class HeartbeatThread {
 public:
  HeartbeatThread(SessionIo& io, std::uint64_t interval_ms) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, &io, interval_ms] {
      for (;;) {
        {
          std::unique_lock lock(mutex_);
          if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; })) {
            return;
          }
        }
        try {
          const auto ping = encode(Ping{});
          io.send(ping);
        } catch (const std::exception&) {
          return;
        }
      }
    });
  }

  ~HeartbeatThread() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One full coordinator session: connect, handshake, serve until Shutdown.
/// Returns normally on a terminal outcome (Shutdown, rejection, simulated
/// abort); throws net::NetError / decode exceptions on transient transport
/// failures the retry loop may reconnect after.
void run_session(const std::string& host, std::uint16_t port,
                 const WorkerOptions& options, WorkerStats& stats,
                 bool reconnect) {
  net::Socket socket = net::Socket::connect(host, port);
  std::unique_ptr<net::Stream> stream =
      options.transport ? options.transport(std::move(socket))
                        : std::make_unique<net::Socket>(std::move(socket));
  SessionIo io;
  io.stream = stream.get();

  {
    Hello hello;
    hello.worker_name = options.name;
    hello.auth_token = options.auth_token;
    hello.reconnect = reconnect;
    const auto encoded = encode(hello);
    io.send(encoded);
  }
  const auto reply = io.recv_reply();
  if (!reply) throw net::NetError("coordinator closed during the handshake");
  if (peek_type(*reply) == MsgType::HelloReject) {
    stats.reject_reason = decode_hello_reject(*reply).reason;
    return;
  }
  const HelloAck ack = decode_hello_ack(*reply);
  stats.worker_id = ack.worker_id;
  if (reconnect) ++stats.reconnects;

  WorkerContext ctx(options.threads);
  if (options.plan != nullptr) {
    if (plan_fingerprint(*options.plan) != ack.plan_fingerprint) {
      throw std::runtime_error(
          "local plan does not match the coordinator's plan fingerprint");
    }
    ctx.plan = options.plan;
  } else {
    if (ack.plan_text.empty()) {
      throw std::runtime_error(
          "coordinator sent no plan text and no local plan was supplied");
    }
    ctx.owned_plan = exp::build_plan(exp::parse_plan_config(ack.plan_text));
    if (plan_fingerprint(*ctx.owned_plan) != ack.plan_fingerprint) {
      throw std::runtime_error(
          "plan built from the coordinator's plan text does not match its "
          "fingerprint");
    }
    ctx.plan = &*ctx.owned_plan;
  }
  ctx.preparer.emplace(*ctx.plan, engine_options_of(ack, options));

  // Heartbeats start only after the plan checks passed: a worker that is
  // about to bail on a fingerprint mismatch must not keep grants alive.
  HeartbeatThread heartbeat(io, ack.heartbeat_interval_ms);

  for (;;) {
    {
      const auto request = encode(WorkRequest{});
      io.send(request);
    }
    const auto frame = io.recv_reply();
    if (!frame) throw net::NetError("coordinator closed while work was pending");
    if (peek_type(*frame) == MsgType::Shutdown) break;
    const WorkGrant grant = decode_work_grant(*frame);
    if (grant.cell_index >= ctx.plan->size()) {
      throw std::runtime_error("granted a unit of out-of-plan cell " +
                               std::to_string(grant.cell_index));
    }

    auto [it, first_unit] = ctx.cells.try_emplace(grant.cell_index);
    exp::PreparedCell& cell = it->second;
    if (first_unit) {
      cell = ctx.preparer->prepare(grant.cell_index);
      // A preparation error is deterministic, so the coordinator abandons
      // the cell fleet-wide.
      const auto info = encode(CellInfo{cell, grant.cell_index});
      io.send(info);
    }
    if (cell.injector == nullptr) continue;  // abandoned; just ask again

    // Execute the whole range into per-run slots, then stream in run order.
    // Seeds come from the generator exactly as the engine derives them, so
    // these rows are bit-identical to a single-process run's.  A skipped run
    // sends no row: its instance's executed run set the cell's flag in this
    // session, and that run's row left on this connection ahead of this
    // unit's UnitDone, so the coordinator fills the skipped slot first.
    const std::uint64_t n = grant.run_end - grant.run_begin;
    std::vector<std::optional<core::RunResult>> results(n);
    util::parallel_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t i) {
      const std::uint64_t r = grant.run_begin + i;
      results[i] = exp::execute_run(cell, r);
    });

    const bool abort_now = stats.units_completed == options.abort_after_units;
    const std::uint64_t send_count = abort_now ? n / 2 : n;
    // Rows leave in RunBatch frames: one frame per kRunBatchRows rows
    // instead of one per run, which is most of the result path's framing and
    // syscall cost on a fast unit.  The age threshold backstops slow row
    // production (an encode stall, a preempted worker) so the coordinator's
    // liveness picture never goes stale by more than kRunBatchFlushMs.
    RunBatch batch;
    auto batch_started = std::chrono::steady_clock::now();
    const auto flush = [&] {
      if (batch.rows.empty()) return;
      const auto encoded = encode(batch);
      io.send(encoded);
      batch.rows.clear();
    };
    for (std::uint64_t i = 0; i < send_count; ++i) {
      if (!results[i]) continue;
      if (batch.rows.empty()) batch_started = std::chrono::steady_clock::now();
      batch.rows.push_back(
          to_run_row(*results[i], grant.unit_id, grant.cell_index, grant.run_begin + i));
      if (batch.rows.size() >= kRunBatchRows ||
          std::chrono::steady_clock::now() - batch_started >=
              std::chrono::milliseconds(kRunBatchFlushMs)) {
        flush();
      }
    }
    flush();  // the remainder — before UnitDone, and before a simulated death
    if (abort_now) {
      // Simulated death: no UnitDone, no goodbye — the coordinator must
      // recover by re-granting this unit to someone else.
      stream->shutdown_both();
      stats.aborted = true;
      return;
    }
    {
      const auto done = encode(UnitDone{grant.unit_id});
      io.send(done);
    }
    ++stats.units_completed;
    stats.runs_executed += n;
  }
}

}  // namespace

WorkerStats run_worker(const std::string& host, std::uint16_t port,
                       const WorkerOptions& options) {
  WorkerStats stats;
  const std::size_t attempts = std::max<std::size_t>(1, options.retry_attempts);
  std::uint64_t backoff = std::max<std::uint64_t>(1, options.retry_backoff_ms);
  const std::uint64_t backoff_max =
      std::max<std::uint64_t>(backoff, options.retry_backoff_max_ms);
  std::uint64_t jitter_state = options.retry_jitter_seed;

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      run_session(host, port, options, stats, /*reconnect=*/attempt > 1);
      return stats;
    } catch (const net::NetError&) {
      // Unreachable, dropped, or truncated mid-frame: transient.
      if (attempt >= attempts) throw;
    } catch (const std::invalid_argument&) {
      // A garbled link feeds the strict decoders nonsense; the next
      // connection gets a fresh stream.
      if (attempt >= attempts) throw;
    } catch (const std::out_of_range&) {
      if (attempt >= attempts) throw;
    }
    // Everything else (HelloReject lands as reject_reason, plan/fingerprint
    // mismatches as std::runtime_error) is terminal: retrying an
    // incompatible fleet cannot succeed.
    const std::uint64_t sleep_ms =
        backoff / 2 + splitmix64(jitter_state) % (backoff / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff = std::min(backoff * 2, backoff_max);
  }
}

}  // namespace ffis::dist
