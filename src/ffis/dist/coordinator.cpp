#include "ffis/dist/coordinator.hpp"

#include <chrono>
#include <utility>

#include "ffis/net/framing.hpp"

namespace ffis::dist {

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Coordinator::Coordinator(const exp::ExperimentPlan& plan, CoordinatorOptions options)
    : plan_(plan),
      options_(std::move(options)),
      fingerprint_(plan_fingerprint(plan)),
      listener_(net::Listener::listen(options_.port)),
      scheduler_(shard_plan(plan, options_.unit_runs)) {}

Coordinator::~Coordinator() {
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard lock(mutex_);
    for (net::Socket* s : live_sockets_) s->shutdown_both();
  }
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
}

exp::ExperimentReport Coordinator::run() {
  exp::NullSink sink;
  return run(sink);
}

exp::ExperimentReport Coordinator::run(exp::ResultSink& sink) {
  sink.begin(plan_);
  {
    std::lock_guard lock(mutex_);
    collector_.emplace(plan_, sink, options_.engine.keep_details);
    serving_ = true;
    // Restore landed work before the listener serves anyone, so a replayed
    // unit can never race a fresh grant of itself.
    if (!options_.journal_path.empty()) {
      journal_ = std::make_unique<CampaignJournal>(options_.journal_path,
                                                   fingerprint_, options_.unit_runs);
      replay_journal_locked();
    }
  }

  acceptor_ = std::thread([this] { accept_loop(); });

  {
    std::unique_lock lock(mutex_);
    while (!plan_finished_locked() && !cancelled_ && !drained_locked()) {
      if (options_.unit_timeout_ms > 0) {
        // Sweep for stale grants at a fraction of the timeout so a hung
        // worker delays its units by at most ~1.25x the configured budget.
        work_cv_.wait_for(
            lock, std::chrono::milliseconds(1 + options_.unit_timeout_ms / 4));
        const std::size_t stale =
            scheduler_.requeue_stale(now_ms(), options_.unit_timeout_ms);
        if (stale > 0) {
          collector_->report().heartbeat_timeouts += stale;
          work_cv_.notify_all();
        }
      } else {
        work_cv_.wait(lock);
      }
    }
    serving_ = false;  // handlers answer every further WorkRequest with Shutdown
  }
  work_cv_.notify_all();

  // Stop accepting, then wait for every handler.  Healthy workers drain
  // their Shutdown reply and their handlers exit on their own — give them a
  // grace window first, because force-closing a socket whose handler is
  // mid-reply would turn a clean Shutdown into a broken pipe on the worker.
  // Only peers still connected past the grace (hung, or never completing
  // the conversation) have their sockets half-closed, which unparks their
  // handlers from recv.
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> handlers;
  {
    std::unique_lock lock(mutex_);
    work_cv_.wait_for(lock, std::chrono::milliseconds(1000),
                      [this] { return live_sockets_.empty(); });
    for (net::Socket* s : live_sockets_) s->shutdown_both();
    handlers.swap(handlers_);
  }
  for (auto& t : handlers) {
    if (t.joinable()) t.join();
  }

  exp::ExperimentReport report;
  {
    std::lock_guard lock(mutex_);
    // Cancellation can leave cells partially executed; finish() finalizes
    // them with whatever rows arrived, as the engine does.
    report = collector_->finish();
    collector_.reset();
    report.units_regranted = scheduler_.regranted();
    report.cancelled = cancelled_ || !scheduler_.all_done();
    journal_.reset();  // flushed record-by-record; close the descriptor
  }
  sink.end(report);
  return report;
}

void Coordinator::request_cancel() noexcept {
  {
    std::lock_guard lock(mutex_);
    cancelled_ = true;
  }
  work_cv_.notify_all();
}

void Coordinator::request_drain() noexcept {
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
  }
  work_cv_.notify_all();
}

bool Coordinator::drained_locked() const {
  return draining_ && scheduler_.granted_count() == 0;
}

void Coordinator::accept_loop() {
  for (;;) {
    auto socket = std::make_unique<net::Socket>();
    try {
      *socket = listener_.accept();
    } catch (const net::NetError&) {
      return;  // listener_.shutdown() — run() is winding down
    }
    // Registered before its handler is scheduled: a peer accepted just as the
    // plan finishes must still be half-closed by run()'s teardown, or a
    // handler that starts late could park in recv with run() joining it.
    std::lock_guard lock(mutex_);
    live_sockets_.insert(socket.get());
    handlers_.emplace_back(&Coordinator::handle_connection, this, std::move(socket));
  }
}

bool Coordinator::handshake(net::Socket& socket, std::uint32_t worker_id) {
  const auto frame = net::recv_frame(socket);
  if (!frame) return false;
  const Hello hello = decode_hello(*frame);
  if (hello.magic != kProtocolMagic) {
    const auto reject = encode(HelloReject{"bad protocol magic"});
    net::send_frame(socket, reject);
    return false;
  }
  if (hello.version != kProtocolVersion) {
    const auto reject = encode(HelloReject{
        "protocol version mismatch: coordinator speaks v" +
        std::to_string(kProtocolVersion) + ", worker speaks v" +
        std::to_string(hello.version)});
    net::send_frame(socket, reject);
    return false;
  }
  // Auth happens before the ack: an unauthenticated peer must never see the
  // plan text, the checkpoint directory, or even the plan fingerprint.
  if (!options_.auth_token.empty() &&
      !constant_time_equal(hello.auth_token, options_.auth_token)) {
    const auto reject = encode(HelloReject{"auth token mismatch"});
    net::send_frame(socket, reject);
    return false;
  }
  if (hello.reconnect) {
    std::lock_guard lock(mutex_);
    ++collector_->report().worker_reconnects;
  }
  HelloAck ack;
  ack.worker_id = worker_id;
  ack.plan_fingerprint = fingerprint_;
  ack.plan_text = options_.plan_text;
  ack.checkpoint_dir = options_.engine.checkpoint_dir;
  ack.chunk_size = options_.engine.fs_options.chunk_size;
  ack.checkpoint_budget = options_.engine.checkpoint_budget;
  ack.heartbeat_interval_ms = options_.heartbeat_interval_ms;
  const auto encoded = encode(ack);
  net::send_frame(socket, encoded);
  return true;
}

void Coordinator::handle_connection(std::unique_ptr<net::Socket> socket) {
  std::uint32_t worker_id = 0;
  {
    std::lock_guard lock(mutex_);
    worker_id = next_worker_id_++;
  }
  try {
    serve_connection(*socket, worker_id);
  } catch (const std::exception&) {
    // Malformed frame or a peer that died mid-message: treat exactly like a
    // disconnect — the worker's granted units are re-queued below.
  }
  std::lock_guard lock(mutex_);
  live_sockets_.erase(socket.get());
  // Unconditional: run()'s teardown grace-waits on live_sockets_ draining,
  // and a lost worker's re-queued units (or a finished/drained plan) must
  // wake parked handlers either way.
  (void)scheduler_.on_worker_lost(worker_id);
  work_cv_.notify_all();
}

void Coordinator::serve_connection(net::Socket& socket, std::uint32_t worker_id) {
  if (!handshake(socket, worker_id)) return;
  {
    std::lock_guard lock(mutex_);
    ++collector_->report().workers_connected;
  }

  bool shutdown_sent = false;
  while (!shutdown_sent) {
    const auto frame = net::recv_frame(socket);
    if (!frame) break;
    switch (peek_type(*frame)) {
      case MsgType::WorkRequest: {
        util::Bytes reply;
        {
          std::unique_lock lock(mutex_);
          for (;;) {
            if (cancelled_ || draining_ || !serving_ || plan_finished_locked()) {
              reply = encode(Shutdown{});
              shutdown_sent = true;
              break;
            }
            if (auto unit = scheduler_.grant(worker_id, now_ms())) {
              WorkGrant grant;
              grant.unit_id = unit->unit_id;
              grant.cell_index = unit->cell_index;
              grant.run_begin = unit->run_begin;
              grant.run_end = unit->run_end;
              reply = encode(grant);
              break;
            }
            work_cv_.wait(lock);
          }
        }
        // After Shutdown nothing more is expected on this connection, so the
        // loop ends instead of parking in recv until the peer closes — a
        // peer that never closes must not pin this handler.
        net::send_frame(socket, reply);
        break;
      }
      case MsgType::CellInfo:
        on_cell_info(decode_cell_info(*frame), worker_id);
        break;
      case MsgType::RunBatch: {
        const RunBatch batch = decode_run_batch(*frame);
        std::lock_guard lock(mutex_);
        for (const RunRow& row : batch.rows) {
          if (!land_row_locked(row, worker_id)) {
            throw net::NetError("RunRow for out-of-plan run " +
                                std::to_string(row.run_index) + " of cell " +
                                std::to_string(row.cell_index));
          }
        }
        break;
      }
      case MsgType::UnitDone: {
        const UnitDone done = decode_unit_done(*frame);
        std::lock_guard lock(mutex_);
        if (scheduler_.complete(done.unit_id, worker_id)) {
          if (journal_ != nullptr) journal_unit_locked(done.unit_id);
          if (plan_finished_locked() || draining_) work_cv_.notify_all();
        }
        break;
      }
      case MsgType::Ping: {
        {
          std::lock_guard lock(mutex_);
          scheduler_.refresh_worker(worker_id, now_ms());
        }
        const auto pong = encode(Pong{});
        net::send_frame(socket, pong);
        break;
      }
      default:
        throw net::NetError("unexpected message from worker " +
                            std::to_string(worker_id));
    }
  }
}

bool Coordinator::land_info_locked(const CellInfo& info, std::uint32_t worker_id) {
  if (!collector_->set_facts(info.cell_index, info, worker_id)) return false;
  // Preparation is deterministic, so an error cell fails on every worker:
  // abandon its remaining units (the collector finalized it with an empty
  // tally, as the engine reports prepare failures).
  if (!info.error.empty()) scheduler_.abandon_cell(info.cell_index);
  return true;
}

bool Coordinator::land_row_locked(const RunRow& row, std::uint32_t worker_id) {
  if (row.cell_index >= plan_.size() ||
      row.run_index >= plan_.cells()[row.cell_index].runs) {
    return false;
  }
  // First wins: a re-granted unit reproduces byte-identical rows (seeds are
  // pure functions of run index), so dropping duplicates loses nothing.  The
  // collector labels replays; the row only says whether a feature was drawn.
  core::RunResult run = to_run_result(row);
  run.worker_id = worker_id;
  collector_->land(row.cell_index, row.run_index, std::move(run));
  return true;
}

void Coordinator::replay_journal_locked() {
  const JournalReplay& replay = journal_->replayed();
  // Cell facts first (error cells must abandon their units before any unit
  // record could race a finalize), then landed units.  A journaled row lands
  // like a live one, so a feature-free row fills its instance's open slots
  // again.  Replay is tolerant: a record that passed its checksum but names
  // out-of-plan indices or malformed facts (a hand-edited file) is skipped,
  // never fatal, and never double-counted — occupied slots and non-Pending
  // units reject duplicates exactly like the network path does.
  for (const CellInfo& info : replay.cell_infos) {
    if (malformed_info_locked(info).empty()) (void)land_info_locked(info, 0);
  }
  for (const JournalReplay::Unit& unit : replay.units) {
    if (!scheduler_.mark_done(unit.unit_id)) continue;
    ++collector_->report().units_replayed_from_journal;
    for (const auto& [worker_id, row] : unit.rows) (void)land_row_locked(row, worker_id);
  }
}

void Coordinator::journal_unit_locked(std::uint64_t unit_id) {
  const WorkUnit& unit = scheduler_.units()[unit_id];
  std::vector<std::pair<std::uint32_t, RunRow>> rows;
  rows.reserve(static_cast<std::size_t>(unit.runs()));
  for (std::uint64_t r = unit.run_begin; r < unit.run_end; ++r) {
    // Lost races leave no trace to journal.  A finalized cell keeps its
    // slots: its last UnitDone arrives after the row that finalized it.  A
    // slot filled from another run of its instance journals as that run's
    // feature-free row, which fills the same slots again on replay.
    const core::RunResult* run = collector_->landed(unit.cell_index, r);
    if (run == nullptr) continue;
    rows.emplace_back(run->worker_id, to_run_row(*run, unit_id, unit.cell_index, r));
  }
  journal_->append_unit(unit_id, rows);
}

std::string Coordinator::malformed_info_locked(const CellInfo& info) {
  const std::string cell = "CellInfo for cell " + std::to_string(info.cell_index);
  if (info.cell_index >= plan_.size()) return cell + " is out of plan";
  // Replay groups a cell's runs by the instances its primitive count draws,
  // so a count the kept facts disagree with must never land.
  if (!info.error.empty()) return {};
  if (info.primitive_count == 0) return cell + " has no primitive count and no error";
  const std::uint64_t kept = collector_->report().cells[info.cell_index].primitive_count;
  if (kept != 0 && kept != info.primitive_count) {
    return cell + " has primitive count " + std::to_string(info.primitive_count) +
           ", but the cell's kept count is " + std::to_string(kept);
  }
  return {};
}

void Coordinator::on_cell_info(const CellInfo& info, std::uint32_t worker_id) {
  std::lock_guard lock(mutex_);
  if (const std::string problem = malformed_info_locked(info); !problem.empty()) {
    throw net::NetError(problem);
  }
  // Journaled when it changed the cell: its first facts, or the error that
  // must keep a resumed campaign's cell abandoned even when another worker's
  // clean facts came first.
  if (land_info_locked(info, worker_id)) {
    if (journal_ != nullptr) journal_->append_cell_info(info);
    if (!info.error.empty()) work_cv_.notify_all();  // abandoning units can finish the plan
  }
}

bool Coordinator::plan_finished_locked() const { return scheduler_.all_done(); }

}  // namespace ffis::dist
