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
      scheduler_(shard_plan(plan, options_.unit_runs)),
      cells_(plan.size()) {
  report_.cells.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const std::uint64_t runs = plan.cells()[i].runs;
    cells_[i].rows.resize(runs);
    cells_[i].executed.assign(runs, 0);
    cells_[i].row_worker.assign(runs, 0);
  }
}

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
    sink_ = &sink;
    serving_ = true;
    // Zero-run cells produce no units and no rows; they are final already.
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      if (plan_.cells()[i].runs == 0) finalize_cell_locked(i);
    }
    // Restore landed work before the listener serves anyone, so a replayed
    // unit can never race a fresh grant of itself.
    if (!options_.journal_path.empty()) {
      journal_ = std::make_unique<CampaignJournal>(options_.journal_path,
                                                   fingerprint_, options_.unit_runs);
      replay_journal_locked();
    }
    emit_in_order_locked();
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
          report_.heartbeat_timeouts += stale;
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
    // Cancellation can leave cells partially executed; finalize them with
    // whatever rows arrived (the engine reports partial tallies the same way).
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      if (!cells_[i].ready) finalize_cell_locked(i);
    }
    emit_in_order_locked();
    for (const auto& cell : report_.cells) report_.add_cell(cell);
    report_.units_regranted = scheduler_.regranted();
    report_.cancelled = cancelled_ || !scheduler_.all_done();
    report = std::move(report_);
    sink_ = nullptr;
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
    ++report_.worker_reconnects;
  }
  HelloAck ack;
  ack.worker_id = worker_id;
  ack.plan_fingerprint = fingerprint_;
  ack.plan_text = options_.plan_text;
  ack.checkpoint_dir = options_.engine.checkpoint_dir;
  ack.chunk_size = options_.engine.fs_options.chunk_size;
  ack.use_checkpoints = options_.engine.use_checkpoints;
  ack.use_diff_classification = options_.engine.use_diff_classification;
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
    ++report_.workers_connected;
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
      case MsgType::RunRow:
        on_run_row(decode_run_row(*frame), worker_id);
        break;
      case MsgType::RunBatch: {
        // Batching changes packaging only: every contained row lands through
        // the same per-row logic (first-wins dedup included) as a bare RunRow.
        const RunBatch batch = decode_run_batch(*frame);
        for (const RunRow& row : batch.rows) on_run_row(row, worker_id);
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

void Coordinator::replay_journal_locked() {
  const JournalReplay& replay = journal_->replayed();
  // Cell facts first (error cells must abandon their units before any unit
  // record could race a finalize), then landed units.  Replay is tolerant:
  // a record that passed its checksum but names out-of-plan indices (a
  // hand-edited file) is skipped, never fatal, and never double-counted —
  // occupied slots and non-Pending units reject duplicates exactly like the
  // network path does.
  for (const CellInfo& info : replay.cell_infos) {
    if (info.cell_index >= cells_.size()) continue;
    CellState& st = cells_[info.cell_index];
    if (!st.has_info) {
      st.info = info;
      st.has_info = true;
    }
    if (!info.error.empty() && st.error.empty()) {
      st.error = info.error;
      scheduler_.abandon_cell(info.cell_index);
      maybe_finalize_locked(info.cell_index);
    }
  }
  for (const JournalReplay::Unit& unit : replay.units) {
    if (!scheduler_.mark_done(unit.unit_id)) continue;
    ++report_.units_replayed_from_journal;
    for (const auto& [worker_id, row] : unit.rows) {
      if (row.cell_index >= cells_.size()) continue;
      CellState& st = cells_[row.cell_index];
      if (row.run_index >= st.rows.size() || st.executed[row.run_index] != 0) {
        continue;
      }
      st.rows[row.run_index] = row;
      st.executed[row.run_index] = 1;
      st.row_worker[row.run_index] = worker_id;
      st.worker_ids.insert(worker_id);
      ++st.executed_count;
      maybe_finalize_locked(row.cell_index);
    }
  }
}

void Coordinator::journal_unit_locked(std::uint64_t unit_id) {
  const WorkUnit& unit = scheduler_.units()[unit_id];
  const CellState& st = cells_[unit.cell_index];
  std::vector<std::pair<std::uint32_t, RunRow>> rows;
  rows.reserve(static_cast<std::size_t>(unit.runs()));
  for (std::uint64_t r = unit.run_begin; r < unit.run_end; ++r) {
    if (st.executed[r] == 0) continue;  // lost races leave no trace to journal
    rows.emplace_back(st.row_worker[r], st.rows[r]);
  }
  journal_->append_unit(unit_id, rows);
}

void Coordinator::on_cell_info(const CellInfo& info, std::uint32_t worker_id) {
  std::lock_guard lock(mutex_);
  if (info.cell_index >= cells_.size()) {
    throw net::NetError("CellInfo for out-of-plan cell " +
                        std::to_string(info.cell_index));
  }
  CellState& st = cells_[info.cell_index];
  bool journaled = false;
  if (!st.has_info) {
    st.info = info;
    st.has_info = true;
    if (journal_ != nullptr) {
      journal_->append_cell_info(info);
      journaled = true;
    }
  }
  if (!info.error.empty() && st.error.empty()) {
    // Preparation is deterministic, so this cell fails on every worker:
    // abandon its remaining units and finalize it with an empty tally (the
    // engine reports prepare failures the same way).  The error must reach
    // the journal even when another worker's clean info won the first-wins
    // slot — a resumed campaign has to keep the cell abandoned.
    if (journal_ != nullptr && !journaled) journal_->append_cell_info(info);
    st.error = info.error;
    st.worker_ids.insert(worker_id);
    scheduler_.abandon_cell(info.cell_index);
    maybe_finalize_locked(info.cell_index);
    work_cv_.notify_all();  // abandoning units can finish the plan
  }
}

void Coordinator::on_run_row(const RunRow& row, std::uint32_t worker_id) {
  std::lock_guard lock(mutex_);
  if (row.cell_index >= cells_.size()) {
    throw net::NetError("RunRow for out-of-plan cell " +
                        std::to_string(row.cell_index));
  }
  CellState& st = cells_[row.cell_index];
  if (row.run_index >= st.rows.size()) {
    throw net::NetError("RunRow for out-of-range run " +
                        std::to_string(row.run_index) + " of cell " +
                        std::to_string(row.cell_index));
  }
  // First wins: a re-granted unit reproduces byte-identical rows (seeds are
  // pure functions of run index), so dropping duplicates loses nothing.
  if (st.executed[row.run_index] != 0) return;
  st.rows[row.run_index] = row;
  st.executed[row.run_index] = 1;
  st.row_worker[row.run_index] = worker_id;
  st.worker_ids.insert(worker_id);
  ++st.executed_count;
  maybe_finalize_locked(row.cell_index);
}

bool Coordinator::plan_finished_locked() const { return scheduler_.all_done(); }

void Coordinator::maybe_finalize_locked(std::size_t i) {
  CellState& st = cells_[i];
  if (st.ready) return;
  const std::uint64_t runs = plan_.cells()[i].runs;
  if (!st.error.empty() || st.executed_count == runs) {
    finalize_cell_locked(i);
    emit_in_order_locked();
  }
}

void Coordinator::finalize_cell_locked(std::size_t i) {
  CellState& st = cells_[i];
  exp::CellResult& out = report_.cells[i];
  out.index = i;
  out.cell = plan_.cells()[i];
  out.error = st.error;
  if (st.has_info) {
    out.primitive_count = st.info.primitive_count;
    out.golden_cached = st.info.golden_cached;
    out.checkpointed = st.info.checkpointed;
    out.checkpoint_loaded = st.info.checkpoint_loaded;
  }
  out.worker_ids.assign(st.worker_ids.begin(), st.worker_ids.end());
  // Fold in run order through the engine's own fold — the reason
  // distributed tallies are bit-identical to single-process ones.
  for (std::size_t r = 0; r < st.rows.size(); ++r) {
    if (st.executed[r] == 0) continue;
    core::RunResult run = to_run_result(st.rows[r]);
    run.worker_id = st.row_worker[r];
    out.add_run(run);
    if (options_.engine.keep_details) out.details.push_back(std::move(run));
  }
  // A journaling coordinator keeps the slots: the cell's final UnitDone
  // arrives after the final RunRow (which triggered this finalize), and
  // journaling that unit still needs its rows.
  if (journal_ == nullptr) {
    st.rows.clear();
    st.rows.shrink_to_fit();
    st.executed.clear();
    st.executed.shrink_to_fit();
  }
  st.ready = true;
}

void Coordinator::emit_in_order_locked() {
  while (next_emit_ < cells_.size() && cells_[next_emit_].ready) {
    if (sink_ != nullptr) sink_->cell(report_.cells[next_emit_]);
    ++next_emit_;
  }
}

}  // namespace ffis::dist
