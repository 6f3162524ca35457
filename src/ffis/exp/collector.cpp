#include "ffis/exp/collector.hpp"

#include <algorithm>
#include <utility>

namespace ffis::exp {

CellCollector::CellCollector(const ExperimentPlan& plan, ResultSink& sink,
                             bool keep_details)
    : sink_(sink), keep_details_(keep_details), cells_(plan.size()) {
  report_.cells.resize(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    report_.cells[i].index = i;
    report_.cells[i].cell = plan.cells()[i];
  }
}

bool CellCollector::set_facts(std::size_t cell, const CellFacts& facts,
                              std::uint32_t worker_id) {
  CellSlots& c = cells_[cell];
  CellResult& out = report_.cells[cell];
  if (c.final) return false;
  const bool first = !c.has_facts;
  if (first) {
    static_cast<CellFacts&>(out) = facts;
    c.has_facts = true;
  } else if (facts.error.empty()) {
    return false;
  } else {
    out.error = facts.error;
  }
  if (!out.error.empty()) {
    if (worker_id != 0) out.worker_ids.push_back(worker_id);
    finalize(cell);
  }
  return true;
}

bool CellCollector::land(std::size_t cell, std::uint64_t run, core::RunResult result) {
  CellSlots& c = open_slots(cell);
  if (c.final || c.state[run] != Slot::Open) return false;
  if (!keep_details_) result.analysis.reset();
  const CellResult& out = report_.cells[cell];
  if (c.instances.leader.empty() && c.has_facts && out.primitive_count > 0) {
    c.instances = instance_runs(out.cell, out.primitive_count);
  }
  if (!c.instances.leader.empty() && !result.record.features_drawn) {
    const std::uint64_t leader = c.instances.leader[run];
    result.replayed = run != leader;
    core::RunResult copy = result;
    copy.execute_ms = copy.analyze_ms = 0.0;
    copy.fs_stats.arena_slabs_allocated = copy.fs_stats.arena_bytes_recycled = 0;
    for (std::uint64_t r = leader; r < out.cell.runs; r = c.instances.next[r]) {
      if (c.state[r] != Slot::Open || r == run) continue;
      c.runs[r] = copy;
      c.runs[r].replayed = r != leader;
      c.state[r] = Slot::Landed;
      ++c.closed;
    }
  }
  c.runs[run] = std::move(result);
  close(cell, run, Slot::Landed);
  return true;
}

void CellCollector::retire(std::size_t cell, std::uint64_t run, const std::string& error) {
  CellSlots& c = open_slots(cell);
  if (c.final || c.state[run] != Slot::Open) return;
  if (report_.cells[cell].error.empty()) report_.cells[cell].error = error;
  close(cell, run, Slot::Retired);
}

const core::RunResult* CellCollector::landed(std::size_t cell, std::uint64_t run) const {
  const CellSlots& c = cells_[cell];
  return run < c.state.size() && c.state[run] == Slot::Landed ? &c.runs[run] : nullptr;
}

ExperimentReport CellCollector::finish() {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!cells_[i].final) finalize(i);
  }
  for (const CellResult& cell : report_.cells) report_.add_cell(cell);
  cells_.clear();
  return std::move(report_);
}

CellCollector::CellSlots& CellCollector::open_slots(std::size_t cell) {
  CellSlots& c = cells_[cell];
  if (!c.final && c.state.empty()) {
    const std::uint64_t runs = report_.cells[cell].cell.runs;
    c.runs.resize(runs);
    c.state.assign(runs, Slot::Open);
  }
  return c;
}

void CellCollector::close(std::size_t cell, std::uint64_t run, Slot state) {
  CellSlots& c = cells_[cell];
  c.state[run] = state;
  if (++c.closed == c.state.size()) finalize(cell);
}

void CellCollector::finalize(std::size_t cell) {
  CellSlots& c = cells_[cell];
  CellResult& out = report_.cells[cell];
  for (std::size_t r = 0; r < c.runs.size(); ++r) {
    if (c.state[r] != Slot::Landed) continue;
    // A replay is only a replay.  Its slot keeps how its instance ran, so
    // journaling it and landing the row again relabels the leader the same.
    core::RunResult run = c.runs[r];
    if (run.replayed) run.synthesized = run.resumed_late = false;
    out.add_run(run);
    if (run.worker_id != 0) out.worker_ids.push_back(run.worker_id);
    if (keep_details_) out.details.push_back(std::move(run));
  }
  std::sort(out.worker_ids.begin(), out.worker_ids.end());
  out.worker_ids.erase(std::unique(out.worker_ids.begin(), out.worker_ids.end()),
                       out.worker_ids.end());
  c.final = true;
  emit();
}

void CellCollector::emit() {
  while (next_emit_ < cells_.size() && cells_[next_emit_].final) {
    sink_.cell(report_.cells[next_emit_]);
    ++next_emit_;
  }
}

}  // namespace ffis::exp
