#include "ffis/exp/plan.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "ffis/core/fault_injector.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/faults/fault_signature.hpp"

namespace ffis::exp {

std::uint64_t ExperimentPlan::total_runs() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.runs;
  return total;
}

std::string default_cell_label(const Cell& cell) {
  std::string label = cell.app != nullptr ? cell.app->name() : "?";
  std::transform(label.begin(), label.end(), label.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (cell.stage > 0) label += std::to_string(cell.stage);
  label += "-";
  label += cell.fault;
  return label;
}

InstanceRuns instance_runs(const Cell& cell, std::uint64_t primitive_count) {
  InstanceRuns out{std::vector<std::uint64_t>(cell.runs),
                   std::vector<std::uint64_t>(cell.runs, cell.runs)};
  // Per instance drawn: its leader and its latest run so far.  Keyed by the
  // runs' own instances, so a bogus primitive_count sizes nothing.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> seen;
  for (std::uint64_t r = 0; r < cell.runs; ++r) {
    const std::uint64_t instance =
        core::draw(faults::run_seed(cell.seed, r), primitive_count).instance;
    const auto [it, first] = seen.try_emplace(instance, r, r);
    if (!first) out.next[std::exchange(it->second.second, r)] = r;
    out.leader[r] = it->second.first;
  }
  return out;
}

PlanBuilder& PlanBuilder::runs(std::uint64_t n) {
  runs_ = n;
  return *this;
}

PlanBuilder& PlanBuilder::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

PlanBuilder& PlanBuilder::label_with(Labeler fn) {
  labeler_ = std::move(fn);
  return *this;
}

PlanBuilder& PlanBuilder::apps(std::vector<const core::Application*> apps) {
  for (const auto* a : apps) {
    if (a == nullptr) throw std::invalid_argument("PlanBuilder::apps: null application");
  }
  grid_apps_.insert(grid_apps_.end(), apps.begin(), apps.end());
  return *this;
}

PlanBuilder& PlanBuilder::app(const core::Application& a) {
  grid_apps_.push_back(&a);
  return *this;
}

PlanBuilder& PlanBuilder::app(std::shared_ptr<const core::Application> a) {
  if (!a) throw std::invalid_argument("PlanBuilder::app: null application");
  grid_apps_.push_back(a.get());
  owned_apps_.push_back(std::move(a));
  return *this;
}

PlanBuilder& PlanBuilder::own(std::shared_ptr<const core::Application> a) {
  if (!a) throw std::invalid_argument("PlanBuilder::own: null application");
  owned_apps_.push_back(std::move(a));
  return *this;
}

PlanBuilder& PlanBuilder::faults(std::vector<std::string> faults) {
  grid_faults_.insert(grid_faults_.end(), std::make_move_iterator(faults.begin()),
                      std::make_move_iterator(faults.end()));
  return *this;
}

PlanBuilder& PlanBuilder::fault(std::string f) {
  grid_faults_.push_back(std::move(f));
  return *this;
}

PlanBuilder& PlanBuilder::stages(int first, int last) {
  if (first > last) throw std::invalid_argument("PlanBuilder::stages: first > last");
  grid_stages_.clear();
  for (int s = first; s <= last; ++s) grid_stages_.push_back(s);
  return *this;
}

PlanBuilder& PlanBuilder::stage(int s) {
  grid_stages_ = {s};
  return *this;
}

PlanBuilder& PlanBuilder::product() {
  if (grid_apps_.empty()) throw std::invalid_argument("PlanBuilder::product: no applications staged");
  if (grid_faults_.empty()) throw std::invalid_argument("PlanBuilder::product: no faults staged");
  for (const auto& fault_text : grid_faults_) {
    for (const auto* a : grid_apps_) {
      for (const int s : grid_stages_) {
        cells_.push_back(Cell{.app = a, .fault = fault_text, .stage = s, .runs = runs_,
                              .seed = seed_, .label = {}});
      }
    }
  }
  grid_apps_.clear();
  grid_faults_.clear();
  grid_stages_ = {-1};
  return *this;
}

PlanBuilder& PlanBuilder::cell(const core::Application& a, std::string fault, int stage,
                               std::string label) {
  cells_.push_back(Cell{.app = &a, .fault = std::move(fault), .stage = stage,
                        .runs = runs_, .seed = seed_, .label = std::move(label)});
  return *this;
}

PlanBuilder& PlanBuilder::cell(Cell c) {
  if (c.app == nullptr) throw std::invalid_argument("PlanBuilder::cell: null application");
  cells_.push_back(std::move(c));
  return *this;
}

void PlanBuilder::flush_grid_if_pending() {
  if (!grid_apps_.empty() && !grid_faults_.empty()) {
    product();
  } else if (!grid_apps_.empty() || !grid_faults_.empty()) {
    // A half-staged grid would silently vanish; that is always a caller bug.
    throw std::invalid_argument(
        grid_apps_.empty()
            ? "PlanBuilder::build: faults staged but no applications — grid incomplete"
            : "PlanBuilder::build: applications staged but no faults — grid incomplete");
  }
}

ExperimentPlan PlanBuilder::build() {
  flush_grid_if_pending();
  if (cells_.empty()) {
    throw std::invalid_argument("PlanBuilder::build: empty plan (no cells)");
  }

  // Duplicate detection keys on the *canonical* signature so "BF" and
  // "BIT_FLIP@pwrite{width=2}" collide; parsing here also front-loads fault
  // validation before any execution starts.
  std::map<std::tuple<const core::Application*, std::string, int, std::uint64_t>,
           std::size_t> seen;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& c = cells_[i];
    if (c.runs == 0) {
      throw std::invalid_argument("PlanBuilder::build: cell " + std::to_string(i) +
                                  " (" + default_cell_label(c) + ") has runs == 0");
    }
    std::string canonical;
    try {
      canonical = faults::parse_fault_signature(c.fault).to_string();
    } catch (const std::exception& e) {
      throw std::invalid_argument("PlanBuilder::build: cell " + std::to_string(i) +
                                  ": bad fault signature '" + c.fault + "': " + e.what());
    }
    const auto key = std::make_tuple(c.app, canonical, c.stage, c.seed);
    if (const auto [it, inserted] = seen.emplace(key, i); !inserted) {
      throw std::invalid_argument(
          "PlanBuilder::build: duplicate cell " + std::to_string(i) + " (" +
          default_cell_label(c) + ") repeats cell " + std::to_string(it->second));
    }
    if (c.label.empty()) c.label = labeler_ ? labeler_(c) : default_cell_label(c);
  }

  ExperimentPlan plan;
  plan.cells_ = std::move(cells_);
  plan.owned_apps_ = std::move(owned_apps_);
  cells_.clear();
  owned_apps_.clear();
  return plan;
}

}  // namespace ffis::exp
