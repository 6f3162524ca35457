#include "ffis/exp/plan_config.hpp"

#include <map>
#include <sstream>
#include <stdexcept>

#include "ffis/apps/app_factory.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::exp {

namespace {

using util::trim;

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  const auto parsed = util::parse_u64(value);
  if (!parsed) {
    throw std::invalid_argument(key + " must be a non-negative integer, got '" + value + "'");
  }
  return *parsed;
}

void apply_kv(faults::CampaignConfig& config, const std::string& key,
              const std::string& value) {
  if (key == "application") {
    config.application = value;
  } else if (key == "fault") {
    config.fault = value;
  } else if (key == "runs") {
    config.runs = parse_u64(key, value);
    if (config.runs == 0) throw std::invalid_argument("runs must be positive");
  } else if (key == "seed") {
    config.seed = parse_u64(key, value);
  } else if (key == "stage") {
    const auto parsed = util::parse_int(value);
    if (!parsed) throw std::invalid_argument("stage must be an integer, got '" + value + "'");
    config.stage = *parsed;
  } else {
    config.extra[key] = value;
  }
}

/// Application identity for golden sharing: name plus every extra that can
/// influence construction.  `label` is presentation-only and excluded.
std::string app_identity(const faults::CampaignConfig& config) {
  std::string key = config.application;
  for (const auto& [k, v] : config.extra) {
    if (k == "label") continue;
    key += "\x1f" + k + "=" + v;
  }
  return key;
}

/// Applies one non-blank line of a document whose current block is
/// `*current` (&plan.defaults until the first [cell]).
void apply_line(PlanConfig& plan, faults::CampaignConfig*& current, bool cells,
                const std::string& line) {
  const bool in_defaults = current == &plan.defaults;
  if (line == "[cell]" && cells) {
    plan.cells.push_back(plan.defaults);  // cells inherit every default
    current = &plan.cells.back();
    return;
  }
  if (line.front() == '[') {
    throw std::invalid_argument("unknown section '" + line + "'" +
                                (cells ? " (expected [cell])" : ""));
  }
  const auto eq = line.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("expected key = value, got: " + line);
  }
  const std::string key = trim(line.substr(0, eq));
  const std::string value = trim(line.substr(eq + 1));

  if (in_defaults && key == "label") {
    // A label shared by every cell would make the rows indistinguishable.
    throw std::invalid_argument("'label' belongs in a [cell] block, not in the defaults");
  }
  const bool engine_key = (key == "threads" || key == "csv" || key == "jsonl" ||
                           key == "checkpoint_dir" || key == "checkpoint_budget" ||
                           key == "unit_timeout_ms");
  if (!engine_key) {
    apply_kv(*current, key, value);
  } else if (!in_defaults) {
    throw std::invalid_argument("'" + key + "' belongs in the defaults block, not in a [cell]");
  } else if (key == "threads") {
    plan.threads = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "csv") {
    plan.csv_path = value;
  } else if (key == "jsonl") {
    plan.jsonl_path = value;
  } else if (key == "unit_timeout_ms") {
    plan.unit_timeout_ms = parse_u64(key, value);
  } else if (key == "checkpoint_budget") {
    plan.checkpoint_budget = parse_u64(key, value);
  } else {
    plan.checkpoint_dir = value;
  }
}

/// The one reader of the `key = value` dialect.  `cells` = false reads a
/// single-campaign config: a defaults block with no [cell] blocks.
PlanConfig parse_document(const std::string& text, bool cells) {
  PlanConfig plan;
  faults::CampaignConfig* current = &plan.defaults;
  std::istringstream in(text);
  std::string line;
  for (int line_number = 1; std::getline(in, line); ++line_number) {
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    try {
      apply_line(plan, current, cells, line);
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(cells ? "plan config" : "config") + " line " +
                                  std::to_string(line_number) + ": " + e.what());
    }
  }
  return plan;
}

}  // namespace

PlanConfig parse_plan_config(const std::string& text) {
  PlanConfig plan = parse_document(text, /*cells=*/true);
  if (plan.cells.empty()) {
    throw std::invalid_argument("plan config has no [cell] blocks");
  }
  return plan;
}

faults::CampaignConfig parse_campaign_config(const std::string& text) {
  return parse_document(text, /*cells=*/false).defaults;
}

ExperimentPlan build_plan(const PlanConfig& config) {
  PlanBuilder builder;
  std::map<std::string, std::shared_ptr<const core::Application>> app_cache;

  for (const auto& cell_config : config.cells) {
    const std::string identity = app_identity(cell_config);
    auto it = app_cache.find(identity);
    if (it == app_cache.end()) {
      std::shared_ptr<const core::Application> app = apps::make_application(cell_config);
      builder.own(app);
      it = app_cache.emplace(identity, std::move(app)).first;
    }

    Cell cell;
    cell.app = it->second.get();
    cell.fault = cell_config.fault;
    cell.stage = cell_config.stage;
    cell.runs = cell_config.runs;
    cell.seed = cell_config.seed;
    if (const auto label = cell_config.extra.find("label");
        label != cell_config.extra.end()) {
      cell.label = label->second;
    }
    builder.cell(std::move(cell));
  }
  return builder.build();
}

}  // namespace ffis::exp
