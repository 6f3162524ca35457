#pragma once
// Helpers for the table-driven run-counter tests: they walk the run-counter
// table (FFIS_RUN_COUNTERS), so a counter appended to the table is covered
// by every round-trip test without editing it.

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ffis/exp/result.hpp"
#include "ffis/vfs/run_counters.hpp"

namespace ffis::test_support {

/// Sets every counter of `block` to a distinct value: `base` + its table
/// position, with a quarter-millisecond fraction on the f64 counters (exact
/// in binary and at the sinks' 4-decimal precision).  A dropped or swapped
/// counter then cannot survive a round trip by coincidence.
template <class Block>
void set_distinct_counters(Block& block, std::uint64_t base = 1000) {
  std::uint64_t next = base;
  const auto assign = [&](const char*, auto& value) {
    using T = std::remove_reference_t<decltype(value)>;
    value = static_cast<T>(next++);
    if constexpr (std::is_same_v<T, double>) value += 0.25;
  };
  if constexpr (std::is_same_v<Block, vfs::FsStats>) {
    block.for_each(assign);
  } else {
    block.for_each_counter(assign);
  }
}

/// (name, value) of every counter in table order, for whole-block EXPECT_EQs.
inline std::vector<std::pair<std::string, double>> counter_values(
    const exp::RunCounters& block) {
  std::vector<std::pair<std::string, double>> out;
  block.for_each_counter([&](const char* name, const auto& value) {
    out.emplace_back(name, static_cast<double>(value));
  });
  return out;
}

/// (name, value) of every FsStats counter but the per-thread arena traffic,
/// which depends on how each thread's arena warmed up.
inline std::vector<std::pair<std::string, std::uint64_t>> non_arena_stats(
    const vfs::FsStats& stats) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  stats.for_each([&](const char* name, std::uint64_t v) {
    if (std::string(name).rfind("arena_", 0) != 0) out.emplace_back(name, v);
  });
  return out;
}

}  // namespace ffis::test_support
