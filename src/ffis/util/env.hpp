#pragma once
// Environment-variable knobs.  `ffis paper` reads FFIS_RUNS, FFIS_SEED and
// FFIS_NYX_GRID through env_u64 (e.g. FFIS_RUNS=1000 reproduces the paper's
// full sample size), and bench_perf_engine reads FFIS_RUNS and FFIS_SEED the
// same way.

#include <cstdint>
#include <optional>
#include <string>

namespace ffis::util {

/// Returns the value of the environment variable, if set and non-empty.
[[nodiscard]] std::optional<std::string> env_string(const std::string& name);

/// Parses the environment variable as an unsigned integer; returns fallback
/// when the variable is unset or empty.  Malformed, negative or overflowing
/// text throws std::invalid_argument naming the variable and the value.
[[nodiscard]] std::uint64_t env_u64(const std::string& name, std::uint64_t fallback);

}  // namespace ffis::util
