#include "ffis/util/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "ffis/util/strfmt.hpp"

namespace ffis::util {

std::optional<std::string> env_string(const std::string& name) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::uint64_t env_u64(const std::string& name, std::uint64_t fallback) {
  const auto raw = env_string(name);
  if (!raw) return fallback;
  const auto parsed = parse_u64(*raw);
  if (!parsed) {
    throw std::invalid_argument(name + " must be a non-negative integer, got '" + *raw + "'");
  }
  return *parsed;
}

}  // namespace ffis::util
