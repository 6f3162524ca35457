#pragma once
// Shared helpers for bench_perf_engine: the FFIS_RUNS / FFIS_SEED knobs, a
// seeded plan builder, and the BENCH_*.json writer.

#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/util/env.hpp"

namespace ffis::bench {

inline std::uint64_t runs_per_cell(std::uint64_t fallback) {
  const std::uint64_t runs = util::env_u64("FFIS_RUNS", fallback);
  if (runs == 0) throw std::invalid_argument("FFIS_RUNS must be a positive integer, got 0");
  return runs;
}

/// A PlanBuilder seeded from the environment (FFIS_SEED, default 42).
inline exp::PlanBuilder plan(std::uint64_t runs) {
  exp::PlanBuilder builder;
  builder.runs(runs).seed(util::env_u64("FFIS_SEED", 42));
  return builder;
}

// --- JSON metric files (BENCH_*.json) ---------------------------------------
//
// Perf-tracking benches persist their headline numbers as a flat-ish JSON
// document so the repo's bench trajectory can be diffed across commits.
// The output path comes from `--json=PATH` (or bare `--json` for the bench's
// default name) on the command line, else the FFIS_BENCH_JSON environment
// variable (a path, or "1" for the default name).

/// Resolves the JSON output path, or nullopt when JSON output is off.
inline std::optional<std::string> json_output_path(int argc, char** argv,
                                                   const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--json") return default_path;
    if (arg.rfind("--json=", 0) == 0) {
      const std::string path(arg.substr(7));
      return path.empty() ? default_path : path;
    }
  }
  if (const auto env = util::env_string("FFIS_BENCH_JSON")) {
    return (*env == "1") ? default_path : *env;
  }
  return std::nullopt;
}

/// Minimal JSON object builder: fields render in insertion order; `raw`
/// splices a pre-rendered value (a nested object or array).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return raw(key, out);
  }
  JsonObject& raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Renders a JSON array from pre-rendered element strings.
inline std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) out += ", ";
    out += elements[i];
  }
  out += "]";
  return out;
}

/// Writes the document (with a trailing newline) to `path`.
inline void write_json_file(const std::string& path, const JsonObject& doc) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open JSON output file: " + path);
  out << doc.render() << "\n";
  if (!out) throw std::runtime_error("failed writing JSON output file: " + path);
}

}  // namespace ffis::bench
