#pragma once
// Outcome taxonomy of one fault-injection run (paper §II):
//
//  * Benign   — the comparison artifact is bit-wise identical to the golden
//               run's.
//  * Detected — the outcome differs in a way the user can notice (error
//               raised, no halos found, energy outside the physical window,
//               image statistic outside tolerance).
//  * SDC      — silent data corruption: the outcome differs but looks
//               plausible, so the corruption goes unnoticed.
//  * Crash    — the application (or its post-analysis) terminated before
//               finishing, e.g. the HDF5 layer threw on unjustifiable
//               metadata values or a target file could not be created.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace ffis::core {

enum class Outcome : std::uint8_t { Benign = 0, Detected, Sdc, Crash, kCount };

inline constexpr std::size_t kOutcomeCount = static_cast<std::size_t>(Outcome::kCount);

[[nodiscard]] std::string_view outcome_name(Outcome o) noexcept;
[[nodiscard]] Outcome parse_outcome(std::string_view name);

/// How a run's analysis was computed.  Every path gives the same analysis bit
/// for bit, so the path is not compared, persisted or sent over the wire.
enum class AnalysisPath : std::uint8_t {
  FullRead,            ///< analyze(): the outputs read and analyzed in full
  Spliced,             ///< analyze_dirty(): the golden analysis plus the diff
  SplicedIncremental,  ///< spliced, statistics carried from golden running sums
  SplicedSpanning,     ///< spliced, one component spans all but patched cells
};

/// Tally of outcomes over a campaign.
class OutcomeTally {
 public:
  void add(Outcome o) noexcept { ++counts_[static_cast<std::size_t>(o)]; }
  void add(Outcome o, std::uint64_t n) noexcept {
    counts_[static_cast<std::size_t>(o)] += n;
  }
  void merge(const OutcomeTally& other) noexcept;

  [[nodiscard]] std::uint64_t count(Outcome o) const noexcept {
    return counts_[static_cast<std::size_t>(o)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// Fraction in [0,1]; 0 when the tally is empty.
  [[nodiscard]] double fraction(Outcome o) const noexcept;

  /// "benign=912 (91.2%) detected=80 (8.0%) sdc=8 (0.8%) crash=0 (0.0%)"
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<std::uint64_t, kOutcomeCount> counts_{};
};

}  // namespace ffis::core
