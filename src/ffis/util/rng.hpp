#pragma once
// Deterministic pseudo-random number generation for FFIS.
//
// Every stochastic component in the framework (data generators, Monte Carlo
// samplers, fault-instance selection) draws from an explicitly seeded Rng so
// that campaigns are reproducible bit-for-bit.  The generator is
// xoshiro256** (Blackman & Vigna) seeded through splitmix64, which gives
// high-quality independent streams from small integer seeds — important when
// thousands of injection runs each get stream `base_seed + run_index`.

#include <array>
#include <cstdint>

namespace ffis::util {

/// One step of the splitmix64 generator; also usable as a mixing function.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator so it can
/// be used with <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  /// bound must be > 0.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Standard normal via Marsaglia polar method (cached spare value).
  [[nodiscard]] double gaussian() noexcept;

  /// Normal with mean mu and standard deviation sigma.
  [[nodiscard]] double gaussian(double mu, double sigma) noexcept;

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Derives an independent child stream; child i of a given Rng state is
  /// deterministic.  Used to hand one stream per campaign run.
  [[nodiscard]] Rng split(std::uint64_t stream_index) const noexcept;

  /// Advance and discard n outputs.
  void discard(std::uint64_t n) noexcept;

  /// Equal states produce equal streams; comparing against a fresh Rng(seed)
  /// tells whether anything was drawn since seeding.
  friend bool operator==(const Rng&, const Rng&) = default;

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ffis::util
