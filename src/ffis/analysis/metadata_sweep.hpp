#pragma once
// Byte-by-byte HDF5-metadata fault injection (the Table III experiment).
//
// The paper identifies the metadata write (the penultimate write of the HDF5
// protocol) and injects "starting from the offset value specified by the
// fwrite and till the end of the buffer byte-by-byte".  Because the raw data
// region is untouched by that write, corrupting byte k of the metadata write
// is equivalent to corrupting byte k of the final file's metadata block —
// which is what this sweep does, on a copy-on-write fork of the golden run's
// output tree per case instead of re-running the producing application ~2400
// times.
//
// Per case: fork the golden tree, flip two consecutive bits at a seeded
// position inside the target byte (corrupt_metadata_byte), run the
// application's post-analysis, and classify it by core::classify_outcome
// (Crash when the analysis threw).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ffis/core/application.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/h5/field_map.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::analysis {

struct MetadataSweepConfig {
  std::string target_path;            ///< the HDF5 file within the app's tree
  std::uint64_t metadata_bytes = 0;   ///< sweep range [0, metadata_bytes)
  std::uint64_t seed = 0x5eed;
};

struct ByteCase {
  std::uint64_t offset = 0;
  core::Outcome outcome = core::Outcome::Benign;
  std::string crash_reason;
};

struct MetadataSweepResult {
  std::vector<ByteCase> cases;        ///< one per metadata byte, in order
  core::OutcomeTally tally;

  /// Field names observed per outcome (for Table III's example column),
  /// resolved against a field map.
  [[nodiscard]] std::map<std::string, core::OutcomeTally> tally_by_field(
      const h5::FieldMap& map) const;
  [[nodiscard]] std::map<std::string, core::OutcomeTally> tally_by_class(
      const h5::FieldMap& map) const;
};

/// The sweep's fault at `offset` of `config.target_path` in `fs`: two
/// consecutive bits, at a position within the byte seeded by config.seed and
/// the offset, flipped in place.
void corrupt_metadata_byte(vfs::FileSystem& fs, const MetadataSweepConfig& config,
                           std::uint64_t offset);

/// Runs the sweep on every hardware thread.  `app` must already be
/// deterministic for `app_seed`; the golden run is executed once internally
/// (core::FaultInjector::run_golden).
[[nodiscard]] MetadataSweepResult metadata_sweep(const core::Application& app,
                                                 std::uint64_t app_seed,
                                                 const MetadataSweepConfig& config);

}  // namespace ffis::analysis
