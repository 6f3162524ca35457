#pragma once
// Hdf5Doctor: the paper's detection + correction methodology for SDC-causing
// HDF5 metadata fields (§V-A).
//
// Detection:
//  * structural checks on the floating-point datatype fields, exploiting the
//    format's internal redundancy:
//      - exponent location == mantissa size,
//      - mantissa size + exponent size == bit precision - 1,
//      - mantissa location + mantissa size == exponent location,
//      - mantissa normalization must be the implied-MSB mode;
//  * ARD check: the Address of Raw Data of the first dataset must equal the
//    metadata block size (metadata is immediately followed by data);
//  * average-value check (Nyx): the mean of the decoded input data must be 1
//    by mass conservation — a power-of-two mean implicates Exponent Bias,
//    other deviations implicate the remaining datatype fields.
//
// Correction patches the implicated field bytes in place:
//  * Exponent Bias += log2(observed mean);
//  * location/size fields restored from the redundant constraints;
//  * normalization bits reset to implied-MSB;
//  * ARD reset to the metadata size.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ffis/h5/field_map.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::analysis {

enum class FaultyField : std::uint8_t {
  None,
  ExponentBias,
  ExponentLocation,
  ExponentSize,
  MantissaLocation,
  MantissaSize,
  MantissaNormalization,
  AddressOfRawData,
  Unknown,  ///< mean deviates but no structural rule implicates a field
};

[[nodiscard]] std::string_view faulty_field_name(FaultyField f) noexcept;

struct Diagnosis {
  FaultyField field = FaultyField::None;
  std::string description;
  double observed_mean = 0.0;
  bool mean_checked = false;
  /// Bias delta for ExponentBias corrections (log2 of the observed mean).
  std::optional<std::int64_t> bias_delta;

  [[nodiscard]] bool healthy() const noexcept { return field == FaultyField::None; }
  [[nodiscard]] bool correctable() const noexcept {
    return field != FaultyField::None && field != FaultyField::Unknown;
  }
};

class Hdf5Doctor {
 public:
  /// `layout` is the structural plan of the file (h5::plan_layout of the
  /// golden structure): it locates fields but carries no data values, so it
  /// is available without a fault-free copy of the file.
  /// `dataset` names the dataset whose mean obeys the conservation law.
  Hdf5Doctor(h5::WriteInfo layout, std::string dataset, double expected_mean = 1.0,
             double mean_tolerance = 1e-3);

  /// Runs all checks against the (possibly corrupted) file.
  [[nodiscard]] Diagnosis diagnose(vfs::FileSystem& fs, const std::string& path) const;

  /// Applies the correction for `diagnosis`, patching metadata bytes in
  /// place.  Returns false when the diagnosis is not correctable.
  bool correct(vfs::FileSystem& fs, const std::string& path,
               const Diagnosis& diagnosis) const;

  /// Convenience: diagnose and, when correctable, correct; returns the final
  /// diagnosis after at most `max_rounds` repair rounds (multiple faults).
  Diagnosis diagnose_and_correct(vfs::FileSystem& fs, const std::string& path,
                                 int max_rounds = 3) const;

 private:
  struct FloatFields {
    std::uint64_t bit_precision, exponent_location, exponent_size, mantissa_location,
        mantissa_size, exponent_bias, normalization, ard;
  };
  [[nodiscard]] FloatFields read_fields(vfs::FileSystem& fs, const std::string& path) const;
  /// The dataset's field `suffix`, by its full name in the layout (throws
  /// h5::H5FormatError when the layout has none).
  [[nodiscard]] std::string field_name(const std::string& suffix) const;
  [[nodiscard]] std::uint64_t read_field(vfs::FileSystem& fs, const std::string& path,
                                         const std::string& suffix) const;
  void patch_field(vfs::FileSystem& fs, const std::string& path, const std::string& suffix,
                   std::uint64_t value) const;

  h5::WriteInfo layout_;
  std::string dataset_;
  double expected_mean_;
  double mean_tolerance_;
};

}  // namespace ffis::analysis
