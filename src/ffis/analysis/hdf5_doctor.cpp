#include "ffis/analysis/hdf5_doctor.hpp"

#include <cmath>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/h5/reader.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::analysis {

std::string_view faulty_field_name(FaultyField f) noexcept {
  switch (f) {
    case FaultyField::None: return "none";
    case FaultyField::ExponentBias: return "Exponent Bias";
    case FaultyField::ExponentLocation: return "Exponent Location";
    case FaultyField::ExponentSize: return "Exponent Size";
    case FaultyField::MantissaLocation: return "Mantissa Location";
    case FaultyField::MantissaSize: return "Mantissa Size";
    case FaultyField::MantissaNormalization: return "Mantissa Normalization";
    case FaultyField::AddressOfRawData: return "Address of Raw Data";
    case FaultyField::Unknown: return "unknown";
  }
  return "?";
}

Hdf5Doctor::Hdf5Doctor(h5::WriteInfo layout, std::string dataset, double expected_mean,
                       double mean_tolerance)
    : layout_(std::move(layout)),
      dataset_(std::move(dataset)),
      expected_mean_(expected_mean),
      mean_tolerance_(mean_tolerance) {}

std::string Hdf5Doctor::field_name(const std::string& suffix) const {
  std::string name = "objectHeader[" + dataset_ + "]." + suffix;
  if (layout_.field_map.find_by_name(name) == nullptr) {
    throw h5::H5FormatError("doctor: layout has no field named " + name);
  }
  return name;
}

std::uint64_t Hdf5Doctor::read_field(vfs::FileSystem& fs, const std::string& path,
                                     const std::string& suffix) const {
  return read_field_value(fs, path, layout_.field_map, field_name(suffix));
}

Hdf5Doctor::FloatFields Hdf5Doctor::read_fields(vfs::FileSystem& fs,
                                                const std::string& path) const {
  const auto get = [&](const std::string& suffix) { return read_field(fs, path, suffix); };
  FloatFields f{};
  f.bit_precision = get("dataType.floatProperty.bitPrecision");
  f.exponent_location = get("dataType.floatProperty.exponentLocation");
  f.exponent_size = get("dataType.floatProperty.exponentSize");
  f.mantissa_location = get("dataType.floatProperty.mantissaLocation");
  f.mantissa_size = get("dataType.floatProperty.mantissaSize");
  f.exponent_bias = get("dataType.floatProperty.exponentBias");
  f.normalization = (get("dataType.classBitField0") >> 4) & 0x03;
  f.ard = get("layout.addressOfRawData");
  return f;
}

Diagnosis Hdf5Doctor::diagnose(vfs::FileSystem& fs, const std::string& path) const {
  Diagnosis d;
  const FloatFields f = read_fields(fs, path);

  // --- Structural redundancy checks (work even when decode would fail) ----
  if (f.normalization != static_cast<std::uint64_t>(h5::MantissaNorm::MsbImplied)) {
    d.field = FaultyField::MantissaNormalization;
    d.description = util::fmt("mantissa normalization mode is {} (expected implied-MSB)",
                              f.normalization);
    return d;
  }
  if (f.ard != layout_.data_addresses.front()) {
    d.field = FaultyField::AddressOfRawData;
    d.description = util::fmt("ARD is {} but the metadata block ends at {}", f.ard,
                              layout_.data_addresses.front());
    return d;
  }
  const bool c1 = (f.exponent_location == f.mantissa_size);
  const bool c2 = (f.mantissa_size + f.exponent_size == f.bit_precision - 1);
  const bool c3 = (f.mantissa_location + f.mantissa_size == f.exponent_location);
  if (!c1 || !c2 || !c3) {
    if (c1 && c2 && !c3) {
      d.field = FaultyField::MantissaLocation;
      d.description = "mantissa location violates location+size == exponent location";
    } else if (c1 && !c2 && c3) {
      d.field = FaultyField::ExponentSize;
      d.description = "exponent size violates mantissa size + exponent size == precision-1";
    } else if (!c1 && c2 && !c3) {
      d.field = FaultyField::ExponentLocation;
      d.description = "exponent location violates exponent location == mantissa size";
    } else if (!c1 && !c2) {
      d.field = FaultyField::MantissaSize;
      d.description = "mantissa size violates both redundancy constraints";
    } else {
      d.field = FaultyField::Unknown;
      d.description = "inconsistent float fields with no unique culprit";
    }
    return d;
  }

  // --- Average-value check (mass conservation) ------------------------------
  double mean;
  try {
    const h5::Dataset ds = h5::read_dataset(fs, path, dataset_);
    double sum = 0.0;
    for (const double v : ds.data) sum += v;
    mean = ds.data.empty() ? 0.0 : sum / static_cast<double>(ds.data.size());
  } catch (const h5::H5Exception& e) {
    d.field = FaultyField::Unknown;
    d.description = std::string("file unreadable: ") + e.what();
    return d;
  }
  d.mean_checked = true;
  d.observed_mean = mean;

  if (std::isfinite(mean) && std::fabs(mean - expected_mean_) <= mean_tolerance_) {
    return d;  // healthy
  }

  // A power-of-two mean implicates the Exponent Bias (all values scaled by
  // the same 2^k).
  if (std::isfinite(mean) && mean > 0.0) {
    int exp2 = 0;
    const double frac = std::frexp(mean / expected_mean_, &exp2);
    if (std::fabs(frac - 0.5) <= 0.5 * mean_tolerance_) {
      d.field = FaultyField::ExponentBias;
      d.bias_delta = exp2 - 1;  // mean scaled by 2^(exp2-1)
      d.description = util::fmt("mean is {} = 2^{} x expected; exponent bias off by {}",
                                mean, exp2 - 1, exp2 - 1);
      return d;
    }
  }

  d.field = FaultyField::Unknown;
  d.description = util::fmt("mean is {} (expected {}) with structurally consistent fields",
                            mean, expected_mean_);
  return d;
}

void Hdf5Doctor::patch_field(vfs::FileSystem& fs, const std::string& path,
                             const std::string& suffix, std::uint64_t value) const {
  const std::string name = field_name(suffix);
  try {
    set_field_value(fs, path, layout_.field_map, name, value);
  } catch (const std::out_of_range&) {  // a short pwrite
    throw h5::H5Exception("doctor: failed to patch " + suffix);
  }
}

bool Hdf5Doctor::correct(vfs::FileSystem& fs, const std::string& path,
                         const Diagnosis& diagnosis) const {
  if (!diagnosis.correctable()) return false;
  const FloatFields f = read_fields(fs, path);
  switch (diagnosis.field) {
    case FaultyField::ExponentBias: {
      if (!diagnosis.bias_delta) return false;
      const std::uint64_t corrected =
          f.exponent_bias + static_cast<std::uint64_t>(*diagnosis.bias_delta);
      patch_field(fs, path, "dataType.floatProperty.exponentBias", corrected);
      return true;
    }
    case FaultyField::ExponentLocation:
      patch_field(fs, path, "dataType.floatProperty.exponentLocation", f.mantissa_size);
      return true;
    case FaultyField::ExponentSize:
      patch_field(fs, path, "dataType.floatProperty.exponentSize",
                  f.bit_precision - 1 - f.mantissa_size);
      return true;
    case FaultyField::MantissaLocation:
      patch_field(fs, path, "dataType.floatProperty.mantissaLocation",
                  f.exponent_location - f.mantissa_size);
      return true;
    case FaultyField::MantissaSize:
      patch_field(fs, path, "dataType.floatProperty.mantissaSize", f.exponent_location);
      return true;
    case FaultyField::MantissaNormalization: {
      std::uint64_t bitfield = read_field(fs, path, "dataType.classBitField0");
      bitfield = (bitfield & ~0x30ULL) |
                 (static_cast<std::uint64_t>(h5::MantissaNorm::MsbImplied) << 4);
      patch_field(fs, path, "dataType.classBitField0", bitfield);
      return true;
    }
    case FaultyField::AddressOfRawData:
      patch_field(fs, path, "layout.addressOfRawData", layout_.data_addresses.front());
      return true;
    case FaultyField::None:
    case FaultyField::Unknown:
      return false;
  }
  return false;
}

Diagnosis Hdf5Doctor::diagnose_and_correct(vfs::FileSystem& fs, const std::string& path,
                                           int max_rounds) const {
  Diagnosis d = diagnose(fs, path);
  for (int round = 0; round < max_rounds && d.correctable(); ++round) {
    if (!correct(fs, path, d)) break;
    d = diagnose(fs, path);
  }
  return d;
}

}  // namespace ffis::analysis
