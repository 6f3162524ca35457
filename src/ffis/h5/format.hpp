#pragma once
// On-disk structures of the mini-HDF5 format.
//
// This is a from-scratch implementation of the subset of the HDF5 File
// Format Specification v3.0 that the paper's metadata study exercises
// (Figure 1): a superblock pointing at a root group, whose B-tree ("TREE")
// and symbol-table node ("SNOD") reference dataset object headers; each
// object header carries dataspace, datatype, fill-value and data-layout
// messages; the datatype message's floating-point property block holds the
// fields Table III/IV characterize (bit offset, bit precision, exponent
// location/size/bias, mantissa location/size, mantissa normalization, sign
// location); the contiguous data-layout message holds the Address of Raw
// Data (ARD) and Size.
//
// Layout convention: all metadata packs into one contiguous block at file
// offset 0, followed by raw dataset data — so the first dataset's ARD equals
// the metadata size, the invariant the paper's ARD auto-correction exploits.
// Each structure's fields, widths and reader checks are declared once, in
// layout.hpp; this header holds the public types and constants.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ffis::h5 {

// --- Signatures and versions (corrupting these must crash the reader) -----

inline constexpr std::uint8_t kSuperblockSignature[8] = {0x89, 'H', 'D', 'F',
                                                         '\r', '\n', 0x1a, '\n'};
inline constexpr char kTreeSignature[4] = {'T', 'R', 'E', 'E'};
inline constexpr char kSnodSignature[4] = {'S', 'N', 'O', 'D'};
inline constexpr char kHeapSignature[4] = {'H', 'E', 'A', 'P'};

inline constexpr std::uint8_t kSuperblockVersion = 0;
inline constexpr std::uint8_t kFreeSpaceVersion = 0;
inline constexpr std::uint8_t kRootGroupVersion = 0;
inline constexpr std::uint8_t kSharedHeaderVersion = 0;
inline constexpr std::uint8_t kObjectHeaderVersion = 1;
inline constexpr std::uint8_t kDataspaceMessageVersion = 1;
inline constexpr std::uint8_t kDatatypeMessageVersion = 1;
inline constexpr std::uint8_t kFillValueMessageVersion = 2;
inline constexpr std::uint8_t kLayoutMessageVersion = 3;
inline constexpr std::uint8_t kSnodVersion = 1;
inline constexpr std::uint8_t kHeapVersion = 0;

/// Object-header message type ids (HDF5 spec numbering).
enum class MessageType : std::uint16_t {
  Nil = 0x0000,
  Dataspace = 0x0001,
  Datatype = 0x0003,
  FillValue = 0x0005,
  DataLayout = 0x0008,
};

/// Datatype classes (we implement FloatingPoint only).
inline constexpr std::uint8_t kClassFloatingPoint = 1;

/// Mantissa-normalization modes (bits 4-5 of the datatype class bit field).
enum class MantissaNorm : std::uint8_t {
  None = 0,        ///< no normalization
  MsbSet = 1,      ///< most-significant mantissa bit always set (stored)
  MsbImplied = 2,  ///< MSB set but not stored (IEEE)
  // value 3 is reserved by the spec; the reader rejects it.
};

/// Floating-point datatype description — the HDF5 "floating-point property"
/// block plus the class bit-field pieces that affect decoding.  Defaults
/// describe IEEE binary64, the on-disk type of every dataset our apps write.
struct FloatFormat {
  std::uint32_t size_bytes = 8;       ///< datatype size (bytes)
  std::uint16_t bit_offset = 0;       ///< first significant bit
  std::uint16_t bit_precision = 64;   ///< significant bits
  std::uint8_t exponent_location = 52;
  std::uint8_t exponent_size = 11;
  std::uint8_t mantissa_location = 0;
  std::uint8_t mantissa_size = 52;
  std::uint32_t exponent_bias = 1023;
  std::uint8_t sign_location = 63;
  MantissaNorm normalization = MantissaNorm::MsbImplied;
  bool big_endian = false;

  [[nodiscard]] bool is_ieee_binary64() const noexcept {
    return size_bytes == 8 && bit_offset == 0 && bit_precision == 64 &&
           exponent_location == 52 && exponent_size == 11 && mantissa_location == 0 &&
           mantissa_size == 52 && exponent_bias == 1023 && sign_location == 63 &&
           normalization == MantissaNorm::MsbImplied && !big_endian;
  }
};

/// Contiguous data-layout description.
struct Layout {
  std::uint64_t address = 0;  ///< Address of Raw Data (ARD)
  std::uint64_t size = 0;     ///< bytes allocated for raw data
};

/// A dataset: name, shape, element type and row-major values.
struct Dataset {
  std::string name;
  std::vector<std::uint64_t> dims;
  FloatFormat format{};
  std::vector<double> data;
  double fill_value = 0.0;

  [[nodiscard]] std::uint64_t element_count() const noexcept {
    std::uint64_t n = 1;
    for (const auto d : dims) n *= d;
    return dims.empty() ? 0 : n;
  }
};

/// An HDF5 file image: a root group holding datasets.
struct H5File {
  std::vector<Dataset> datasets;

  [[nodiscard]] const Dataset& dataset(const std::string& name) const;
  [[nodiscard]] bool has_dataset(const std::string& name) const noexcept;
};

// --- Error hierarchy (crash modelling) -------------------------------------
// The real HDF5 library aborts reads whose metadata values it cannot
// justify; the campaign machinery maps these exceptions to Crash outcomes.

class H5Exception : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A structure signature (superblock / TREE / SNOD / HEAP) did not match.
class H5SignatureError : public H5Exception {
 public:
  using H5Exception::H5Exception;
};

/// A version number is not one this library understands.
class H5VersionError : public H5Exception {
 public:
  using H5Exception::H5Exception;
};

/// An address or size field points outside the file / allocation.
class H5BoundsError : public H5Exception {
 public:
  using H5Exception::H5Exception;
};

/// A named object does not exist.
class H5NotFoundError : public H5Exception {
 public:
  using H5Exception::H5Exception;
};

/// Any other unjustifiable field value (reserved enum, impossible rank...).
class H5FormatError : public H5Exception {
 public:
  using H5Exception::H5Exception;
};

}  // namespace ffis::h5
