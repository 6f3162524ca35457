#pragma once
// The mini-HDF5 on-disk layout, declared once (internal to ffis/h5).  Each
// structure is a struct of its field values whose `fields(f)` lists the
// fields in file order, one call on the codec `f` per field:
//
//   f(v, name, cls)               unsigned field as wide as v's type
//   f.signature(name, sig, what)  magic bytes (H5SignatureError)
//   f.version(name, want, what)   one byte that must be `want` (H5VersionError)
//   f.bytes(name, cls, n)         n zero bytes the reader skips
//   f.spare(name, cls, n)         n zero bytes the reader never looks at
//   f.text(name, cls, s, n)       s NUL-padded to n bytes (written only)
//   check(f, ok, parts...)        the reader throws H5FormatError(parts...)
//                                 (or check<E>: E) unless `ok`, right there
//
// Packer writes a declaration (bytes plus a FieldMap entry per field),
// Measure adds up its widths and the reader's cursor parses it.  Members
// marked "read side" are context the reader sets for a check.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/h5/field_map.hpp"
#include "ffis/h5/format.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5::layout {

using enum FieldClass;

inline constexpr std::uint64_t kUndefinedAddress = ~0ULL;

/// A field's name under its scope: `base`, `base[index]` or `base[key]`.
struct Name {
  static constexpr std::size_t kNoIndex = ~std::size_t{0};
  Name(const char* b) : base(b) {}  // NOLINT(google-explicit-constructor)
  Name(const char* b, std::size_t i) : base(b), index(i) {}
  Name(const char* b, std::string_view k) : base(b), key(k) {}
  const char* base;
  std::size_t index = kNoIndex;
  std::string_view key{};
};

inline std::string text_of(const char* s) { return s; }
inline std::string text_of(std::uint64_t v) { return std::to_string(v); }

/// A check on the fields read so far: the reader throws E(parts...) unless
/// `ok`, building the message only then; the other codecs skip it.
template <class E = H5FormatError, class F, class... Parts>
void check(const F&, bool ok, const Parts&... parts) {
  if constexpr (F::kReads) {
    if (!ok) throw E((text_of(parts) + ...));
  }
}

template <class F>
void check_version(const F& f, std::uint8_t got, std::uint8_t want, const char* what) {
  check<H5VersionError>(f, got == want, "unsupported ", what, " version ", got, " (expected ",
                        want, ")");
}

template <class C, std::size_t N>
constexpr std::string_view signature_of(const C (&sig)[N]) noexcept {
  return {reinterpret_cast<const char*>(sig), N};
}

/// The writing codec: appends each field to `out` and its FieldMap entry,
/// named under the current scope, to `map`.  Measure only adds up widths.
template <bool kWrite>
class Packer {
 public:
  static constexpr bool kReads = false;

  template <class... Parts>
  void scope(const Parts&... parts) {
    if constexpr (kWrite) prefix_ = (std::string() + ... + parts);
  }
  template <class T>
  void operator()(T& value, Name name, FieldClass cls) {
    if (add(name, cls, sizeof(T))) util::put_le(out, value, sizeof(T));
  }
  void signature(Name name, std::string_view sig, const char*) {
    text(name, Signature, sig, sig.size());
  }
  void version(Name name, std::uint8_t value, const char*) { (*this)(value, name, Version); }
  void bytes(Name name, FieldClass cls, std::uint64_t n) { text(name, cls, {}, n); }
  void spare(Name name, FieldClass cls, std::uint64_t n) { text(name, cls, {}, n); }
  void text(Name name, FieldClass cls, std::string_view s, std::uint64_t n) {
    if (!add(name, cls, n)) return;
    util::put_bytes(out, std::as_bytes(std::span(s)));
    out.insert(out.end(), n - s.size(), std::byte{0});
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  util::Bytes out;
  FieldMap map;

 private:
  /// Counts `length` more bytes; when writing, maps them and returns true.
  bool add(Name name, FieldClass cls, std::uint64_t length) {
    size_ += length;
    if constexpr (kWrite) {
      std::string full = prefix_.empty() ? name.base : prefix_ + '.' + name.base;
      if (name.index != Name::kNoIndex) full += '[' + std::to_string(name.index) + ']';
      if (!name.key.empty()) ((full += '[') += name.key) += ']';
      map.add(size_ - length, length, std::move(full), cls);
    }
    return kWrite;
  }

  std::uint64_t size_ = 0;
  std::string prefix_;
};
using Measure = Packer<false>;

/// Bytes `s.fields` spans.
template <class S>
std::uint64_t measure(S&& s) {
  Measure m;
  s.fields(m);
  return m.size();
}

struct Superblock {
  std::uint8_t size_of_offsets = 8, size_of_lengths = 8;
  std::uint16_t leaf_k = 4, internal_k = 16;
  std::uint64_t base_address = 0, free_space_address = kUndefinedAddress;
  std::uint64_t end_of_file = 0, driver_info_address = kUndefinedAddress;
  std::uint32_t root_cache_type = 1;
  std::uint64_t btree_address = 0, heap_address = 0;
  std::uint64_t image_size = 0;  ///< read side: what endOfFileAddress must equal

  template <class F>
  void fields(F& f) {
    f.signature("signature", signature_of(kSuperblockSignature), "superblock");
    f.version("versionSuperblock", kSuperblockVersion, "superblock");
    f.version("versionFreeSpace", kFreeSpaceVersion, "free space storage");
    f.version("versionRootGroup", kRootGroupVersion, "root group symbol table");
    f.bytes("reserved0", Reserved, 1);
    f.version("versionSharedHeader", kSharedHeaderVersion, "shared header message format");
    f(size_of_offsets, "sizeOfOffsets", StructSize);
    f(size_of_lengths, "sizeOfLengths", StructSize);
    check(f, size_of_offsets == 8 && size_of_lengths == 8, "unsupported size of offsets/lengths");
    f.bytes("reserved1", Reserved, 1);
    f(leaf_k, "groupLeafNodeK", StructSize);
    f(internal_k, "groupInternalNodeK", StructSize);
    check(f, leaf_k != 0 && internal_k != 0, "group B-tree K parameters must be non-zero");
    f.bytes("fileConsistencyFlags", Reserved, 4);
    f(base_address, "baseAddress", Address);
    check(f, base_address == 0, "non-zero base address not supported: ", base_address);
    f(free_space_address, "freeSpaceAddress", Address);
    f(end_of_file, "endOfFileAddress", Address);
    check<H5BoundsError>(f, end_of_file == image_size, "end-of-file address ", end_of_file,
                         " does not match file size ", image_size, " (truncated file?)");
    f(driver_info_address, "driverInfoAddress", Address);
    // Root group symbol-table entry: cached B-tree + heap addresses.
    f.bytes("rootGroup.linkNameOffset", Reserved, 8);
    f(root_cache_type, "rootGroup.cacheType", StructSize);
    check(f, root_cache_type == 1, "root group symbol table entry cache type must be 1");
    f.bytes("rootGroup.reserved", Reserved, 4);
    f(btree_address, "rootGroup.btreeAddress", Address);
    f(heap_address, "rootGroup.heapAddress", Address);
    f.spare("rootGroup.scratchPad", Unused, 8);
  }
};

/// Local heap header; the NUL-terminated, 8-aligned link names follow it.
struct HeapHeader {
  std::uint64_t data_size = 0, free_list_head = kUndefinedAddress, data_address = 0;
  std::uint64_t image_size = 0;  ///< read side: the data segment must fit inside

  template <class F>
  void fields(F& f) {
    f.signature("signature", signature_of(kHeapSignature), "local heap");
    f.version("version", kHeapVersion, "local heap");
    f.bytes("reserved", Reserved, 3);
    f(data_size, "dataSegmentSize", StructSize);
    f(free_list_head, "freeListHeadOffset", Unused);
    f(data_address, "dataSegmentAddress", Address);
    check<H5BoundsError>(f, data_address <= image_size && data_size <= image_size - data_address,
                         "heap data segment beyond end of file");
  }
};

/// Root group B-tree node header (group node, leaf level).
struct BtreeNode {
  std::uint8_t node_type = 0, node_level = 0;
  std::uint16_t entries_used = 0;
  std::uint64_t left_sibling = kUndefinedAddress, right_sibling = kUndefinedAddress;
  std::uint16_t internal_k = 0;  ///< read side: the superblock's groupInternalNodeK

  template <class F>
  void fields(F& f) {
    f.signature("signature", signature_of(kTreeSignature), "B-tree node");
    f(node_type, "nodeType", StructSize);
    check(f, node_type == 0, "B-tree node type must be 0 (group node), got ", node_type);
    f(node_level, "nodeLevel", StructSize);
    check(f, node_level == 0, "multi-level group B-trees not supported (level ", node_level, ")");
    f(entries_used, "entriesUsed", StructSize);
    check(f, entries_used != 0 && entries_used <= 2 * internal_k * 16,
          "implausible B-tree entries used: ", entries_used);
    f(left_sibling, "leftSibling", Unused);
    f(right_sibling, "rightSibling", Unused);
  }
};

/// Entry `index` of the node: a key and the symbol-table node after it.
struct BtreeEntry {
  std::size_t index = 0;
  std::uint64_t key = 0, child = 0;

  template <class F>
  void fields(F& f) {
    f(key, Name("key", index), Unused);
    f(child, Name("child", index), Address);
  }
};

struct SymbolTableNode {
  std::uint16_t symbols = 0;

  template <class F>
  void fields(F& f) {
    f.signature("signature", signature_of(kSnodSignature), "symbol table node");
    f.version("version", kSnodVersion, "symbol table node");
    f.bytes("reserved", Reserved, 1);
    f(symbols, "numberOfSymbols", StructSize);
    check(f, symbols != 0 && symbols <= 1024, "implausible symbol count: ", symbols);
  }
};

struct SymbolTableEntry {
  std::uint64_t link_name_offset = 0, object_header_address = 0;

  template <class F>
  void fields(F& f) {
    f(link_name_offset, "linkNameOffset", Address);
    f(object_header_address, "objectHeaderAddress", Address);
    f.bytes("cacheType", Reserved, 4);
    f.bytes("scratch", Unused, 20);
  }
};

struct ObjectHeader {
  std::uint16_t messages = 0;
  std::uint32_t reference_count = 1;
  std::uint32_t header_size = 0;  ///< bytes of the messages that follow

  template <class F>
  void fields(F& f) {
    f.version("version", kObjectHeaderVersion, "object header");
    f.bytes("reserved", Reserved, 1);
    f(messages, "numberOfMessages", StructSize);
    check(f, messages != 0 && messages <= 64, "implausible object header message count: ",
          messages);
    f(reference_count, "objectReferenceCount", Reserved);
    f(header_size, "headerSize", Reserved);
  }
};

struct MessageHeader {
  std::uint16_t type = 0;
  std::uint16_t size = 0;  ///< bytes of the body that follows

  template <class F>
  void fields(F& f) {
    f(type, "messageType", StructSize);
    f(size, "messageSize", StructSize);
    f.bytes("messageFlags", Reserved, 1);
    f.bytes("messageReserved", Reserved, 3);
  }
};

struct DataspaceMessage {
  static constexpr MessageType kType = MessageType::Dataspace;
  static constexpr const char* kName = "dataspace";
  std::uint8_t rank = 0;
  std::vector<std::uint64_t> dims;

  template <class F>
  void fields(F& f) {
    f.version("version", kDataspaceMessageVersion, "dataspace message");
    f(rank, "rank", DataspaceField);
    check(f, rank != 0 && rank <= 8, "dataspace rank not supported: ", rank);
    f.bytes("flags", Reserved, 1);  // no max dims
    f.bytes("reserved", Reserved, 5);
    dims.resize(rank);
    for (std::size_t d = 0; d < rank; ++d) f(dims[d], Name("dimension", d), DataspaceField);
  }
};

/// Floating-point class.  Class bit field byte 0: bit 0 byte order, bits 1-3
/// padding type, bits 4-5 mantissa normalization, bits 6-7 reserved.  The
/// property fields are read permissively: the float codec validates them.
struct DatatypeMessage {
  static constexpr MessageType kType = MessageType::Datatype;
  static constexpr const char* kName = "dataType";
  std::uint8_t class_and_version = (kDatatypeMessageVersion << 4) | kClassFloatingPoint;
  std::uint8_t bitfield0 = 0;
  FloatFormat format{};  ///< its byte order and normalization live in bitfield0

  explicit DatatypeMessage(const FloatFormat& f = {})
      : bitfield0(static_cast<std::uint8_t>(f.big_endian | unsigned(f.normalization) << 4)),
        format(f) {}

  [[nodiscard]] FloatFormat decoded() const {
    FloatFormat f = format;
    f.big_endian = (bitfield0 & 0x01) != 0;
    f.normalization = static_cast<MantissaNorm>((bitfield0 >> 4) & 0x03);
    return f;
  }

  template <class F>
  void fields(F& f) {
    f(class_and_version, "classAndVersion", Version);
    check_version(f, class_and_version >> 4, kDatatypeMessageVersion, "datatype message");
    check(f, (class_and_version & 0x0f) == kClassFloatingPoint, "unsupported datatype class: ",
          class_and_version & 0x0f);
    f(bitfield0, "classBitField0", DatatypeField);
    f(format.sign_location, "signLocation", DatatypeField);
    f.bytes("classBitField2", Reserved, 1);
    f(format.size_bytes, "size", StructSize);
    // Floating-point property block (Figure 1, bottom).
    f(format.bit_offset, "floatProperty.bitOffset", DatatypeField);
    f(format.bit_precision, "floatProperty.bitPrecision", DatatypeField);
    f(format.exponent_location, "floatProperty.exponentLocation", DatatypeField);
    f(format.exponent_size, "floatProperty.exponentSize", DatatypeField);
    f(format.mantissa_location, "floatProperty.mantissaLocation", DatatypeField);
    f(format.mantissa_size, "floatProperty.mantissaSize", DatatypeField);
    f(format.exponent_bias, "floatProperty.exponentBias", DatatypeField);
  }
};

/// The fill value travels as IEEE binary64 bits whatever the datatype.
struct FillValueMessage {
  static constexpr MessageType kType = MessageType::FillValue;
  static constexpr const char* kName = "fillValue";
  std::uint8_t space_allocation_time = 1, fill_write_time = 0, defined = 1;
  std::uint32_t size = sizeof(std::uint64_t);
  std::uint64_t value_bits = 0;

  template <class F>
  void fields(F& f) {
    f.version("version", kFillValueMessageVersion, "fill value message");
    f(space_allocation_time, "spaceAllocationTime", FillValue);
    f(fill_write_time, "fillWriteTime", FillValue);
    f(defined, "fillDefined", FillValue);
    f(size, "size", FillValue);
    check(f, defined == 0 || size == sizeof value_bits, "unsupported fill value size: ", size);
    if (defined != 0) {
      f(value_bits, "value", FillValue);
    } else {
      f.bytes("value", FillValue, size);
    }
  }
};

/// Contiguous storage: the Address of Raw Data (ARD) and the bytes allocated.
struct LayoutMessage {
  static constexpr MessageType kType = MessageType::DataLayout;
  static constexpr const char* kName = "layout";
  std::uint8_t layout_class = 1;  // contiguous
  std::uint64_t address = 0, size = 0;

  template <class F>
  void fields(F& f) {
    f.version("version", kLayoutMessageVersion, "data layout message");
    f(layout_class, "class", StructSize);
    check(f, layout_class == 1, "unsupported layout class: ", layout_class);
    f(address, "addressOfRawData", LayoutField);
    f(size, "contiguousStorageSize", LayoutField);
  }
};

}  // namespace ffis::h5::layout
