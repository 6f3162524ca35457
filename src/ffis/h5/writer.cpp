#include "ffis/h5/writer.hpp"

#include <algorithm>
#include <cstring>

#include "ffis/h5/float_codec.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5 {

namespace {

constexpr std::uint64_t kUndefinedAddress = ~0ULL;

/// Accumulates the metadata block while recording the field map.
class MetaPacker {
 public:
  void u8(const std::string& name, FieldClass cls, std::uint8_t v) {
    map_.add(buf_.size(), 1, name, cls);
    util::put_le(buf_, v, 1);
  }
  void u16(const std::string& name, FieldClass cls, std::uint16_t v) {
    map_.add(buf_.size(), 2, name, cls);
    util::put_le(buf_, v, 2);
  }
  void u32(const std::string& name, FieldClass cls, std::uint32_t v) {
    map_.add(buf_.size(), 4, name, cls);
    util::put_le(buf_, v, 4);
  }
  void u64(const std::string& name, FieldClass cls, std::uint64_t v) {
    map_.add(buf_.size(), 8, name, cls);
    util::put_le(buf_, v, 8);
  }
  void signature(const std::string& name, const char* sig, std::size_t len) {
    map_.add(buf_.size(), len, name, FieldClass::Signature);
    for (std::size_t i = 0; i < len; ++i) buf_.push_back(static_cast<std::byte>(sig[i]));
  }
  void raw(const std::string& name, FieldClass cls, util::ByteSpan data) {
    map_.add(buf_.size(), data.size(), name, cls);
    util::put_bytes(buf_, data);
  }
  void fill(const std::string& name, FieldClass cls, std::size_t count, std::uint8_t value) {
    if (count == 0) return;
    map_.add(buf_.size(), count, name, cls);
    buf_.insert(buf_.end(), count, static_cast<std::byte>(value));
  }
  void align(const std::string& name, std::size_t boundary) {
    const std::size_t rem = buf_.size() % boundary;
    if (rem != 0) fill(name, FieldClass::Reserved, boundary - rem, 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] util::Bytes take_buffer() { return std::move(buf_); }
  [[nodiscard]] FieldMap take_map() { return std::move(map_); }

 private:
  util::Bytes buf_;
  FieldMap map_;
};

struct PackResult {
  util::Bytes metadata;
  FieldMap map;
  std::vector<std::uint64_t> data_addresses;
  std::uint64_t file_size = 0;
};

/// Packs the complete metadata block.  All intra-block offsets are computed
/// analytically first (every structure is fixed-width given the dataset
/// names and ranks), so a single pass suffices.
PackResult pack(const H5File& file, const WriteOptions& opt) {
  if (file.datasets.empty()) throw H5FormatError("cannot write an HDF5 file with no datasets");
  for (const auto& ds : file.datasets) {
    if (ds.dims.empty() || ds.dims.size() > 8) {
      throw H5FormatError("dataset rank must be 1..8: " + ds.name);
    }
    if (ds.name.empty()) throw H5FormatError("dataset must have a name");
  }

  MetaPacker p;
  const std::size_t n_datasets = file.datasets.size();
  if (n_datasets > opt.snod_capacity) {
    throw H5FormatError("too many datasets for symbol-table capacity");
  }

  // --- Pre-compute intra-block offsets (fixed-size structures) -----------
  constexpr std::uint64_t kSuperblockSize = 96;
  const std::uint64_t heap_offset = kSuperblockSize;

  // Heap: 32-byte header + 8-aligned NUL-terminated names.
  std::vector<std::uint64_t> name_offsets;  // relative to heap data segment
  std::uint64_t heap_data_size = 0;
  for (const auto& ds : file.datasets) {
    name_offsets.push_back(heap_data_size);
    heap_data_size += (ds.name.size() + 1 + 7) / 8 * 8;
  }
  const std::uint64_t heap_size = 32 + heap_data_size;

  const std::uint64_t btree_offset = heap_offset + heap_size;
  const std::uint64_t btree_size = 24 + 8 * (opt.btree_capacity + 1) + 8 * opt.btree_capacity;

  const std::uint64_t snod_offset = btree_offset + btree_size;
  const std::uint64_t snod_size = 8 + 40 * opt.snod_capacity;

  // Object headers, one per dataset.
  const auto object_header_size = [](const Dataset& ds) -> std::uint64_t {
    const std::uint64_t header = 12;
    const std::uint64_t msg_hdr = 8;          // type + size + flags + reserved
    const std::uint64_t dataspace_body = 8 + 8 * ds.dims.size();
    const std::uint64_t datatype_body = 8 + 12;  // shared fields + float property
    const std::uint64_t fillvalue_body = 16;
    const std::uint64_t layout_body = 1 + 1 + 8 + 8;
    return header + 4 * msg_hdr + dataspace_body + datatype_body + fillvalue_body +
           layout_body;
  };
  std::vector<std::uint64_t> oh_offsets;
  std::uint64_t cursor = snod_offset + snod_size;
  for (const auto& ds : file.datasets) {
    oh_offsets.push_back(cursor);
    cursor += object_header_size(ds);
  }
  cursor += opt.reserved_tail_bytes;
  const std::uint64_t metadata_size = (cursor + 7) / 8 * 8;

  // Raw data directly follows the metadata block.
  std::vector<std::uint64_t> data_addresses;
  std::uint64_t data_cursor = metadata_size;
  for (const auto& ds : file.datasets) {
    data_addresses.push_back(data_cursor);
    data_cursor += ds.element_count() * ds.format.size_bytes;
  }
  const std::uint64_t file_size = data_cursor;

  // --- Superblock ---------------------------------------------------------
  p.signature("superblock.signature", reinterpret_cast<const char*>(kSuperblockSignature), 8);
  p.u8("superblock.versionSuperblock", FieldClass::Version, kSuperblockVersion);
  p.u8("superblock.versionFreeSpace", FieldClass::Version, kFreeSpaceVersion);
  p.u8("superblock.versionRootGroup", FieldClass::Version, kRootGroupVersion);
  p.u8("superblock.reserved0", FieldClass::Reserved, 0);
  p.u8("superblock.versionSharedHeader", FieldClass::Version, kSharedHeaderVersion);
  p.u8("superblock.sizeOfOffsets", FieldClass::StructSize, 8);
  p.u8("superblock.sizeOfLengths", FieldClass::StructSize, 8);
  p.u8("superblock.reserved1", FieldClass::Reserved, 0);
  p.u16("superblock.groupLeafNodeK", FieldClass::StructSize, 4);
  p.u16("superblock.groupInternalNodeK", FieldClass::StructSize, 16);
  p.u32("superblock.fileConsistencyFlags", FieldClass::Reserved, 0);
  p.u64("superblock.baseAddress", FieldClass::Address, 0);
  p.u64("superblock.freeSpaceAddress", FieldClass::Address, kUndefinedAddress);
  p.u64("superblock.endOfFileAddress", FieldClass::Address, file_size);
  p.u64("superblock.driverInfoAddress", FieldClass::Address, kUndefinedAddress);
  // Root group symbol-table entry: cached B-tree + heap addresses.
  p.u64("superblock.rootGroup.linkNameOffset", FieldClass::Reserved, 0);
  p.u32("superblock.rootGroup.cacheType", FieldClass::StructSize, 1);
  p.u32("superblock.rootGroup.reserved", FieldClass::Reserved, 0);
  p.u64("superblock.rootGroup.btreeAddress", FieldClass::Address, btree_offset);
  p.u64("superblock.rootGroup.heapAddress", FieldClass::Address, heap_offset);
  p.fill("superblock.rootGroup.scratchPad", FieldClass::Unused, 8, 0);
  if (p.size() != kSuperblockSize) throw std::logic_error("superblock layout drifted");

  // --- Local heap ----------------------------------------------------------
  p.signature("heap.signature", kHeapSignature, 4);
  p.u8("heap.version", FieldClass::Version, kHeapVersion);
  p.fill("heap.reserved", FieldClass::Reserved, 3, 0);
  p.u64("heap.dataSegmentSize", FieldClass::StructSize, heap_data_size);
  p.u64("heap.freeListHeadOffset", FieldClass::Unused, kUndefinedAddress);
  p.u64("heap.dataSegmentAddress", FieldClass::Address, heap_offset + 32);
  for (std::size_t i = 0; i < n_datasets; ++i) {
    const auto& name = file.datasets[i].name;
    util::Bytes entry = util::to_bytes(name);
    entry.push_back(std::byte{0});
    const std::size_t padded = (name.size() + 1 + 7) / 8 * 8;
    entry.resize(padded, std::byte{0});
    p.raw("heap.linkName[" + name + "]", FieldClass::HeapData, entry);
  }
  if (p.size() != btree_offset) throw std::logic_error("heap layout drifted");

  // --- B-tree node (group node, leaf level) --------------------------------
  p.signature("btree.signature", kTreeSignature, 4);
  p.u8("btree.nodeType", FieldClass::StructSize, 0);
  p.u8("btree.nodeLevel", FieldClass::StructSize, 0);
  p.u16("btree.entriesUsed", FieldClass::StructSize, 1);
  p.u64("btree.leftSibling", FieldClass::Unused, kUndefinedAddress);
  p.u64("btree.rightSibling", FieldClass::Unused, kUndefinedAddress);
  // Keys and children: one child (the SNOD) in use; the rest of the node is
  // allocated but empty — the dominant benign region of Table III.
  p.u64("btree.key[0]", FieldClass::Unused, 0);
  p.u64("btree.child[0]", FieldClass::Address, snod_offset);
  p.u64("btree.key[1]", FieldClass::Unused, name_offsets.back());
  p.fill("btree.unusedEntries", FieldClass::Unused,
         8 * (opt.btree_capacity - 1) + 8 * (opt.btree_capacity - 1), 0);
  if (p.size() != snod_offset) throw std::logic_error("btree layout drifted");

  // --- Symbol-table node ----------------------------------------------------
  p.signature("snod.signature", kSnodSignature, 4);
  p.u8("snod.version", FieldClass::Version, kSnodVersion);
  p.u8("snod.reserved", FieldClass::Reserved, 0);
  p.u16("snod.numberOfSymbols", FieldClass::StructSize, static_cast<std::uint16_t>(n_datasets));
  for (std::size_t i = 0; i < opt.snod_capacity; ++i) {
    if (i < n_datasets) {
      const auto& name = file.datasets[i].name;
      p.u64("snod.entry[" + name + "].linkNameOffset", FieldClass::Address, name_offsets[i]);
      p.u64("snod.entry[" + name + "].objectHeaderAddress", FieldClass::Address, oh_offsets[i]);
      p.u32("snod.entry[" + name + "].cacheType", FieldClass::Reserved, 0);
      p.fill("snod.entry[" + name + "].scratch", FieldClass::Unused, 20, 0);
    } else {
      p.fill("snod.unusedEntry[" + std::to_string(i) + "]", FieldClass::Unused, 40, 0);
    }
  }
  if (p.size() != oh_offsets.front()) throw std::logic_error("snod layout drifted");

  // --- Object headers --------------------------------------------------------
  for (std::size_t i = 0; i < n_datasets; ++i) {
    const auto& ds = file.datasets[i];
    const std::string oh = "objectHeader[" + ds.name + "]";
    p.u8(oh + ".version", FieldClass::Version, kObjectHeaderVersion);
    p.u8(oh + ".reserved", FieldClass::Reserved, 0);
    p.u16(oh + ".numberOfMessages", FieldClass::StructSize, 4);
    p.u32(oh + ".objectReferenceCount", FieldClass::Reserved, 1);
    p.u32(oh + ".headerSize", FieldClass::Reserved,
          static_cast<std::uint32_t>(object_header_size(ds) - 12));

    // Dataspace message.
    p.u16(oh + ".dataspace.messageType", FieldClass::StructSize,
          static_cast<std::uint16_t>(MessageType::Dataspace));
    p.u16(oh + ".dataspace.messageSize", FieldClass::StructSize,
          static_cast<std::uint16_t>(8 + 8 * ds.dims.size()));
    p.u8(oh + ".dataspace.messageFlags", FieldClass::Reserved, 0);
    p.fill(oh + ".dataspace.messageReserved", FieldClass::Reserved, 3, 0);
    p.u8(oh + ".dataspace.version", FieldClass::Version, kDataspaceMessageVersion);
    p.u8(oh + ".dataspace.rank", FieldClass::DataspaceField,
         static_cast<std::uint8_t>(ds.dims.size()));
    p.u8(oh + ".dataspace.flags", FieldClass::Reserved, 0);
    p.fill(oh + ".dataspace.reserved", FieldClass::Reserved, 5, 0);
    for (std::size_t d = 0; d < ds.dims.size(); ++d) {
      p.u64(oh + ".dataspace.dimension[" + std::to_string(d) + "]",
            FieldClass::DataspaceField, ds.dims[d]);
    }

    // Datatype message (floating-point class).
    const auto& f = ds.format;
    p.u16(oh + ".dataType.messageType", FieldClass::StructSize,
          static_cast<std::uint16_t>(MessageType::Datatype));
    p.u16(oh + ".dataType.messageSize", FieldClass::StructSize, 12 + 8);
    p.u8(oh + ".dataType.messageFlags", FieldClass::Reserved, 0);
    p.fill(oh + ".dataType.messageReserved", FieldClass::Reserved, 3, 0);
    p.u8(oh + ".dataType.classAndVersion", FieldClass::Version,
         static_cast<std::uint8_t>((kDatatypeMessageVersion << 4) | kClassFloatingPoint));
    // Class bit field byte 0: bit0 byte order, bits 1-3 padding type,
    // bits 4-5 mantissa normalization, bits 6-7 reserved.
    const std::uint8_t bitfield0 = static_cast<std::uint8_t>(
        (f.big_endian ? 1u : 0u) |
        (static_cast<std::uint8_t>(f.normalization) << 4));
    p.u8(oh + ".dataType.classBitField0", FieldClass::DatatypeField, bitfield0);
    p.u8(oh + ".dataType.signLocation", FieldClass::DatatypeField, f.sign_location);
    p.u8(oh + ".dataType.classBitField2", FieldClass::Reserved, 0);
    p.u32(oh + ".dataType.size", FieldClass::StructSize, f.size_bytes);
    // Floating-point property block (Figure 1, bottom).
    p.u16(oh + ".dataType.floatProperty.bitOffset", FieldClass::DatatypeField, f.bit_offset);
    p.u16(oh + ".dataType.floatProperty.bitPrecision", FieldClass::DatatypeField,
          f.bit_precision);
    p.u8(oh + ".dataType.floatProperty.exponentLocation", FieldClass::DatatypeField,
         f.exponent_location);
    p.u8(oh + ".dataType.floatProperty.exponentSize", FieldClass::DatatypeField,
         f.exponent_size);
    p.u8(oh + ".dataType.floatProperty.mantissaLocation", FieldClass::DatatypeField,
         f.mantissa_location);
    p.u8(oh + ".dataType.floatProperty.mantissaSize", FieldClass::DatatypeField,
         f.mantissa_size);
    p.u32(oh + ".dataType.floatProperty.exponentBias", FieldClass::DatatypeField,
          f.exponent_bias);

    // Fill-value message.
    p.u16(oh + ".fillValue.messageType", FieldClass::StructSize,
          static_cast<std::uint16_t>(MessageType::FillValue));
    p.u16(oh + ".fillValue.messageSize", FieldClass::StructSize, 16);
    p.u8(oh + ".fillValue.messageFlags", FieldClass::Reserved, 0);
    p.fill(oh + ".fillValue.messageReserved", FieldClass::Reserved, 3, 0);
    p.u8(oh + ".fillValue.version", FieldClass::Version, kFillValueMessageVersion);
    p.u8(oh + ".fillValue.spaceAllocationTime", FieldClass::FillValue, 1);
    p.u8(oh + ".fillValue.fillWriteTime", FieldClass::FillValue, 0);
    p.u8(oh + ".fillValue.fillDefined", FieldClass::FillValue, 1);
    p.u32(oh + ".fillValue.size", FieldClass::FillValue, 8);
    const std::uint64_t fill_bits = encode_element(ds.fill_value, FloatFormat{});
    p.u64(oh + ".fillValue.value", FieldClass::FillValue, fill_bits);

    // Data-layout message (contiguous storage).
    p.u16(oh + ".layout.messageType", FieldClass::StructSize,
          static_cast<std::uint16_t>(MessageType::DataLayout));
    p.u16(oh + ".layout.messageSize", FieldClass::StructSize, 16 + 2);
    p.u8(oh + ".layout.messageFlags", FieldClass::Reserved, 0);
    p.fill(oh + ".layout.messageReserved", FieldClass::Reserved, 3, 0);
    p.u8(oh + ".layout.version", FieldClass::Version, kLayoutMessageVersion);
    p.u8(oh + ".layout.class", FieldClass::StructSize, 1);  // contiguous
    p.u64(oh + ".layout.addressOfRawData", FieldClass::LayoutField, data_addresses[i]);
    p.u64(oh + ".layout.contiguousStorageSize", FieldClass::LayoutField,
          ds.element_count() * f.size_bytes);
  }

  // "Space reserved for future metadata."
  p.fill("reservedFutureMetadata", FieldClass::Unused, opt.reserved_tail_bytes, 0);
  p.align("metadataPadding", 8);
  if (p.size() != metadata_size) throw std::logic_error("metadata layout drifted");

  PackResult result;
  result.metadata = p.take_buffer();
  result.map = p.take_map();
  result.data_addresses = std::move(data_addresses);
  result.file_size = file_size;
  return result;
}

}  // namespace

std::string options_fingerprint(const WriteOptions& options) {
  return "h5/1;chunk=" + std::to_string(options.data_chunk_bytes) +
         ";lock=" + (options.lock_file ? "1" : "0") +
         ";btree=" + std::to_string(options.btree_capacity) +
         ";snod=" + std::to_string(options.snod_capacity) +
         ";tail=" + std::to_string(options.reserved_tail_bytes);
}

std::vector<DatasetRange> dataset_byte_ranges(const WriteInfo& info) {
  std::vector<DatasetRange> out;
  out.reserve(info.data_addresses.size());
  for (std::size_t i = 0; i < info.data_addresses.size(); ++i) {
    const std::uint64_t end = i + 1 < info.data_addresses.size()
                                  ? info.data_addresses[i + 1]
                                  : info.file_size;
    out.push_back(DatasetRange{info.data_addresses[i], end});
  }
  return out;
}

WriteInfo plan_layout(const H5File& file, const WriteOptions& options) {
  PackResult packed = pack(file, options);
  WriteInfo info;
  info.metadata_size = packed.metadata.size();
  info.file_size = packed.file_size;
  info.data_addresses = std::move(packed.data_addresses);
  info.field_map = std::move(packed.map);
  return info;
}

WriteInfo write_h5(vfs::FileSystem& fs, const std::string& path, const H5File& shape,
                   std::span<const std::span<const double>> values,
                   const WriteOptions& options) {
  // The layout depends only on names/dims/options, so `shape`'s own `data`
  // is never consulted; the values come from `values`.
  if (values.size() != shape.datasets.size()) {
    throw H5FormatError("write_h5: " + std::to_string(values.size()) + " value arrays for " +
                        std::to_string(shape.datasets.size()) + " datasets");
  }
  for (std::size_t i = 0; i < shape.datasets.size(); ++i) {
    if (shape.datasets[i].element_count() != values[i].size()) {
      throw H5FormatError("dataset dims/data mismatch: " + shape.datasets[i].name);
    }
  }
  PackResult packed = pack(shape, options);

  const std::string lock_path = path + ".lock";
  if (options.lock_file) fs.mknod(lock_path, 0600);

  {
    vfs::File out(fs, path, vfs::OpenMode::Write);

    // 1. Raw data, chunk by chunk — straight from the values' own bytes
    // when the dataset's format is canonical (raw_view).
    util::Bytes scratch;
    for (std::size_t i = 0; i < shape.datasets.size(); ++i) {
      const util::ByteSpan raw = raw_view(values[i], shape.datasets[i].format, scratch);
      if (!vfs::pwrite_all(out, raw, packed.data_addresses[i], options.data_chunk_bytes)) {
        throw H5Exception("short write of raw data");
      }
    }

    // 2. The packed metadata block — the penultimate write.
    if (out.pwrite(packed.metadata, 0) == 0) throw H5Exception("metadata write failed");

    // 3. Final write: refresh the superblock end-of-file address.
    const FieldEntry* eof = packed.map.find_by_name("superblock.endOfFileAddress");
    util::Bytes eof_bytes;
    util::put_le(eof_bytes, packed.file_size, 8);
    if (out.pwrite(eof_bytes, eof->offset) == 0) throw H5Exception("EOF update failed");
  }

  if (options.lock_file) fs.unlink(lock_path);

  WriteInfo info;
  info.metadata_size = packed.metadata.size();
  info.file_size = packed.file_size;
  info.data_addresses = std::move(packed.data_addresses);
  info.field_map = std::move(packed.map);
  return info;
}

WriteInfo write_h5(vfs::FileSystem& fs, const std::string& path, const H5File& file,
                   const WriteOptions& options) {
  std::vector<std::span<const double>> values;
  values.reserve(file.datasets.size());
  for (const auto& ds : file.datasets) values.emplace_back(ds.data);
  return write_h5(fs, path, file, values, options);
}

}  // namespace ffis::h5
