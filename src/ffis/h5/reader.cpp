#include "ffis/h5/reader.hpp"

#include <cstring>

#include "ffis/h5/float_codec.hpp"

namespace ffis::h5 {

namespace {

/// Bounds-checked cursor over the file image.
class Cursor {
 public:
  Cursor(util::ByteSpan image, std::uint64_t offset) : image_(image), pos_(offset) {
    if (offset > image.size()) {
      throw H5BoundsError("metadata address " + std::to_string(offset) +
                          " beyond end of file (" + std::to_string(image.size()) + ")");
    }
  }

  [[nodiscard]] std::uint64_t position() const noexcept { return pos_; }

  std::uint64_t u(std::size_t width) {
    const std::uint64_t v = util::get_le(checked(width), pos_, width);
    pos_ += width;
    return v;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(u(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(u(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u(4)); }
  std::uint64_t u64() { return u(8); }

  void expect_signature(const char* sig, std::size_t len, const std::string& what) {
    const auto bytes = checked(len);
    for (std::size_t i = 0; i < len; ++i) {
      if (static_cast<char>(std::to_integer<unsigned char>(bytes[pos_ + i])) != sig[i]) {
        throw H5SignatureError("bad " + what + " signature at offset " +
                               std::to_string(pos_));
      }
    }
    pos_ += len;
  }

  void skip(std::size_t n) {
    (void)checked(n);
    pos_ += n;
  }

 private:
  /// pos_ never passes the end of the image, so the remaining byte count
  /// cannot underflow; comparing `need` against it cannot wrap.
  util::ByteSpan checked(std::size_t need) const {
    if (need > image_.size() - pos_) {
      throw H5BoundsError("read past end of file at offset " + std::to_string(pos_));
    }
    return image_;
  }

  util::ByteSpan image_;
  std::uint64_t pos_;
};

void expect_version(std::uint8_t got, std::uint8_t want, const std::string& what) {
  if (got != want) {
    throw H5VersionError("unsupported " + what + " version " + std::to_string(got) +
                         " (expected " + std::to_string(want) + ")");
  }
}

std::string read_heap_name(util::ByteSpan image, std::uint64_t heap_data_address,
                           std::uint64_t heap_data_size, std::uint64_t name_offset) {
  if (name_offset >= heap_data_size) {
    throw H5BoundsError("link name offset " + std::to_string(name_offset) +
                        " beyond heap data segment");
  }
  std::string name;
  std::uint64_t pos = heap_data_address + name_offset;
  while (true) {
    if (pos >= image.size() || pos >= heap_data_address + heap_data_size) {
      throw H5BoundsError("unterminated link name in heap");
    }
    const char c = static_cast<char>(std::to_integer<unsigned char>(image[pos]));
    if (c == '\0') break;
    name.push_back(c);
    ++pos;
  }
  if (name.empty()) throw H5FormatError("empty link name in heap");
  return name;
}

Dataset read_object_header(util::ByteSpan image, std::uint64_t address,
                           std::string name) {
  Cursor c(image, address);
  expect_version(c.u8(), kObjectHeaderVersion, "object header");
  c.skip(1);  // reserved
  const std::uint16_t n_messages = c.u16();
  if (n_messages == 0 || n_messages > 64) {
    throw H5FormatError("implausible object header message count: " +
                        std::to_string(n_messages));
  }
  c.skip(4);  // object reference count (unchecked)
  c.skip(4);  // header size (informational)

  Dataset ds;
  ds.name = std::move(name);
  bool have_dataspace = false, have_datatype = false, have_layout = false;
  Layout layout;

  for (std::uint16_t m = 0; m < n_messages; ++m) {
    const std::uint16_t type = c.u16();
    const std::uint16_t size = c.u16();
    c.skip(1);  // flags
    c.skip(3);  // reserved
    const std::uint64_t body_start = c.position();

    switch (static_cast<MessageType>(type)) {
      case MessageType::Nil:
        c.skip(size);
        break;

      case MessageType::Dataspace: {
        expect_version(c.u8(), kDataspaceMessageVersion, "dataspace message");
        const std::uint8_t rank = c.u8();
        if (rank == 0 || rank > 8) {
          throw H5FormatError("dataspace rank not supported: " + std::to_string(rank));
        }
        c.skip(1);  // flags (no max dims)
        c.skip(5);  // reserved
        ds.dims.clear();
        for (std::uint8_t d = 0; d < rank; ++d) ds.dims.push_back(c.u64());
        have_dataspace = true;
        break;
      }

      case MessageType::Datatype: {
        const std::uint8_t class_and_version = c.u8();
        expect_version(class_and_version >> 4, kDatatypeMessageVersion, "datatype message");
        if ((class_and_version & 0x0f) != kClassFloatingPoint) {
          throw H5FormatError("unsupported datatype class: " +
                              std::to_string(class_and_version & 0x0f));
        }
        const std::uint8_t bitfield0 = c.u8();
        FloatFormat f;
        f.big_endian = (bitfield0 & 0x01) != 0;
        const std::uint8_t norm = (bitfield0 >> 4) & 0x03;
        f.normalization = static_cast<MantissaNorm>(norm);  // validated in codec
        f.sign_location = c.u8();
        c.skip(1);  // class bit field byte 2 (reserved)
        const std::uint32_t size_bytes = c.u32();
        f.size_bytes = size_bytes;  // validated in codec
        f.bit_offset = c.u16();
        f.bit_precision = c.u16();
        f.exponent_location = c.u8();
        f.exponent_size = c.u8();
        f.mantissa_location = c.u8();
        f.mantissa_size = c.u8();
        f.exponent_bias = c.u32();
        ds.format = f;
        have_datatype = true;
        break;
      }

      case MessageType::FillValue: {
        expect_version(c.u8(), kFillValueMessageVersion, "fill value message");
        c.skip(1);  // space allocation time
        c.skip(1);  // fill write time
        const std::uint8_t defined = c.u8();
        const std::uint32_t fsize = c.u32();
        if (defined != 0) {
          if (fsize != 8) {
            throw H5FormatError("unsupported fill value size: " + std::to_string(fsize));
          }
          ds.fill_value = decode_element(c.u64(), FloatFormat{});
        } else {
          c.skip(fsize);
        }
        break;
      }

      case MessageType::DataLayout: {
        expect_version(c.u8(), kLayoutMessageVersion, "data layout message");
        const std::uint8_t layout_class = c.u8();
        if (layout_class != 1) {
          throw H5FormatError("unsupported layout class: " + std::to_string(layout_class));
        }
        layout.address = c.u64();
        layout.size = c.u64();
        have_layout = true;
        break;
      }

      default:
        throw H5FormatError("unknown object header message type: " + std::to_string(type));
    }
    if (c.position() != body_start + size) {
      throw H5FormatError("message size mismatch for type " + std::to_string(type));
    }
  }

  if (!have_dataspace || !have_datatype || !have_layout) {
    throw H5FormatError("object header missing a required message");
  }

  // Resolve the raw data.  HDF5 accepts allocations larger than the dataset
  // needs (the paper observes faults enlarging Size to be benign), but an
  // allocation smaller than the dataset, or one extending past the end of
  // the file, is an error.
  const std::uint64_t count = ds.element_count();
  // Guard the multiplication below: corrupted dimension fields must not be
  // able to wrap `need` around and bypass the allocation bounds checks.
  if (count > (1ULL << 32)) {
    throw H5FormatError("implausible dataset element count: " + std::to_string(count));
  }
  const std::uint64_t need = count * ds.format.size_bytes;
  if (layout.size < need) {
    throw H5BoundsError("contiguous storage size " + std::to_string(layout.size) +
                        " smaller than dataset (" + std::to_string(need) + " bytes)");
  }
  // Compared without adding to the address: a corrupted address near 2^64
  // (the undefined address ~0 included) would wrap the sum below the file
  // size.
  if (layout.address > image.size() || need > image.size() - layout.address) {
    throw H5BoundsError("raw data address " + std::to_string(layout.address) +
                        " + " + std::to_string(need) + " beyond end of file");
  }
  ds.data = decode_array(image.subspan(layout.address), count, ds.format);
  return ds;
}

}  // namespace

H5File read_h5(util::ByteSpan image) {
  // --- Superblock ---------------------------------------------------------
  Cursor sb(image, 0);
  sb.expect_signature(reinterpret_cast<const char*>(kSuperblockSignature), 8, "superblock");
  expect_version(sb.u8(), kSuperblockVersion, "superblock");
  expect_version(sb.u8(), kFreeSpaceVersion, "free space storage");
  expect_version(sb.u8(), kRootGroupVersion, "root group symbol table");
  sb.skip(1);  // reserved
  expect_version(sb.u8(), kSharedHeaderVersion, "shared header message format");
  const std::uint8_t size_of_offsets = sb.u8();
  const std::uint8_t size_of_lengths = sb.u8();
  if (size_of_offsets != 8 || size_of_lengths != 8) {
    throw H5FormatError("unsupported size of offsets/lengths");
  }
  sb.skip(1);  // reserved
  const std::uint16_t leaf_k = sb.u16();
  const std::uint16_t internal_k = sb.u16();
  if (leaf_k == 0 || internal_k == 0) {
    throw H5FormatError("group B-tree K parameters must be non-zero");
  }
  sb.skip(4);  // file consistency flags
  const std::uint64_t base_address = sb.u64();
  if (base_address != 0) {
    throw H5FormatError("non-zero base address not supported: " +
                        std::to_string(base_address));
  }
  sb.skip(8);  // free space address (undefined)
  const std::uint64_t eof_address = sb.u64();
  if (eof_address != image.size()) {
    throw H5BoundsError("end-of-file address " + std::to_string(eof_address) +
                        " does not match file size " + std::to_string(image.size()) +
                        " (truncated file?)");
  }
  sb.skip(8);  // driver info address (undefined)
  sb.skip(8);  // root group link name offset
  const std::uint32_t cache_type = sb.u32();
  if (cache_type != 1) {
    throw H5FormatError("root group symbol table entry cache type must be 1");
  }
  sb.skip(4);  // reserved
  const std::uint64_t btree_address = sb.u64();
  const std::uint64_t heap_address = sb.u64();

  // --- Local heap -----------------------------------------------------------
  Cursor hp(image, heap_address);
  hp.expect_signature(kHeapSignature, 4, "local heap");
  expect_version(hp.u8(), kHeapVersion, "local heap");
  hp.skip(3);  // reserved
  const std::uint64_t heap_data_size = hp.u64();
  hp.skip(8);  // free list head
  const std::uint64_t heap_data_address = hp.u64();
  if (heap_data_address > image.size() ||
      heap_data_size > image.size() - heap_data_address) {
    throw H5BoundsError("heap data segment beyond end of file");
  }

  // --- Root group B-tree ------------------------------------------------------
  Cursor bt(image, btree_address);
  bt.expect_signature(kTreeSignature, 4, "B-tree node");
  const std::uint8_t node_type = bt.u8();
  if (node_type != 0) {
    throw H5FormatError("B-tree node type must be 0 (group node), got " +
                        std::to_string(node_type));
  }
  const std::uint8_t node_level = bt.u8();
  if (node_level != 0) {
    throw H5FormatError("multi-level group B-trees not supported (level " +
                        std::to_string(node_level) + ")");
  }
  const std::uint16_t entries_used = bt.u16();
  if (entries_used == 0 || entries_used > 2 * internal_k * 16) {
    throw H5FormatError("implausible B-tree entries used: " + std::to_string(entries_used));
  }
  bt.skip(8);  // left sibling
  bt.skip(8);  // right sibling

  H5File file;
  for (std::uint16_t e = 0; e < entries_used; ++e) {
    bt.skip(8);  // key[e]
    const std::uint64_t snod_address = bt.u64();

    // --- Symbol-table node -------------------------------------------------
    Cursor sn(image, snod_address);
    sn.expect_signature(kSnodSignature, 4, "symbol table node");
    expect_version(sn.u8(), kSnodVersion, "symbol table node");
    sn.skip(1);  // reserved
    const std::uint16_t n_symbols = sn.u16();
    if (n_symbols == 0 || n_symbols > 1024) {
      throw H5FormatError("implausible symbol count: " + std::to_string(n_symbols));
    }
    for (std::uint16_t s = 0; s < n_symbols; ++s) {
      const std::uint64_t link_name_offset = sn.u64();
      const std::uint64_t object_header_address = sn.u64();
      sn.skip(4);   // cache type
      sn.skip(20);  // reserved + scratch
      const std::string name =
          read_heap_name(image, heap_data_address, heap_data_size, link_name_offset);
      file.datasets.push_back(read_object_header(image, object_header_address, name));
    }
  }
  return file;
}

H5File read_h5(vfs::FileSystem& fs, const std::string& path) {
  const util::Bytes image = vfs::read_file(fs, path);
  if (image.size() < 96) {
    throw H5BoundsError("file too small to hold an HDF5 superblock: " + path);
  }
  return read_h5(util::ByteSpan(image));
}

Dataset read_dataset(vfs::FileSystem& fs, const std::string& path, const std::string& name) {
  H5File file = read_h5(fs, path);
  for (auto& ds : file.datasets) {
    if (ds.name == name) return std::move(ds);
  }
  throw H5NotFoundError("dataset not found: " + name + " in " + path);
}

}  // namespace ffis::h5
