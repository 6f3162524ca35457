#include "ffis/h5/reader.hpp"

#include <cstring>

#include "ffis/h5/float_codec.hpp"
#include "ffis/h5/layout.hpp"

namespace ffis::h5 {

namespace {

/// Bounds-checked cursor over the file image; as the field codec of
/// layout.hpp it reads each field and runs the checks between them.
class Cursor {
 public:
  Cursor(util::ByteSpan image, std::uint64_t offset) : image_(image), pos_(offset) {
    if (offset > image.size()) {
      throw H5BoundsError("metadata address " + std::to_string(offset) +
                          " beyond end of file (" + std::to_string(image.size()) + ")");
    }
  }

  [[nodiscard]] std::uint64_t position() const noexcept { return pos_; }

  void skip(std::size_t n) {
    (void)checked(n);
    pos_ += n;
  }

  static constexpr bool kReads = true;

  template <class T>
  void operator()(T& value, layout::Name, FieldClass) {
    value = static_cast<T>(util::get_le(checked(sizeof(T)), pos_, sizeof(T)));
    pos_ += sizeof(T);
  }
  void signature(layout::Name, std::string_view sig, const char* what) {
    const auto bytes = checked(sig.size()).subspan(pos_, sig.size());
    layout::check<H5SignatureError>(*this, std::memcmp(bytes.data(), sig.data(), sig.size()) == 0,
                                    "bad ", what, " signature at offset ", pos_);
    pos_ += sig.size();
  }
  void version(layout::Name name, std::uint8_t want, const char* what) {
    std::uint8_t got = 0;
    (*this)(got, name, FieldClass::Version);
    layout::check_version(*this, got, want, what);
  }
  void bytes(layout::Name, FieldClass, std::uint64_t n) { skip(n); }
  void spare(layout::Name, FieldClass, std::uint64_t) noexcept {}

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

/// Runs `s`'s declaration through `c`: reads and checks every field.
template <class S>
S parse(Cursor& c, S s = {}) {
  s.fields(c);
  return s;
}

Dataset read_object_header(util::ByteSpan image, std::uint64_t address,
                           std::string name) {
  Cursor c(image, address);
  const auto header = parse<layout::ObjectHeader>(c);
  bool have_dataspace = false, have_datatype = false, have_layout = false;
  layout::DataspaceMessage dataspace;
  layout::DatatypeMessage datatype;
  layout::LayoutMessage storage;
  Dataset ds;
  ds.name = std::move(name);

  for (std::uint16_t m = 0; m < header.messages; ++m) {
    const auto message = parse<layout::MessageHeader>(c);
    const std::uint64_t body_start = c.position();
    switch (static_cast<MessageType>(message.type)) {
      case MessageType::Nil:
        c.skip(message.size);
        break;
      case layout::DataspaceMessage::kType:
        dataspace.fields(c);
        have_dataspace = true;
        break;
      case layout::DatatypeMessage::kType:
        datatype.fields(c);
        have_datatype = true;
        break;
      case layout::FillValueMessage::kType:
        if (const auto fill = parse<layout::FillValueMessage>(c); fill.defined != 0) {
          ds.fill_value = decode_element(fill.value_bits, FloatFormat{});
        }
        break;
      case layout::LayoutMessage::kType:
        storage.fields(c);
        have_layout = true;
        break;
      default:
        throw H5FormatError("unknown object header message type: " +
                            std::to_string(message.type));
    }
    if (c.position() != body_start + message.size) {
      throw H5FormatError("message size mismatch for type " + std::to_string(message.type));
    }
  }

  if (!have_dataspace || !have_datatype || !have_layout) {
    throw H5FormatError("object header missing a required message");
  }
  ds.dims = std::move(dataspace.dims);
  ds.format = datatype.decoded();  // validated in codec

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
  if (storage.size < need) {
    throw H5BoundsError("contiguous storage size " + std::to_string(storage.size) +
                        " smaller than dataset (" + std::to_string(need) + " bytes)");
  }
  // Compared without adding to the address: a corrupted address near 2^64
  // (the undefined address ~0 included) would wrap the sum below the file
  // size.
  if (storage.address > image.size() || need > image.size() - storage.address) {
    throw H5BoundsError("raw data address " + std::to_string(storage.address) +
                        " + " + std::to_string(need) + " beyond end of file");
  }
  ds.data = decode_array(image.subspan(storage.address), count, ds.format);
  return ds;
}

}  // namespace

H5File read_h5(util::ByteSpan image) {
  Cursor sb(image, 0);
  const auto superblock = parse(sb, layout::Superblock{.image_size = image.size()});
  Cursor hp(image, superblock.heap_address);
  const auto heap = parse(hp, layout::HeapHeader{.image_size = image.size()});
  Cursor bt(image, superblock.btree_address);
  const auto node = parse(bt, layout::BtreeNode{.internal_k = superblock.internal_k});

  H5File file;
  for (std::uint16_t e = 0; e < node.entries_used; ++e) {
    const auto entry = parse(bt, layout::BtreeEntry{.index = e});
    Cursor sn(image, entry.child);
    const auto snod = parse<layout::SymbolTableNode>(sn);
    for (std::uint16_t s = 0; s < snod.symbols; ++s) {
      const auto symbol = parse<layout::SymbolTableEntry>(sn);
      const std::string name =
          read_heap_name(image, heap.data_address, heap.data_size, symbol.link_name_offset);
      file.datasets.push_back(read_object_header(image, symbol.object_header_address, name));
    }
  }
  return file;
}

H5File read_h5(vfs::FileSystem& fs, const std::string& path) {
  const util::Bytes image = vfs::read_file(fs, path);
  if (image.size() < layout::measure(layout::Superblock{})) {
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
