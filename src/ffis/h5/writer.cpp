#include "ffis/h5/writer.hpp"

#include "ffis/h5/float_codec.hpp"
#include "ffis/h5/layout.hpp"
#include "ffis/util/bytes.hpp"

namespace ffis::h5 {

namespace {

using layout::Name;
using enum FieldClass;

/// Where each structure starts.  A measuring pass over emit() fills it in;
/// the writing pass reads from it what one structure stores about another.
struct Placement {
  std::uint64_t heap = 0, heap_data = 0, btree = 0, snod = 0;
  std::vector<std::uint64_t> name_offsets;  ///< relative to the heap data segment
  std::vector<std::uint64_t> object_headers;
  WriteInfo info{};  ///< metadata size, file size, raw-data addresses
};

/// An object header, then each message: its header, sized by measuring the
/// body, and the body.
template <class F, class... Body>
void emit_object_header(F& f, const std::string& object, Body... body) {
  const std::uint64_t size =
      ((layout::measure(layout::MessageHeader{}) + layout::measure(body)) + ...);
  f.scope("objectHeader[", object, "]");
  layout::ObjectHeader{.messages = sizeof...(body),
                       .header_size = static_cast<std::uint32_t>(size)}
      .fields(f);
  const auto message = [&](auto& b) {
    f.scope("objectHeader[", object, "].", b.kName);
    layout::MessageHeader{.type = static_cast<std::uint16_t>(b.kType),
                          .size = static_cast<std::uint16_t>(layout::measure(b))}
        .fields(f);
    b.fields(f);
  };
  (message(body), ...);
}

/// Lays the metadata block down through `f`, recording in `at` where each
/// structure starts and storing the addresses `at` already holds.
template <class F>
void emit(F& f, const H5File& file, const WriteOptions& opt, Placement& at) {
  const std::size_t n_datasets = file.datasets.size();
  f.scope("superblock");
  layout::Superblock{.end_of_file = at.info.file_size,
                     .btree_address = at.btree,
                     .heap_address = at.heap}
      .fields(f);

  at.heap = f.size();
  f.scope("heap");
  layout::HeapHeader{.data_size = at.btree - at.heap_data, .data_address = at.heap_data}.fields(f);
  at.heap_data = f.size();
  for (std::size_t i = 0; i < n_datasets; ++i) {
    const std::string& name = file.datasets[i].name;
    at.name_offsets[i] = f.size() - at.heap_data;
    f.text(Name("linkName", name), HeapData, name, (name.size() + 1 + 7) / 8 * 8);
  }

  // One child (the symbol-table node) in use, then the closing key; the
  // other entries are allocated but empty — the dominant benign region of
  // Table III.
  at.btree = f.size();
  f.scope("btree");
  layout::BtreeNode{.entries_used = 1}.fields(f);
  layout::BtreeEntry entry{.index = 0, .child = at.snod};
  entry.fields(f);
  f(at.name_offsets.back(), Name("key", 1), Unused);
  f.spare("unusedEntries", Unused, (opt.btree_capacity - 1) * layout::measure(entry));

  at.snod = f.size();
  f.scope("snod");
  layout::SymbolTableNode{.symbols = static_cast<std::uint16_t>(n_datasets)}.fields(f);
  for (std::size_t i = 0; i < n_datasets; ++i) {
    f.scope("snod.entry[", file.datasets[i].name, "]");
    layout::SymbolTableEntry{.link_name_offset = at.name_offsets[i],
                             .object_header_address = at.object_headers[i]}
        .fields(f);
  }
  f.scope("snod");
  for (std::size_t i = n_datasets; i < opt.snod_capacity; ++i) {
    f.spare(Name("unusedEntry", i), Unused, layout::measure(layout::SymbolTableEntry{}));
  }

  for (std::size_t i = 0; i < n_datasets; ++i) {
    const Dataset& ds = file.datasets[i];
    at.object_headers[i] = f.size();
    emit_object_header(
        f, ds.name,
        layout::DataspaceMessage{.rank = static_cast<std::uint8_t>(ds.dims.size()),
                                 .dims = ds.dims},
        layout::DatatypeMessage(ds.format),
        layout::FillValueMessage{.value_bits = encode_element(ds.fill_value, FloatFormat{})},
        layout::LayoutMessage{.address = at.info.data_addresses[i],
                              .size = ds.element_count() * ds.format.size_bytes});
  }

  f.scope();
  f.spare("reservedFutureMetadata", Unused, opt.reserved_tail_bytes);
  f.spare("metadataPadding", Reserved, (8 - f.size() % 8) % 8);
  at.info.metadata_size = f.size();
}

/// Packs the metadata block into `*metadata` (when given) and returns its
/// layout: a measuring pass places every structure, the raw data follows
/// the block, then the writing pass lays the bytes down.
WriteInfo pack(const H5File& file, const WriteOptions& opt, util::Bytes* metadata = nullptr) {
  const std::size_t n_datasets = file.datasets.size();
  if (n_datasets == 0) throw H5FormatError("cannot write an HDF5 file with no datasets");
  for (const auto& ds : file.datasets) {
    if (ds.dims.empty() || ds.dims.size() > 8) {
      throw H5FormatError("dataset rank must be 1..8: " + ds.name);
    }
    if (ds.name.empty()) throw H5FormatError("dataset must have a name");
  }
  if (n_datasets > opt.snod_capacity) {
    throw H5FormatError("too many datasets for symbol-table capacity");
  }
  if (opt.btree_capacity == 0) throw H5FormatError("group B-tree capacity must be at least 1");

  Placement at{.name_offsets = std::vector<std::uint64_t>(n_datasets),
               .object_headers = std::vector<std::uint64_t>(n_datasets)};
  at.info.data_addresses.resize(n_datasets);
  layout::Measure measure;
  emit(measure, file, opt, at);
  at.info.file_size = at.info.metadata_size;
  for (std::size_t i = 0; i < n_datasets; ++i) {
    at.info.data_addresses[i] = at.info.file_size;
    at.info.file_size += file.datasets[i].element_count() * file.datasets[i].format.size_bytes;
  }

  layout::Packer<true> packer;
  emit(packer, file, opt, at);
  at.info.field_map = std::move(packer.map);
  if (metadata != nullptr) *metadata = std::move(packer.out);
  return std::move(at.info);
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
  return pack(file, options);
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
  util::Bytes metadata;
  WriteInfo info = pack(shape, options, &metadata);

  const std::string lock_path = path + ".lock";
  if (options.lock_file) fs.mknod(lock_path, 0600);

  {
    vfs::File out(fs, path, vfs::OpenMode::Write);

    // 1. Raw data, chunk by chunk — straight from the values' own bytes
    // when the dataset's format is canonical (raw_view).
    util::Bytes scratch;
    for (std::size_t i = 0; i < shape.datasets.size(); ++i) {
      const util::ByteSpan raw = raw_view(values[i], shape.datasets[i].format, scratch);
      if (!vfs::pwrite_all(out, raw, info.data_addresses[i], options.data_chunk_bytes)) {
        throw H5Exception("short write of raw data");
      }
    }

    // 2. The packed metadata block — the penultimate write.
    if (out.pwrite(metadata, 0) == 0) throw H5Exception("metadata write failed");

    // 3. Final write: refresh the superblock end-of-file address.
    const FieldEntry* eof = info.field_map.find_by_name("superblock.endOfFileAddress");
    util::Bytes eof_bytes;
    util::put_le(eof_bytes, info.file_size, eof->length);
    if (out.pwrite(eof_bytes, eof->offset) == 0) throw H5Exception("EOF update failed");
  }

  if (options.lock_file) fs.unlink(lock_path);
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
