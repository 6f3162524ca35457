#pragma once
// Mini-HDF5 reader.
//
// Parses the cascading metadata (superblock → root group B-tree → symbol
// table → object headers), each structure through its declaration in
// layout.hpp (fields and checks), and decodes raw data *through* the
// floating-point datatype message.  Validation mirrors the HDF5 library's
// behaviour under the paper's metadata faults:
//
//  * signatures, version numbers, structure sizes and addresses are checked
//    and throw H5*Error — these are the paper's Crash fields (Table III);
//  * the floating-point property fields (exponent location/size/bias,
//    mantissa location/size, normalization) are accepted permissively and
//    change the decoded values — the paper's SDC fields (Table IV);
//  * bit offset / bit precision / oversized storage allocations are ignored
//    or tolerated — the paper's resilient (benign) fields.

#include <cstdint>
#include <string>

#include "ffis/h5/format.hpp"
#include "ffis/util/bytes.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::h5 {

/// Parses an entire HDF5 file image through the VFS.  Throws H5Exception
/// subclasses on any unjustifiable metadata value.
[[nodiscard]] H5File read_h5(vfs::FileSystem& fs, const std::string& path);

/// Parses from an in-memory byte image (used by metadata sweeps to avoid
/// re-running the producing application for every injected byte).
[[nodiscard]] H5File read_h5(util::ByteSpan image);

/// Reads a single dataset by name (parses everything, returns one dataset).
[[nodiscard]] Dataset read_dataset(vfs::FileSystem& fs, const std::string& path,
                                   const std::string& name);

}  // namespace ffis::h5
